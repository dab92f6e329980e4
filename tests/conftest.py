"""Settings shared by the test modules in this directory."""

import contextlib
import multiprocessing
import signal

import pytest
from hypothesis import settings

# Every hypothesis test draws the same examples on every run, records
# none of them, and has no time limit per example; each test sets its
# own max_examples.
settings.register_profile("tempokit", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tempokit")


@pytest.fixture(autouse=True)
def no_process_left():
    """Every test leaves no child process running."""
    yield
    assert multiprocessing.active_children() == []


@contextlib.contextmanager
def no_hang(seconds):
    """Fail, instead of hanging, a block still running after seconds: an
    ITIMER_REAL SIGALRM raises RuntimeError in it (not an OSError, which
    the CLI would report as its own error). The old handler is restored."""
    def hung(signum, frame):
        raise RuntimeError(f"blocked for {seconds} s")

    handler = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
