"""Settings shared by the test modules in this directory."""

import multiprocessing

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
