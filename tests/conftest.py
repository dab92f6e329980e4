"""Settings shared by the test modules in this directory."""

from hypothesis import settings

# Every hypothesis test draws the same examples on every run, records
# none of them, and has no time limit per example; each test sets its
# own max_examples.
settings.register_profile("tempokit", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tempokit")
