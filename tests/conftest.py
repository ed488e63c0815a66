"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` draws the same examples
on every run and prints the blob that reproduces a failure; without it
the default profile applies.  Every test has ``TIME_BOUND`` seconds."""

import os
import signal

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# a loop (a step-size controller that never ends its piece, say) fails
# its test here and the run goes on; the slowest test takes about 1.5 s
TIME_BOUND = 60.0


class TimeBoundExceeded(BaseException):
    """Not an ``Exception``: hypothesis would take one for a failing
    example and shrink it, re-running the loop with no alarm left."""


def _expire(signum, frame):
    raise TimeBoundExceeded(f"the test ran past {TIME_BOUND:g} s")


@pytest.fixture(autouse=True)
def time_bound():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
