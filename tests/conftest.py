"""Shared fixtures."""
import contextlib
import signal

import pytest
from hypothesis import strategies as st

# Floats for the contract fuzzes: the whole double range, plus zero,
# subnormals, the edges of the range and a few plain values.
FUZZ_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-320, 1e-300, 1e300, -1e300,
                     0.5, 1.0, -1.0, 2.0]))


class TimeLimitExceeded(Exception):
    """The code under test ran past its time limit."""


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def time_limit():
    """``with time_limit(seconds): ...`` raises TimeLimitExceeded inside the
    block once it has run that long, so a hang fails the test."""
    return _time_limit
