"""Shared fixtures."""
import contextlib
import signal

import pytest


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
