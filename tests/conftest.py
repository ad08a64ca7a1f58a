"""Fixtures shared by the test modules, and a CPU budget for each test."""

import contextlib
import signal
import sys

import pytest

from helpers import DEFAULT_MAX_STR_DIGITS

#: The CPU seconds one test may spend in this process, about ten times the
#: slowest tier-1 test.  A defect that sends a loop or a hypothesis search
#: running away then fails its test in seconds instead of stalling the suite.
TEST_CPU_BUDGET = 20.0


class CPUBudgetExceeded(BaseException):
    """Code spent its CPU budget.  Not an ``Exception``, so neither a test nor
    hypothesis catches it: hypothesis stops at once, shrinking included, and
    pytest reports the test failed and goes on to the next."""


@contextlib.contextmanager
def cpu_budget(seconds: float):
    """Raises CPUBudgetExceeded in the block once it has spent ``seconds`` of
    this process's CPU time (``ITIMER_PROF``, POSIX only; the processes it
    starts are not counted).

    The alarm repeats every 0.1 s after the first, so code that swallows
    one (a gc callback, a ``__del__``, an ``except BaseException``) cannot
    keep the block running, and a block that fired fails with the budget's
    message whatever it raised or returned.  The timer and handler it
    replaces are restored on exit, so budgets nest.
    """
    message = (
        f"the test spent its CPU budget of {seconds:g} s (TEST_CPU_BUDGET in tests/conftest.py)"
    )
    fired = []

    def over_budget(signum, frame):
        fired.append(signum)
        raise CPUBudgetExceeded(message)

    previous = signal.signal(signal.SIGPROF, over_budget)
    outer = signal.setitimer(signal.ITIMER_PROF, seconds, 0.1)
    try:
        yield
    except CPUBudgetExceeded:
        raise
    except BaseException as exc:
        if fired:
            raise CPUBudgetExceeded(message) from exc
        raise
    finally:
        signal.setitimer(signal.ITIMER_PROF, *outer)
        signal.signal(signal.SIGPROF, previous)
    if fired:
        raise CPUBudgetExceeded(message)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Runs each test in a budget of TEST_CPU_BUDGET seconds of CPU."""
    if not hasattr(signal, "setitimer"):
        return (yield)
    with cpu_budget(TEST_CPU_BUDGET):
        return (yield)


@pytest.fixture
def unproved_sectors():
    """No sector table proved before a test patches the constants it is built from.

    Clearing ``_sector_table`` is all it takes: each table keeps the checked Q'
    it was recorded from, so no other cache holds Q'.
    """
    from octocf.octagon import _sector_table

    _sector_table.cache_clear()
    yield
    _sector_table.cache_clear()


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-string limit for one test, whatever limit the
    interpreter started with (``PYTHONINTMAXSTRDIGITS``); restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield  # this Python has no limit to set
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_MAX_STR_DIGITS)
    yield
    sys.set_int_max_str_digits(previous)
