"""Fixtures shared by the test modules, a CPU budget for each test and for
the collection of each module, and a memory cap on the test process."""

import contextlib
import signal
import sys

import pytest

from helpers import DEFAULT_MAX_STR_DIGITS

#: The CPU seconds one test, or the collection of one node (a module's import
#: included), may spend in this process, about ten times the slowest tier-1
#: test.  A defect that sends a loop or a hypothesis search running away then
#: fails its test or its collection in seconds instead of stalling the suite.
TEST_CPU_BUDGET = 20.0


class CPUBudgetExceeded(BaseException):
    """Code spent its CPU budget.  Not an ``Exception``, so neither a test nor
    hypothesis catches it: hypothesis stops at once, shrinking included, and
    pytest reports the test failed and goes on to the next."""


@contextlib.contextmanager
def cpu_budget(seconds: float, what: str = "the test"):
    """Raises CPUBudgetExceeded in the block once it has spent ``seconds`` of
    this process's CPU time (``ITIMER_PROF``, POSIX only; the processes it
    starts are not counted), with a message naming ``what`` spent it.

    The alarm repeats every 0.1 s after the first, so code that swallows
    one (a gc callback, a ``__del__``, an ``except BaseException``) cannot
    keep the block running, and a block that fired fails with the budget's
    message whatever it raised or returned.  The timer and handler it
    replaces are restored on exit, so budgets nest.
    """
    message = f"{what} spent its CPU budget of {seconds:g} s (TEST_CPU_BUDGET in tests/conftest.py)"
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


#: The address space the test process may map: 2 GiB, more than ten times the
#: whole suite's peak in one process (``VmPeak`` about 160 MB, Python 3.11).
#: Code that runs away allocating then fails with MemoryError instead of
#: growing until something outside the tests stops it.
TEST_ADDRESS_SPACE = 2 * 1024**3


def cap_address_space(limit: int) -> None:
    """Lowers this process's soft ``RLIMIT_AS`` to ``limit`` bytes (POSIX
    only), never above the hard limit and never raising a lower soft one.
    The processes it starts afterwards inherit the cap."""
    try:
        import resource
    except ImportError:
        return  # not POSIX
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def pytest_configure(config):
    """Caps the test process's address space at TEST_ADDRESS_SPACE, once per session."""
    cap_address_space(TEST_ADDRESS_SPACE)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Runs each test in a budget of TEST_CPU_BUDGET seconds of CPU."""
    if not hasattr(signal, "setitimer"):
        return (yield)
    with cpu_budget(TEST_CPU_BUDGET):
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    """Runs each node's ``collect``, a module's import included, in a budget of
    TEST_CPU_BUDGET seconds of CPU, so a module whose import runs away fails its
    collection.  pytest makes the failed report after the budget ends, as it
    does a failed test's, so the budget's repeating alarm cannot cut it short."""
    if not hasattr(signal, "setitimer"):
        return (yield)
    collect = collector.collect

    def budgeted():
        with cpu_budget(TEST_CPU_BUDGET, f"collecting {collector.nodeid}"):
            return list(collect())

    collector.collect = budgeted
    try:
        return (yield)
    finally:
        del collector.collect


@pytest.fixture
def unproved_sectors():
    """No sector table proved before a test patches ``octagon._QPRIME``, the Q'
    that the tables are proved from.

    Clearing ``_sector_table`` is all it takes: a table reads Q' only while it
    is proved and keeps no state of it, and every other reader of Q' reads
    ``_QPRIME`` when called.
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
