"""The per-test CPU budget that ``conftest.py`` sets: code that runs away
fails with a message naming the budget, and hypothesis stops at once.

Each test runs a short budget of its own inside the one the hook set; the
hook's timer and handler come back after it.
"""

import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TEST_CPU_BUDGET, CPUBudgetExceeded, cpu_budget

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="POSIX timers only")


def _spin():
    while True:
        pass


def test_each_test_runs_under_the_budget():
    remaining, interval = signal.getitimer(signal.ITIMER_PROF)
    # the kernel rounds the timer up to its clock tick
    assert abs(remaining - TEST_CPU_BUDGET) < 1 and abs(interval - 0.1) < 0.05
    with pytest.raises(CPUBudgetExceeded):
        with cpu_budget(0.05):
            _spin()
    assert abs(signal.getitimer(signal.ITIMER_PROF)[0] - remaining) < 1


def _swallowed():
    try:
        _spin()
    except CPUBudgetExceeded:
        pass


def _swallowed_then_spin():
    _swallowed()
    _spin()


def _replaced():
    try:
        _spin()
    except CPUBudgetExceeded:
        raise SystemError("AST constructor recursion depth mismatch") from None


@pytest.mark.parametrize(
    "runaway",
    [_spin, _swallowed, _swallowed_then_spin, _replaced],
    ids=["spins", "swallows the alarm", "swallows the alarm and spins", "raises another error"],
)
def test_a_runaway_block_fails_naming_the_budget(runaway):
    with pytest.raises(CPUBudgetExceeded, match="CPU budget of 0.05 s"):
        with cpu_budget(0.05):
            runaway()


def test_the_budget_stops_hypothesis_shrinking():
    calls = []

    @settings(database=None, deadline=None)
    @given(st.integers())
    def runaway(n):
        calls.append(n)
        assert len(calls) > 1  # the first example fails; every call after it runs away
        _spin()

    with pytest.raises(CPUBudgetExceeded):
        with cpu_budget(0.05):
            runaway()
    assert len(calls) == 2
