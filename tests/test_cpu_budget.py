"""The CPU budgets and the memory cap that ``conftest.py`` sets: code that runs
away in a test or in collection fails with a message naming the budget, and
hypothesis stops at once; an allocation past the cap raises MemoryError.

Each test runs a short budget of its own inside the one the hook set; the
hook's timer and handler come back after it.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    TEST_ADDRESS_SPACE,
    TEST_CPU_BUDGET,
    CPUBudgetExceeded,
    cap_address_space,
    cpu_budget,
)

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


class _Spinning(pytest.Collector):
    def collect(self):
        _spin()


def test_a_collection_that_runs_away_fails_naming_collection(request, monkeypatch):
    monkeypatch.setattr(conftest, "TEST_CPU_BUDGET", 0.05)  # the hook reads it when it runs
    # a child of this module, so that the hooks of tests/conftest.py apply to it
    collector = _Spinning.from_parent(request.node.parent, name="spinning")
    report = collector.ihook.pytest_make_collect_report(collector=collector)
    assert report.failed and report.nodeid == collector.nodeid
    message = f"collecting {collector.nodeid} spent its CPU budget of 0.05 s"
    assert message in str(report.longrepr)


#: Caps its own address space at 256 MiB by ``cap_address_space``, then asks
#: for 512 MiB of zero bytes.  ``bytes(n)`` takes them from calloc, which does
#: not touch fresh pages (``bytearray(n)`` writes every byte), so without the
#: cap the request costs no memory.
_OVER_THE_CAP = """
from conftest import cap_address_space
cap_address_space(256 * 1024**2)
try:
    bytes(512 * 1024**2)
except MemoryError:
    print("MemoryError")
"""


def test_an_allocation_past_the_cap_raises_memory_error():
    resource = pytest.importorskip("resource")
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= TEST_ADDRESS_SPACE
    cap_address_space(2 * soft)  # never raises the cap
    assert resource.getrlimit(resource.RLIMIT_AS) == (soft, hard)
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH", "")])
    child = subprocess.run(
        [sys.executable, "-c", _OVER_THE_CAP],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "MemoryError\n", "")
