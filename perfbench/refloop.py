"""The reference loop: the unit ("ref") in which the benchmark reports time.

On a shared virtual machine the same code runs at visibly different speeds
from one second to the next (a 1.7x swing between two speed states is
common on a 2-core VM).  Raw times therefore cannot carry a claim.  Every
timed operation is bracketed by one pass of a fixed pure-Python loop of
int/Fraction arithmetic, the same kind of work octocf does, and its CPU time
is divided by the mean of the two passes.  A time "in ref" is that quotient.
"""

from __future__ import annotations

import hashlib
import inspect
import resource
import time
from fractions import Fraction

REF_ROUNDS = 32

_INPUTS = tuple(
    Fraction((i * 2654435761) % (1 << 48) + 1, (i * 40503) % (1 << 24) + 1)
    for i in range(1, 49)
)


def ref_pass(rounds: int = REF_ROUNDS) -> int:
    """One pass of the reference loop; returns a checksum of its work."""
    acc = 0
    for r in range(rounds):
        x = Fraction(r + 1)
        for y in _INPUTS:
            x = x * y + y
            x = Fraction(x.numerator % (1 << 64), x.denominator % (1 << 40) | 1)
        acc = (acc * 31 + x.numerator) % (1 << 61)
    return acc


REF_CHECKSUM = 1691610853595109110


def definition() -> dict:
    """What a "ref" is, for the provenance of every result record."""
    source = inspect.getsource(ref_pass)
    return {
        "unit": "ref = CPU time of one ref_pass() bracketing the operation",
        "rounds": REF_ROUNDS,
        "inputs": "Fraction((i*2654435761) % 2**48 + 1, (i*40503) % 2**24 + 1), i = 1..48",
        "checksum": REF_CHECKSUM,
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
    }


def children_cpu() -> float:
    """CPU seconds (user + system) of all waited-for child processes so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class RefClock:
    """Times operations in ref, keeping every raw reference pass it made."""

    def __init__(self) -> None:
        self.passes: list[float] = []

    def ref(self) -> float:
        start = time.process_time()
        checksum = ref_pass()
        elapsed = time.process_time() - start
        if checksum != REF_CHECKSUM:
            raise RuntimeError(f"reference loop checksum {checksum} != {REF_CHECKSUM}")
        self.passes.append(elapsed)
        return elapsed

    def timed(self, fn, clock=time.process_time):
        """Run ``fn()`` between two reference passes.

        Returns ``(result, raw_seconds, ref)`` where ``raw_seconds`` is the
        change of ``clock`` across the call (this process's CPU time by
        default; pass :func:`children_cpu` for work done in a subprocess)
        and ``ref`` is that time over the mean of the two passes.
        """
        before = self.ref()
        start = clock()
        result = fn()
        raw = clock() - start
        after = self.ref()
        return result, raw, raw / ((before + after) / 2)
