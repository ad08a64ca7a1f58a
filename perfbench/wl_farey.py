"""Workload ``farey``: dual expansions with long parabolic tails.

Only ``numerics`` and ``farey`` run, with long runs of the parabolic
branches 1 and 7.  This is the mechanism workload for octagon Gauss
acceleration and for caching the ``GAMMA_NU`` inverses, and the bypass
workload for table-driven traces: no ``diagch`` or ``octagon`` code runs.

An input is one criterion-3 trial: a seeded prefix of 21-36 entries and two
dual pairs built on it, each a junction entry and a 200-entry tail, one of
1s and one of 7s.  For each pair an op, on public API only, pulls the fixed
ray of the tail back through ``GAMMA_NU[s].inverse()``, asks whether the
result lies in ``reconstruct`` of both sequences, expands it, and takes the
dual expansion.  An op handles both pairs of a trial because a pair with a
tail of 1s costs about 1.4 times one with a tail of 7s: with one pair per op
the median fell in the gap between the two costs and moved 6.5% between
seeds.  Prefix lengths cycle through 21..36 instead of being drawn, for the
same reason.

Run as a script (``python wl_farey.py <prefix> <junction1> <junction7>``,
the prefix comma separated) it performs one warm-up op; the benchmark times
that as set-up.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass

from octocf import farey
from octocf.farey import GAMMA_NU, Direction
from octocf.numerics import QuadNum, Vec2

DEPTH = 200

#: Every run cycles through all prefix lengths, so that the mix of op costs,
#: which grow with the prefix, is the same for every seed.
PREFIX_LENGTHS = tuple(range(21, 37))

#: The rays fixed by the parabolic branches: theta = pi/8 (tail 1), theta = pi (tail 7).
FIXED_RAY = {1: Vec2(QuadNum(1, 1), QuadNum(1)), 7: Vec2(-1, 0)}


@dataclass(frozen=True)
class DualPair:
    prefix: tuple[int, ...]
    junction: int
    tail: int

    def sequences(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        tail = (self.tail,) * DEPTH
        return (
            self.prefix + (self.junction,) + tail,
            self.prefix + (self.junction + 1,) + tail,
        )


@dataclass(frozen=True)
class DualResult:
    direction: Direction
    in_first: bool
    in_second: bool
    expansion: object
    dual: object


def trial(prefix: tuple[int, ...], junction1: int, junction7: int) -> tuple[DualPair, DualPair]:
    return DualPair(prefix, junction1, 1), DualPair(prefix, junction7, 7)


def pull_back(entries, tail: int) -> Direction:
    """The fixed ray of ``tail`` pulled back through the inverse branches of ``entries``."""
    v = FIXED_RAY[tail]
    for s in reversed(entries):
        v = GAMMA_NU[s].inverse().apply(v)
    return Direction(v)


def run_op(pairs) -> tuple[DualResult, ...]:
    results = []
    for pair in pairs:
        seq_a, seq_b = pair.sequences()
        d = pull_back(pair.prefix + (pair.junction,), pair.tail)
        e = farey.expand(d, len(seq_a))
        results.append(DualResult(
            d,
            farey.reconstruct(seq_a).contains(d),
            farey.reconstruct(seq_b).contains(d),
            e,
            farey.dual_expansion(e),
        ))
    return tuple(results)


if __name__ == "__main__":
    prefix = tuple(int(s) for s in sys.argv[1].split(","))
    run_op(trial(prefix, int(sys.argv[2]), int(sys.argv[3])))
    sys.exit(0)

from common import require, vector_bits


class FareyWorkload:
    name = "farey"
    default_seed = 20260811
    #: Raw CPU seconds of one op at the seed commit, fast state of a 2-core VM;
    #: fixes how many ops a run of a given length makes.
    op_seconds = 0.28

    @classmethod
    def count_for(cls, seconds: float) -> int:
        lengths = len(PREFIX_LENGTHS)
        return lengths * max(2, round(seconds / (lengths * cls.op_seconds)))

    def __init__(self, seed: int, count: int):
        rng = random.Random(seed)
        offset = rng.randrange(len(PREFIX_LENGTHS))
        self.inputs: list[tuple[DualPair, DualPair]] = []
        for k in range(count):
            n = PREFIX_LENGTHS[(offset + k) % len(PREFIX_LENGTHS)]
            prefix = tuple(rng.randint(1, 7) for _ in range(n))
            self.inputs.append(trial(prefix, rng.choice((2, 4, 6)), rng.choice((1, 3, 5))))

    def prepare(self) -> None:
        pass

    def op(self, pairs) -> tuple[DualResult, ...]:
        return run_op(pairs)

    def check(self, pairs, results) -> None:
        require(len(results) == len(pairs), "a pair has no result")
        for pair, r in zip(pairs, results):
            require(r.in_first and r.in_second, "the ray is outside a reconstructed interval")
            require(r.expansion.terminating, "expansion is not terminating")
            require(r.expansion.tail == pair.tail, f"expansion tail {r.expansion.tail}")
            require(r.dual.tail == pair.tail, f"dual tail {r.dual.tail}")
            require(
                {r.expansion.entries, r.dual.entries} == set(pair.sequences()),
                "expansion and dual are not the two sequences of the pair",
            )

    def bits(self, results) -> int:
        return vector_bits([r.direction.vector for r in results])

    def setup_argv(self) -> list[str]:
        one, seven = self.inputs[0]
        return [sys.executable, __file__, ",".join(map(str, one.prefix)),
                str(one.junction), str(seven.junction)]
