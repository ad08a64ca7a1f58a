"""Workload ``trace``: 50-step renormalized diagonal-changes traces.

The main research use of octocf.  One op is ``octagon.run_expansion(d, 50)``
on an interior rational direction drawn by the criterion-4 generator
(boundary and terminating directions rejected).  It loads ``diagch``
validation, the ``octagon`` executor and ``numerics``; ``farey.expand`` is
only about 5% of it.

Run as a script (``python wl_trace.py <u>``) it performs one warm-up op on
the direction with inverse slope ``u``; the benchmark times that as set-up.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

if __name__ == "__main__":
    from octocf.farey import Direction
    from octocf.numerics import QuadNum, Vec2
    from octocf.octagon import run_expansion

    run_expansion(Direction(Vec2(QuadNum(Fraction(sys.argv[1])), QuadNum(1))), 50)
    sys.exit(0)

from common import require, vector_bits
from octocf import octagon
from octocf.farey import GAMMA_NU, Direction, expand
from octocf.numerics import QuadNum, Vec2

STEPS = 50


class TraceWorkload:
    name = "trace"
    default_seed = 99
    #: Raw CPU seconds of one op at the seed commit, fast state of a 2-core VM;
    #: fixes how many ops a run of a given length makes.
    op_seconds = 0.30

    @classmethod
    def count_for(cls, seconds: float) -> int:
        return max(21, round(seconds / cls.op_seconds))

    def __init__(self, seed: int, count: int):
        rng = random.Random(seed)
        self.inputs = [interior_direction(rng, STEPS) for _ in range(count)]
        self.created: dict[int, tuple[Vec2, ...]] = {}

    def prepare(self) -> None:
        """Record, per sector, the holonomies its word creates in the Q' frame.

        By the acceleration theorem these do not depend on the direction, so
        every step of every trace must reproduce them exactly.  They are read
        off a one-step trace whose second entry is the sector.
        """
        start = GAMMA_NU[1].inverse()
        for i in range(1, 8):
            d = Direction(start.apply(octagon.sector_midpoint(i).vector))
            trace = octagon.run_expansion(d, 1)
            if trace.expansion.entries[:2] != (1, i) or len(trace.steps) != 1:
                raise RuntimeError(f"cannot reach sector {i} in one step")
            self.created[i] = _created_in_frame(trace.steps[0], GAMMA_NU[1])

    def op(self, d: Direction):
        return octagon.run_expansion(d, STEPS)

    def check(self, d: Direction, trace) -> None:
        require(trace.halted is None, f"halted: {trace.halted}")
        require(len(trace.steps) == STEPS, f"{len(trace.steps)} steps, not {STEPS}")
        entries = expand(d, STEPS + 1).entries
        require(trace.expansion.entries == entries, "entries differ from farey.expand")
        require(
            tuple(s.entry for s in trace.steps) == entries[1:],
            "step entries differ from the expansion",
        )
        frame = GAMMA_NU[entries[0]]  # original frame -> frame of the next step
        for k, step in enumerate(trace.steps, 1):
            require(
                step.state.wedge_vector_tuple() == octagon.QPRIME_VECTORS,
                f"step {k}: renormalized wedges are not Q'",
            )
            require(step.state.total_area() == octagon.OCTAGON_AREA, f"step {k}: area")
            require(
                _created_in_frame(step, frame) == self.created[step.entry],
                f"step {k}: created holonomies differ from the sector {step.entry} word",
            )
            for rec in step.records:
                for _, v in rec.new_sides:
                    require(d.vector.cross(v).sign() != 0, f"step {k}: holonomy parallel to d")
            frame = GAMMA_NU[step.entry] @ frame
            require(
                tuple(frame.apply(v) for v in step.original_wedges) == octagon.QPRIME_VECTORS,
                f"step {k}: original-frame wedges do not map onto Q'",
            )
            wedges = step.original_wedges
            for left, right in zip(wedges[0::2], wedges[1::2]):
                require(
                    d.vector.cross(left).sign() * d.vector.cross(right).sign() == -1,
                    f"step {k}: a wedge does not straddle d",
                )

    def bits(self, trace) -> int:
        return vector_bits(trace.steps[-1].original_wedges)

    def setup_argv(self) -> list[str]:
        return [sys.executable, __file__, str(self.inputs[0].vector.x.a)]


def interior_direction(rng: random.Random, steps: int) -> Direction:
    """The criterion-4 generator: a rational direction whose first ``steps``
    Farey steps neither hit a sector boundary nor terminate."""
    while True:
        u = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
        d = Direction(Vec2(QuadNum(u), QuadNum(1)))
        probe = expand(d, steps + 1)
        if not probe.boundary_hit and not probe.terminating:
            return d


def _created_in_frame(step, frame) -> tuple[Vec2, ...]:
    """The step's created holonomies, mapped from the original frame by ``frame``."""
    return tuple(frame.apply(v) for rec in step.records for _, v in rec.new_sides)
