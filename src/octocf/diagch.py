"""Diagonal changes on labeled quadrangulations of hyperelliptic translation surfaces.

A labeled quadrangulation is a pair of permutations (pi_l, pi_r) of the
quadrilateral labels 1..k together with a wedge (w_l, w_r) of saddle
connection vectors per quadrilateral: the top left side of quadrilateral i is
glued to the bottom right side of quadrilateral pi_l(i), its top right side
to the bottom left side of quadrilateral pi_r(i).  The gluings force the
train-track relations

    w_{i,l} + w_{pi_l(i),r} = w_{i,r} + w_{pi_r(i),l}

whose common value is the diagonal of quadrilateral i.

Slantedness is measured against an arbitrary exact reference direction (the
vertical is just the default): a diagonal is left-slanted when it lies
counterclockwise of the reference ray.  A cycle of pi_r all of whose
diagonals are left-slanted supports a staircase move replacing every left
side by the diagonal; symmetrically a cycle of pi_l with all diagonals
right-slanted replaces the right sides.  Both moves act linearly on the
2k-tuple of wedge vectors by a unipotent nonnegative integer matrix.

Horizontal saddle connections are legal; a parallel diagonal means the
reference direction points at a singularity.  That is a terminal state, which
:meth:`LabeledQuadrangulation.apply` reports by raising
:class:`HitsSingularity` rather than a wrong-slant error.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import intmat
from .farey import Direction
from .numerics import Mat2, QuadNum, Vec2

__all__ = [
    "Side",
    "Slant",
    "CombDatum",
    "Wedge",
    "StaircaseMove",
    "LabeledQuadrangulation",
    "TrainTrackError",
    "QuadrangulationError",
    "MoveNotAvailableError",
    "HitsSingularity",
    "elementary_matrix",
    "perm_cycles",
    "perm_compose",
    "perm_inverse",
    "perm_conjugate",
]


class TrainTrackError(ValueError):
    """Wedge vectors violating the train-track relations (corrupted state)."""


class QuadrangulationError(ValueError):
    """Geometrically invalid quadrangulation data."""


class MoveNotAvailableError(ValueError):
    """A staircase move executed while not well slanted (caller logic error)."""


class HitsSingularity(MoveNotAvailableError):
    """A diagonal parallel to the reference direction: a terminal state."""

    def __init__(self, label: int):
        super().__init__(f"parallel diagonal in quadrilateral {label}")
        self.label = label


# -- permutations as 1-indexed image tuples ---------------------------------


def perm_check(pi: tuple[int, ...]) -> None:
    k = len(pi)
    if sorted(pi) != list(range(1, k + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{k}")


def perm_cycles(pi: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition; each cycle starts at its least element."""
    seen = set()
    cycles = []
    for start in range(1, len(pi) + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        j = pi[start - 1]
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = pi[j - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles)


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, img in enumerate(p, start=1):
        inv[img - 1] = i
    return tuple(inv)


def perm_conjugate(sigma: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """sigma o p o sigma^{-1}, the relabeling action on gluing data."""
    return perm_compose(perm_compose(sigma, p), perm_inverse(sigma))


class Side(Enum):
    """Which permutation's cycle a staircase move runs along."""

    PI_R = "pi_r"  # left-slanted diagonals, left vectors updated
    PI_L = "pi_l"  # right-slanted diagonals, right vectors updated


class Slant(Enum):
    LEFT = 1
    RIGHT = -1
    PARALLEL = 0


@dataclass(frozen=True)
class CombDatum:
    """The gluing permutations of a labeled quadrangulation."""

    k: int
    pi_l: tuple[int, ...]
    pi_r: tuple[int, ...]

    def __post_init__(self):
        if self.k < 1 or len(self.pi_l) != self.k or len(self.pi_r) != self.k:
            raise ValueError("permutation length must equal k")
        perm_check(self.pi_l)
        perm_check(self.pi_r)

    def cycles(self, side: Side) -> tuple[tuple[int, ...], ...]:
        return perm_cycles(self.pi_r if side is Side.PI_R else self.pi_l)

    def relabeled(self, sigma: tuple[int, ...]) -> "CombDatum":
        return CombDatum(
            self.k, perm_conjugate(sigma, self.pi_l), perm_conjugate(sigma, self.pi_r)
        )

    def swapped(self) -> "CombDatum":
        return CombDatum(self.k, self.pi_r, self.pi_l)

    def to_json(self) -> dict:
        return {"k": self.k, "pi_l": list(self.pi_l), "pi_r": list(self.pi_r)}


@dataclass(frozen=True)
class Wedge:
    """A pair of saddle connections straddling the reference direction."""

    l: Vec2
    r: Vec2

    def cone_contains(self, d: Direction, strict: bool = True) -> bool:
        sl = d.vector.cross(self.l).sign()
        sr = d.vector.cross(self.r).sign()
        if strict:
            return sl > 0 > sr
        return sl >= 0 >= sr

    def to_json(self) -> dict:
        return {"l": self.l.to_json(), "r": self.r.to_json()}


def _slot(i: int, eps: int) -> int:
    return 2 * (i - 1) + eps


@lru_cache(maxsize=64)  # the octagon's sector words use 14 entries
def elementary_matrix(
    comb: CombDatum, cycle: tuple[int, ...], side: Side
) -> intmat.IntMat:
    """The 2k x 2k unipotent matrix of the staircase move along ``cycle``.

    For a cycle of pi_r the row of (i,l) gains a one in column (pi_l(i),r)
    for every i in the cycle; for a cycle of pi_l the row of (i,r) gains a
    one in column (pi_r(i),l).  Cached: it depends on the gluing data alone.
    """
    start = cycle.index(min(cycle))
    normalized = cycle[start:] + cycle[:start]
    if normalized not in comb.cycles(side):
        raise ValueError(f"{cycle} is not a cycle of {side.value}")
    if side is Side.PI_R:
        entries = [(_slot(i, 0), _slot(comb.pi_l[i - 1], 1)) for i in cycle]
    else:
        entries = [(_slot(i, 1), _slot(comb.pi_r[i - 1], 0)) for i in cycle]
    return intmat.elementary(2 * comb.k, entries)


def _doubled_area(w: Wedge, diagonal: Vec2) -> QuadNum:
    """Twice the area of the quadrilateral with wedge ``w`` and ``diagonal``."""
    return w.r.cross(diagonal) + diagonal.cross(w.l)


@dataclass(frozen=True)
class StaircaseMove:
    """A well-slanted staircase move candidate: a cycle with its matrix."""

    side: Side
    cycle: tuple[int, ...]
    matrix: intmat.IntMat

    def __str__(self) -> str:
        return f"{self.side.value}-cycle{self.cycle}"


@dataclass(frozen=True)
class LabeledQuadrangulation:
    """Immutable diagonal-changes state: gluing data, wedges, reference ray."""

    comb: CombDatum
    wedges: tuple[Wedge, ...]
    ref_dir: Direction

    def __post_init__(self):
        if len(self.wedges) != self.comb.k:
            raise QuadrangulationError("need one wedge per quadrilateral")
        for i in range(1, self.comb.k + 1):
            w = self.wedges[i - 1]
            left_path = self.diagonal(i)
            right_path = w.r + self.wedges[self.comb.pi_r[i - 1] - 1].l
            if left_path != right_path:
                raise TrainTrackError(
                    f"train-track relation fails at quadrilateral {i}: "
                    f"{left_path} != {right_path}"
                )
            if w.r.cross(w.l).sign() <= 0:
                raise QuadrangulationError(f"wedge {i} does not open a positive cone")
            if _doubled_area(w, left_path).sign() <= 0:
                raise QuadrangulationError(f"quadrilateral {i} has non-positive area")
            if not w.cone_contains(self.ref_dir, strict=False):
                raise QuadrangulationError(
                    f"reference direction leaves the wedge cone of quadrilateral {i}"
                )

    # -- basic geometry ------------------------------------------------------

    def diagonal(self, i: int) -> Vec2:
        """The left train-track path of quadrilateral i (checked at construction)."""
        return self.wedges[i - 1].l + self.wedges[self.comb.pi_l[i - 1] - 1].r

    def total_area(self) -> QuadNum:
        doubled = (_doubled_area(w, self.diagonal(i)) for i, w in enumerate(self.wedges, 1))
        return sum(doubled, QuadNum(0)) / 2

    def slant(self, i: int) -> Slant:
        return Slant(self.ref_dir.vector.cross(self.diagonal(i)).sign())

    def strictly_straddled(self) -> bool:
        return all(w.cone_contains(self.ref_dir, strict=True) for w in self.wedges)

    # -- moves ----------------------------------------------------------------

    def cycle_is_well_slanted(self, cycle: tuple[int, ...], side: Side) -> bool:
        want = Slant.LEFT if side is Side.PI_R else Slant.RIGHT
        return all(self.slant(i) is want for i in cycle)

    def available_moves(self) -> list[StaircaseMove]:
        """Every executable staircase move, pi_r cycles first, by least label."""
        moves = []
        for side in (Side.PI_R, Side.PI_L):
            for cycle in sorted(self.comb.cycles(side)):
                if self.cycle_is_well_slanted(cycle, side):
                    moves.append(
                        StaircaseMove(side, cycle, elementary_matrix(self.comb, cycle, side))
                    )
        return moves

    def apply(self, move: StaircaseMove) -> "LabeledQuadrangulation":
        """Perform a staircase move, returning the new labeled quadrangulation.

        A parallel diagonal in the cycle raises :class:`HitsSingularity`
        before any wrong slant is reported.
        """
        if elementary_matrix(self.comb, move.cycle, move.side) != move.matrix:
            raise MoveNotAvailableError(f"{move} does not match the current gluing data")
        diagonals = {i: self.diagonal(i) for i in move.cycle}
        slants = {i: Slant(self.ref_dir.vector.cross(d).sign()) for i, d in diagonals.items()}
        for i, slant in slants.items():
            if slant is Slant.PARALLEL:
                raise HitsSingularity(i)
        left = move.side is Side.PI_R  # the move replaces left sides
        want = Slant.LEFT if left else Slant.RIGHT
        if any(slant is not want for slant in slants.values()):
            raise MoveNotAvailableError(f"{move} is not well slanted")
        wedges = list(self.wedges)
        pi_l, pi_r = list(self.comb.pi_l), list(self.comb.pi_r)
        for i in move.cycle:
            w = self.wedges[i - 1]
            if left:
                wedges[i - 1] = Wedge(diagonals[i], w.r)
                pi_l[i - 1] = self.comb.pi_l[self.comb.pi_r[i - 1] - 1]
            else:
                wedges[i - 1] = Wedge(w.l, diagonals[i])
                pi_r[i - 1] = self.comb.pi_r[self.comb.pi_l[i - 1] - 1]
        comb = CombDatum(self.comb.k, tuple(pi_l), tuple(pi_r))
        return LabeledQuadrangulation(comb, tuple(wedges), self.ref_dir)

    # -- bookkeeping transformations -------------------------------------------

    def relabeled(self, sigma: tuple[int, ...]) -> "LabeledQuadrangulation":
        """Rename quadrilateral i to sigma(i); pure bookkeeping."""
        perm_check(sigma)
        new_wedges = [None] * self.comb.k
        for i in range(1, self.comb.k + 1):
            new_wedges[sigma[i - 1] - 1] = self.wedges[i - 1]
        return LabeledQuadrangulation(
            self.comb.relabeled(sigma), tuple(new_wedges), self.ref_dir
        )

    def transformed(self, m: Mat2) -> "LabeledQuadrangulation":
        """Apply a linear map to all wedge vectors and the reference direction.

        An orientation-reversing map exchanges left and right, so the wedge
        slots and the two gluing permutations are swapped to keep the data
        well formed.
        """
        reversing = m.det().sign() < 0
        wedges = []
        for w in self.wedges:
            l, r = m.apply(w.l), m.apply(w.r)
            wedges.append(Wedge(r, l) if reversing else Wedge(l, r))
        comb = self.comb.swapped() if reversing else self.comb
        return LabeledQuadrangulation(
            comb, tuple(wedges), Direction(m.apply(self.ref_dir.vector))
        )

    def wedge_vector_tuple(self) -> tuple[Vec2, ...]:
        """The 2k wedge vectors in basis order (1,l),(1,r),...,(k,r)."""
        out = []
        for w in self.wedges:
            out.extend((w.l, w.r))
        return tuple(out)

    def to_json(self) -> dict:
        record = self.comb.to_json()
        record["wedges"] = [w.to_json() for w in self.wedges]
        record["ref_dir"] = self.ref_dir.to_json()
        return record

    @staticmethod
    def from_json(obj: dict) -> "LabeledQuadrangulation":
        comb = CombDatum(obj["k"], tuple(obj["pi_l"]), tuple(obj["pi_r"]))
        wedges = tuple(
            Wedge(Vec2.from_json(w["l"]), Vec2.from_json(w["r"])) for w in obj["wedges"]
        )
        return LabeledQuadrangulation(comb, wedges, Direction.from_json(obj["ref_dir"]))
