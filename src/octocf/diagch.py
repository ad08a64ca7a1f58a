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
2k-tuple of wedge vectors by a unipotent nonnegative integer matrix, and a
relabeling by a permutation matrix, both in the wedge basis of :func:`_slot`.

Horizontal saddle connections are legal; a parallel diagonal means the
reference direction points at a singularity.  That is a terminal state, which
:meth:`LabeledQuadrangulation.apply` reports by raising
:class:`HitsSingularity` rather than a wrong-slant error.  The module needs
only :mod:`octocf.numerics` and :mod:`octocf.intmat`, not the Farey map.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from . import intmat
from .numerics import (
    Direction, Mat2, QuadNum, Vec2, _FrozenValue, _cross_ints, _cross_sign, _int_arg,
    _object_new,
)

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
    "relabeling_matrix",
    "perm_cycles",
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
    """The one permutation rule: ``pi`` holds each of the ints 1..len(pi) once."""
    k = len(pi)
    if any(type(i) is not int for i in pi) or sorted(pi) != list(range(1, k + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{k}")  # True == 1 == 1.0


def perm_cycles(pi: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition; each cycle starts at its least element.  The walk
    from ``start`` returns to it because ``pi`` is checked to be a permutation."""
    perm_check(pi)
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


def perm_conjugate(sigma: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    """sigma o p o sigma^{-1}, the relabeling action on gluing data: sigma(i) -> sigma(p(i))."""
    perm_check(sigma)
    perm_check(p)
    if len(sigma) != len(p):
        raise ValueError(f"{sigma} does not relabel 1..{len(p)}")
    out = [0] * len(p)
    for s, j in zip(sigma, p):
        out[s - 1] = sigma[j - 1]
    return tuple(out)


class Slant(Enum):
    LEFT = 1
    RIGHT = -1
    PARALLEL = 0


class Side(Enum):
    """Which permutation's cycle a staircase move runs along: a pi_r move replaces
    the left sides (``slot`` 0) and needs left-slanted diagonals (``slant``), and
    a pi_l move is its mirror."""

    PI_R = "pi_r"
    PI_L = "pi_l"

    @property
    def slot(self) -> int:
        return 0 if self is Side.PI_R else 1

    @property
    def slant(self) -> Slant:
        return Slant(1 - 2 * self.slot)


class CombDatum(_FrozenValue):
    """The gluing permutations ``pi_l`` and ``pi_r`` of the labels 1..``k``."""

    __slots__ = ("k", "pi_l", "pi_r")

    def __post_init__(self):
        _int_arg(self.k, "k", 1)
        if len(self.pi_l) != self.k or len(self.pi_r) != self.k:
            raise ValueError("permutation length must equal k")
        perm_check(self.pi_l)
        perm_check(self.pi_r)

    def walked_and_other(self, side: Side) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The permutation a ``side`` move walks, and the other one, which sits
        in the move's slot of ``(pi_l, pi_r)``: pi_r and pi_l for a pi_r move."""
        perms = (self.pi_l, self.pi_r)
        return perms[1 - side.slot], perms[side.slot]

    def cycles(self, side: Side) -> tuple[tuple[int, ...], ...]:
        return perm_cycles(self.walked_and_other(side)[0])

    def relabeled(self, sigma: tuple[int, ...]) -> "CombDatum":
        return CombDatum(
            self.k, perm_conjugate(sigma, self.pi_l), perm_conjugate(sigma, self.pi_r)
        )

    def swapped(self) -> "CombDatum":
        return CombDatum(self.k, self.pi_r, self.pi_l)

    def after_move(self, side: Side, cycle: tuple[int, ...]) -> "CombDatum":
        """The gluing data after the staircase move along ``cycle``.

        With p the walked permutation and o the other, o(i) becomes o(p(i))
        on the cycle: a pi_r move sets pi_l(i) to pi_l(pi_r(i)).
        """
        p, o = self.walked_and_other(side)
        moved = list(o)
        for i in cycle:
            moved[i - 1] = o[p[i - 1] - 1]
        perms = [self.pi_l, self.pi_r]
        perms[side.slot] = tuple(moved)
        return CombDatum(self.k, *perms)

    def to_json(self) -> dict:
        return {"k": self.k, "pi_l": list(self.pi_l), "pi_r": list(self.pi_r)}


class Wedge(_FrozenValue):
    """A pair of saddle connections ``l`` and ``r`` straddling the reference direction."""

    __slots__ = ("l", "r")

    def cone_contains(self, d: Direction) -> bool:
        """Whether ``d`` lies in the closed cone from ``r`` counterclockwise to ``l``."""
        return _cross_sign(d.vector, self.l) >= 0 >= _cross_sign(d.vector, self.r)

    def to_json(self) -> dict:
        return {"l": self.l.to_json(), "r": self.r.to_json()}


def _vec_ints(v: Vec2) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The canonical ints (p, q, den) of both coordinates of ``v``."""
    return v.x.ints, v.y.ints


def _add(a: tuple[int, int, int], b: tuple[int, int, int], sign: int) -> tuple[int, int, int]:
    """a + sign*b on the ints (p, q, den) of (p + q*sqrt(2))/den, left unreduced."""
    (p1, q1, d1), (p2, q2, d2) = a, b
    if d1 == d2:
        return p1 + sign * p2, q1 + sign * q2, d1
    return p1 * d2 + sign * p2 * d1, q1 * d2 + sign * q2 * d1, d1 * d2


def _equal(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether unreduced ints (p, q, den) denote one number: cross-multiplied."""
    (p1, q1, d1), (p2, q2, d2) = a, b
    return p1 * d2 == p2 * d1 and q1 * d2 == q2 * d1


def _slot(i: int, eps: int) -> int:
    """The index of side eps (0: l, 1: r) of quadrilateral i in the basis (1,l),(1,r),...,(k,r)."""
    return 2 * (i - 1) + eps


@lru_cache(maxsize=64)  # the octagon's sector words use 14 entries
def elementary_matrix(
    comb: CombDatum, cycle: tuple[int, ...], side: Side
) -> intmat.IntMat:
    """The 2k x 2k unipotent matrix of the staircase move along ``cycle``.

    With s the move's slot and o the other permutation, the row of (i,s)
    gains a one in column (o(i),1-s) for every i in the cycle.  Cached: it
    depends on the gluing data alone.
    """
    start = cycle.index(min(cycle))
    normalized = cycle[start:] + cycle[:start]
    if normalized not in comb.cycles(side):
        raise ValueError(f"{cycle} is not a cycle of {side.value}")
    s, other = side.slot, comb.walked_and_other(side)[1]
    entries = [(_slot(i, s), _slot(other[i - 1], 1 - s)) for i in cycle]
    return intmat.elementary(2 * comb.k, entries)


def relabeling_matrix(sigma: tuple[int, ...], reflect: bool) -> intmat.IntMat:
    """The 2k x 2k label matrix of ``relabeled(sigma)``, after a reflection's
    ``transformed`` (which exchanges l and r) when ``reflect`` is set: the row
    of (sigma(i), eps), eps flipped under ``reflect``, is the unit row of (i, eps)."""
    perm_check(sigma)
    unit = intmat.identity(2 * len(sigma))
    rows = list(unit)  # every row is replaced
    for i, s in enumerate(sigma, 1):
        for eps in (0, 1):
            rows[_slot(s, eps ^ reflect)] = unit[_slot(i, eps)]
    return tuple(rows)


class StaircaseMove(_FrozenValue):
    """A well-slanted staircase move candidate: a ``side``'s ``cycle`` with its ``matrix``."""

    __slots__ = ("side", "cycle", "matrix")

    def __str__(self) -> str:
        return f"{self.side.value}-cycle{self.cycle}"


class LabeledQuadrangulation(_FrozenValue):
    """Immutable diagonal-changes state: gluing data ``comb``, one of the
    ``wedges`` per quadrilateral, and the reference ray ``ref_dir``."""

    __slots__ = ("comb", "wedges", "ref_dir")

    def __post_init__(self):
        """Checks each quadrilateral on the canonical ints of its vectors: sums
        stay unreduced, are compared cross-multiplied and signed by
        :func:`_cross_ints`, so no QuadNum, Vec2 or gcd is made but to word a
        refusal."""
        if len(self.wedges) != self.comb.k:
            raise QuadrangulationError("need one wedge per quadrilateral")
        sides = [(_vec_ints(w.l), _vec_ints(w.r)) for w in self.wedges]
        ux, uy = _vec_ints(self.ref_dir.vector)
        for i, ((lx, ly), (rx, ry)), jl, jr in zip(
            range(1, self.comb.k + 1), sides, self.comb.pi_l, self.comb.pi_r
        ):
            (jx, jy), (ex, ey) = sides[jl - 1][1], sides[jr - 1][0]
            dx, dy = _add(lx, jx, 1), _add(ly, jy, 1)  # the diagonal D, the left path
            if not (_equal(dx, _add(rx, ex, 1)) and _equal(dy, _add(ry, ey, 1))):
                raise TrainTrackError(
                    f"train-track relation fails at quadrilateral {i}: {self.diagonal(i)} "
                    f"!= {self.wedges[i - 1].r + self.wedges[jr - 1].l}"
                )
            if _cross_ints(rx, ry, lx, ly) <= 0:
                raise QuadrangulationError(f"wedge {i} does not open a positive cone")
            # twice the area is cross(r, D) + cross(D, l) = cross(r - l, D)
            if _cross_ints(_add(rx, lx, -1), _add(ry, ly, -1), dx, dy) <= 0:
                raise QuadrangulationError(f"quadrilateral {i} has non-positive area")
            if not _cross_ints(ux, uy, lx, ly) >= 0 >= _cross_ints(ux, uy, rx, ry):
                raise QuadrangulationError(
                    f"reference direction leaves the wedge cone of quadrilateral {i}"
                )

    # -- basic geometry ------------------------------------------------------

    def diagonal(self, i: int) -> Vec2:
        """The left train-track path of quadrilateral i (checked at construction)."""
        return self.wedges[i - 1].l + self.wedges[self.comb.pi_l[i - 1] - 1].r

    def total_area(self) -> QuadNum:
        doubled = ((w.r - w.l).cross(self.diagonal(i)) for i, w in enumerate(self.wedges, 1))
        return sum(doubled, QuadNum(0)) / 2

    def slant(self, i: int) -> Slant:
        return Slant(_cross_sign(self.ref_dir.vector, self.diagonal(i)))

    # -- moves ----------------------------------------------------------------

    def cycle_is_well_slanted(self, cycle: tuple[int, ...], side: Side) -> bool:
        return all(self.slant(i) is side.slant for i in cycle)

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
        slants = {i: Slant(_cross_sign(self.ref_dir.vector, d)) for i, d in diagonals.items()}
        for i, slant in slants.items():
            if slant is Slant.PARALLEL:
                raise HitsSingularity(i)
        if any(slant is not move.side.slant for slant in slants.values()):
            raise MoveNotAvailableError(f"{move} is not well slanted")
        wedges = list(self.wedges)
        for i in move.cycle:
            sides = [wedges[i - 1].l, wedges[i - 1].r]
            sides[move.side.slot] = diagonals[i]
            wedges[i - 1] = Wedge(*sides)
        comb = self.comb.after_move(move.side, move.cycle)
        return LabeledQuadrangulation(comb, tuple(wedges), self.ref_dir)

    # -- bookkeeping transformations -------------------------------------------

    def relabeled(self, sigma: tuple[int, ...]) -> "LabeledQuadrangulation":
        """Rename quadrilateral i to sigma(i); pure bookkeeping."""
        comb = self.comb.relabeled(sigma)  # refuses a sigma that does not relabel 1..k
        new_wedges = [None] * self.comb.k
        for i in range(1, self.comb.k + 1):
            new_wedges[sigma[i - 1] - 1] = self.wedges[i - 1]
        return LabeledQuadrangulation(comb, tuple(new_wedges), self.ref_dir)

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

    def _at(self, ref_dir: Direction) -> "LabeledQuadrangulation":
        """This checked state at the reference ``ref_dir``, built unchecked.  The
        precondition is that ``ref_dir`` lies in every wedge cone, the one checked
        fact that reads the reference; then the result is ``==`` to the checked one."""
        state = _object_new(LabeledQuadrangulation)
        set_comb, set_wedges, set_ref_dir = LabeledQuadrangulation._setters
        set_comb(state, self.comb)
        set_wedges(state, self.wedges)
        set_ref_dir(state, ref_dir)
        return state

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
        k, pi_l, pi_r = obj["k"], tuple(obj["pi_l"]), tuple(obj["pi_r"])
        # JSON true is a Python int, and 1.0 == 1: only exact ints are gluing data
        if any(type(n) is not int for n in (k, *pi_l, *pi_r)):
            raise ValueError("k, pi_l and pi_r must be JSON integers")
        comb = CombDatum(k, pi_l, pi_r)
        wedges = tuple(
            Wedge(Vec2.from_json(w["l"]), Vec2.from_json(w["r"])) for w in obj["wedges"]
        )
        return LabeledQuadrangulation(comb, wedges, Direction.from_json(obj["ref_dir"]))
