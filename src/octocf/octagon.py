"""The regular-octagon surface: base quadrangulations and the acceleration verifier.

The translation surface glued from opposite sides of a regular octagon with
unit sides has genus 2, one cone point of angle 6*pi, and area 2*(1+sqrt2).
It carries a quadrangulation ``Q0`` into three parallelograms adapted to
nearly-horizontal directions, and its image ``Q' = gamma * Q0`` straddles
every direction with angle strictly between pi/8 and pi.

The six wedge vectors of Q' are pinned down (up to scale, fixed by the area)
as the unique simultaneous fixed vector of the seven renormalization maps
``gamma*nu_i . A_i``; :func:`derive_qprime_vectors_fixed_point` recomputes
them from scratch and the frozen constants below are regeneration-tested
against it.  A second, independent derivation enumerates short saddle
connections of the octagon by exact ray tracing and searches for compatible
quadrangulation data; see :func:`enumerate_saddle_connections`.

For a direction theta strictly inside sector i, :func:`verify_sector` runs
sector i's move word on Q' by actual staircase moves, checks every move is
well slanted, that the accumulated label matrix is exactly A_i, and that
applying ``gamma*nu_i`` (composed with the reflection when the word flipped
orientation) carries the final wedge vectors back onto Q' on the nose.  That
exact round trip, over all sectors, is the machine content of the
acceleration theorem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations as _all_permutations

from . import intmat
from .diagch import (
    CombDatum,
    HitsSingularity,
    LabeledQuadrangulation,
    MoveNotAvailableError,
    QuadrangulationError,
    Side,
    StaircaseMove,
    TrainTrackError,
    Wedge,
    elementary_matrix,
    perm_conjugate,
)
from .farey import (
    GAMMA,
    GAMMA_NU,
    GAMMA_NU_INV,
    NU,
    SECTOR_BOUNDS,
    Direction,
    FareyExpansion,
    TiePolicy,
    classify,
    expand,
)
from .h2moves import (
    LetterToken,
    Q_PRIME_PI_L,
    Q_PRIME_PI_R,
    RelabelToken,
    SymmetryToken,
    sector_matrix,
    sector_raw_plan,
)
from .numerics import Mat2, QuadNum, Vec2

__all__ = [
    "OCTAGON_AREA",
    "QPRIME_COMB",
    "QPRIME_VECTORS",
    "Q0_COMB",
    "Q0_VECTORS",
    "REFLECTION",
    "qprime",
    "q_zero",
    "initial_quadrangulation",
    "sector_midpoint",
    "sector_sample_directions",
    "SectorReport",
    "TheoremReport",
    "verify_sector",
    "verify_theorem",
    "run_expansion",
    "sector_move_states",
    "ExpansionTrace",
    "TraceStep",
    "MoveRecord",
    "derive_qprime_vectors_fixed_point",
    "OctagonModel",
    "octagon_vertices",
    "is_saddle_connection",
    "CrossingBudgetExhausted",
    "MAX_CROSSINGS",
    "enumerate_saddle_connections",
]

_H = Fraction(1, 2)

#: Area of the unit-side regular octagon.
OCTAGON_AREA = QuadNum(2, 2)

#: The vertical-axis reflection (x, y) -> (-x, y).
REFLECTION = Mat2(-1, 0, 0, 1)

QPRIME_COMB = CombDatum(3, Q_PRIME_PI_L, Q_PRIME_PI_R)

#: Wedge vectors of Q' in basis order (1,l),(1,r),(2,l),(2,r),(3,l),(3,r).
#: All three left sides are horizontal saddle connections (a unit side and
#: twice the long horizontal diagonal); the right sides are the short
#: diagonal and the long diagonal through the center.
QPRIME_VECTORS: tuple[Vec2, ...] = (
    Vec2(-1, 0),
    Vec2(QuadNum(1, _H), QuadNum(0, _H)),
    Vec2(QuadNum(-1, -1), 0),
    Vec2(QuadNum(1, _H), QuadNum(0, _H)),
    Vec2(QuadNum(-1, -1), 0),
    Vec2(QuadNum(1, 1), QuadNum(1)),
)

Q0_COMB = CombDatum(3, Q_PRIME_PI_R, Q_PRIME_PI_L)

#: Wedge vectors of Q0 = gamma * Q', with left/right exchanged because gamma
#: reverses orientation.
Q0_VECTORS: tuple[Vec2, ...] = tuple(
    GAMMA.apply(QPRIME_VECTORS[2 * i + (1 - eps)]) for i in range(3) for eps in (0, 1)
)


def _wedges(vectors) -> tuple[Wedge, ...]:
    return tuple(Wedge(vectors[2 * i], vectors[2 * i + 1]) for i in range(3))


def qprime(ref_dir: Direction) -> LabeledQuadrangulation:
    """Q' referenced at ``ref_dir``, which must have angle in [pi/8, pi]."""
    return LabeledQuadrangulation(QPRIME_COMB, _wedges(QPRIME_VECTORS), ref_dir)


def q_zero(ref_dir: Direction) -> LabeledQuadrangulation:
    """Q0, the base quadrangulation for directions in sector 0."""
    return LabeledQuadrangulation(Q0_COMB, _wedges(Q0_VECTORS), ref_dir)


def sector_midpoint(j: int) -> Direction:
    """An exact direction strictly inside sector j."""
    return sector_sample_directions(j, 1)[0]


def sector_sample_directions(j: int, count: int = 3) -> list[Direction]:
    """Exact interior sample directions of sector j (midpoint first).

    Finite sectors are sampled at dyadic fractions of the u-interval; the
    two sectors touching u = infinity are sampled by stepping away from
    their finite endpoint.
    """
    if j not in range(8):
        raise ValueError("sector index must be 0..7")
    if count < 1:
        raise ValueError("count must be >= 1")
    fracs = _midpoint_first_fractions(count)
    if j == 0:
        base = SECTOR_BOUNDS[0]
        return [Direction(Vec2(base + QuadNum(f), QuadNum(1))) for f in _steps(count)]
    if j == 7:
        base = SECTOR_BOUNDS[6]
        return [Direction(Vec2(base - QuadNum(f), QuadNum(1))) for f in _steps(count)]
    hi, lo = SECTOR_BOUNDS[j - 1], SECTOR_BOUNDS[j]
    return [Direction(Vec2(lo + (hi - lo) * QuadNum(f), QuadNum(1))) for f in fracs]


def _midpoint_first_fractions(count: int) -> list[Fraction]:
    pool = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
    d = 8
    while len(pool) < count:
        pool.extend(Fraction(n, d) for n in range(1, d, 2) if Fraction(n, d) not in pool)
        d *= 2
    return pool[:count]


def _steps(count: int) -> list[Fraction]:
    pool = [Fraction(1), Fraction(1, 2), Fraction(2)]
    n = 3
    while len(pool) < count:
        pool.append(Fraction(n))
        n += 1
    return pool[:count]


def initial_quadrangulation(s0: int, ref_dir: Direction | None = None) -> LabeledQuadrangulation:
    """The starting quadrangulation ``nu_{s0}^{-1} Q0`` for directions in sector s0."""
    if s0 not in range(8):
        raise ValueError("sector index must be 0..7")
    if ref_dir is None:
        ref_dir = sector_midpoint(s0)
    if s0 not in classify(ref_dir):
        raise ValueError(f"reference direction {ref_dir} is not in sector {s0}")
    base_ref = Direction(NU[s0].apply(ref_dir.vector))
    return q_zero(base_ref).transformed(NU[s0].inverse())


# -- executing sector words ----------------------------------------------------


@dataclass(frozen=True)
class MoveRecord:
    """One executed staircase move with the diagonals it created."""

    side: Side
    cycle: tuple[int, ...]
    new_sides: tuple[tuple[int, Vec2], ...]  # (label, holonomy in the original frame)


class SectorWordError(ValueError):
    """A sector word that cannot be executed on the current state."""


def _closure_relabel(comb: CombDatum) -> tuple[int, ...]:
    """The unique relabeling returning the swapped gluing data to Q'."""
    solutions = [
        sigma
        for sigma in map(tuple, _all_permutations(range(1, comb.k + 1)))
        if perm_conjugate(sigma, comb.pi_r) == Q_PRIME_PI_L
        and perm_conjugate(sigma, comb.pi_l) == Q_PRIME_PI_R
    ]
    if len(solutions) != 1:
        raise SectorWordError(f"no unique symmetry relabeling from {comb}")
    return solutions[0]


def _partition_marked(comb: CombDatum, side: Side, marked) -> list[tuple[int, ...]]:
    chosen = [c for c in comb.cycles(side) if set(c) <= set(marked)]
    covered = set()
    for c in chosen:
        covered |= set(c)
    if covered != set(marked):
        raise SectorWordError(
            f"marked set {set(marked)} is not a union of {side.value} cycles of {comb}"
        )
    return chosen


@dataclass
class _WordRun:
    """Mutable bookkeeping while executing one sector word."""

    state: LabeledQuadrangulation
    to_original: Mat2 = field(default_factory=Mat2.identity)  # current -> original frame
    parity: int = 0
    matrix: intmat.IntMat = field(default_factory=lambda: intmat.identity(6))
    records: list[MoveRecord] = field(default_factory=list)

    def execute_token(self, token) -> None:
        if isinstance(token, LetterToken):
            for cycle in _partition_marked(self.state.comb, token.side, token.marked):
                self._staircase(token.side, cycle)
        elif isinstance(token, RelabelToken):
            self._relabel(token.sigma)
        elif isinstance(token, SymmetryToken):
            sigma = _closure_relabel(self.state.comb)
            self.state = self.state.transformed(REFLECTION).relabeled(sigma)
            self.to_original = self.to_original @ REFLECTION
            self.matrix = intmat.matmul(
                intmat.block_perm_matrix(sigma, swap=True), self.matrix
            )
            self.parity ^= 1
        else:
            raise TypeError(f"unknown token {token!r}")

    def _relabel(self, sigma: tuple[int, ...]) -> None:
        self.state = self.state.relabeled(sigma)
        self.matrix = intmat.matmul(intmat.block_perm_matrix(sigma), self.matrix)

    def _staircase(self, side: Side, cycle: tuple[int, ...]) -> None:
        move = StaircaseMove(side, cycle, elementary_matrix(self.state.comb, cycle, side))
        self.state = self.state.apply(move)
        pick = (lambda w: w.l) if side is Side.PI_R else (lambda w: w.r)
        created = tuple(
            (i, self.to_original.apply(pick(self.state.wedges[i - 1]))) for i in cycle
        )
        self.matrix = intmat.matmul(move.matrix, self.matrix)
        self.records.append(MoveRecord(side, cycle, created))

    def renormalize(self, sector: int) -> None:
        m, m_inv = GAMMA_NU[sector], GAMMA_NU_INV[sector]
        if self.parity:
            m, m_inv = m @ REFLECTION, REFLECTION @ m_inv
        self.state = self.state.transformed(m)
        self.to_original = self.to_original @ m_inv
        self.parity = 0


# -- the verifier ----------------------------------------------------------------


@dataclass(frozen=True)
class SectorReport:
    sector: int
    direction: Direction
    passed: bool
    moves_available: bool
    matrix_equal: bool
    closes_up: bool
    parity: int
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "sector": self.sector,
            "u": str(self.direction.u()),
            "passed": self.passed,
            "moves_available": self.moves_available,
            "matrix_equal": self.matrix_equal,
            "closes_up": self.closes_up,
            "parity": self.parity,
            "failure": self.failure,
        }


def verify_sector(i: int, direction: Direction) -> SectorReport:
    """Machine-check one sector of the acceleration theorem at ``direction``.

    Runs sector i's word on Q' with the given reference direction, asserting
    that (1) every staircase move is well slanted when executed, (2) the
    accumulated label matrix equals A_i, and (3) renormalizing by
    ``gamma*nu_i`` (with the reflection when the parity is odd) returns the
    wedge vectors exactly onto Q' with the new reference inside the image
    sectors.  Boundary directions are rejected.
    """
    if i not in range(1, 8):
        raise ValueError("sector index must be 1..7")
    if not _strictly_inside_sector(direction, i):
        raise ValueError(f"direction {direction} is not strictly inside sector {i}")
    try:
        run = _WordRun(state=qprime(direction))
        area = run.state.total_area()
        if area != OCTAGON_AREA:
            return SectorReport(
                i, direction, False, False, False, False, 0,
                f"base quadrangulation area {area} != {OCTAGON_AREA}",
            )
        for token in sector_raw_plan(i):
            run.execute_token(token)
    except (SectorWordError, MoveNotAvailableError, TrainTrackError, QuadrangulationError) as exc:
        return SectorReport(i, direction, False, False, False, False, 0, str(exc))
    parity = run.parity
    matrix_equal = run.matrix == sector_matrix(i)
    run.renormalize(i)
    closes_up, failure = _compare_vectors(run.state.wedge_vector_tuple(), QPRIME_VECTORS)
    image_ok = 0 not in classify(run.state.ref_dir)
    if not image_ok:
        failure = failure or "renormalized direction left the expanding sectors"
    passed = matrix_equal and closes_up and image_ok
    if not matrix_equal:
        failure = failure or _first_matrix_mismatch(run.matrix, sector_matrix(i))
    return SectorReport(i, direction, passed, True, matrix_equal, closes_up, parity, failure)


def _strictly_inside_sector(d: Direction, i: int) -> bool:
    if classify(d) != (i,):
        return False
    return not d.is_theta_pi  # theta = pi classifies as (7,) but is an endpoint


def _compare_vectors(got, want) -> tuple[bool, str | None]:
    labels = ["(1,l)", "(1,r)", "(2,l)", "(2,r)", "(3,l)", "(3,r)"]
    for slot, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return False, f"first differing wedge entry at {labels[slot]}: {g} != {w}"
    return True, None


def _first_matrix_mismatch(got: intmat.IntMat, want: intmat.IntMat) -> str:
    for r in range(6):
        for c in range(6):
            if got[r][c] != want[r][c]:
                return f"first differing matrix entry at ({r+1},{c+1}): {got[r][c]} != {want[r][c]}"
    return "matrices equal"


@dataclass(frozen=True)
class TheoremReport:
    sector_reports: tuple[SectorReport, ...]
    word_identities: dict[int, bool]
    passed: bool

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "sectors": [r.to_json() for r in self.sector_reports],
            "reduced_word_identities": {str(k): v for k, v in self.word_identities.items()},
        }


def verify_theorem(samples_per_sector: int = 3, sectors=range(1, 8)) -> TheoremReport:
    """Run :func:`verify_sector` on an exact grid, plus the reduced-word identities."""
    from .h2moves import compose_word, has_reduced_word, sector_word

    reports = []
    for i in sectors:
        for d in sector_sample_directions(i, samples_per_sector):
            reports.append(verify_sector(i, d))
    identities = {}
    for i in sectors:
        if has_reduced_word(i):
            matrix, _, end = compose_word(sector_word(i))
            identities[i] = matrix == sector_matrix(i) and end.value == "left"
    passed = all(r.passed for r in reports) and all(identities.values())
    return TheoremReport(tuple(reports), identities, passed)


# -- running expansions ----------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    entry: int
    records: tuple[MoveRecord, ...]
    state: LabeledQuadrangulation  # renormalized state (equal to Q' when intact)
    original_wedges: tuple[Vec2, ...]  # current wedges in the original frame

    def to_json(self) -> dict:
        return {
            "entry": self.entry,
            "moves": [
                {
                    "side": rec.side.value,
                    "cycle": list(rec.cycle),
                    "new_sides": [
                        {"label": lab, "holonomy": v.to_json()} for lab, v in rec.new_sides
                    ],
                }
                for rec in self.records
            ],
            "state": self.state.to_json(),
        }


@dataclass(frozen=True)
class ExpansionTrace:
    direction: Direction
    expansion: FareyExpansion
    initial: LabeledQuadrangulation
    steps: tuple[TraceStep, ...]
    halted: str | None  # "hits_singularity" when a parallel diagonal appeared

    def initial_original_wedges(self) -> tuple[Vec2, ...]:
        """The starting wedge vectors transported to the original frame."""
        m = GAMMA_NU_INV[self.expansion.entries[0]]
        return tuple(m.apply(v) for v in self.initial.wedge_vector_tuple())

    def holonomies(self) -> list[Vec2]:
        """All wedge sides created along the trace, in the original frame."""
        out = []
        for step in self.steps:
            for rec in step.records:
                out.extend(v for _, v in rec.new_sides)
        return out

    def to_json(self) -> dict:
        return {
            "direction": self.direction.to_json(),
            "expansion": self.expansion.to_json(),
            "initial": self.initial.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "halted": self.halted,
        }


def run_expansion(
    direction: Direction, n: int, policy: TiePolicy = TiePolicy.LOW
) -> ExpansionTrace:
    """Drive n renormalization steps of diagonal changes along an expansion.

    The first expansion entry selects the starting frame; each later entry
    executes its sector word on Q' with the renormalized direction as
    reference, then renormalizes back onto Q'.  Created wedge sides are
    reported in the original frame by accumulated inverse renormalizations;
    they are the octagon analogues of the convergents.  A parallel diagonal
    ends the trace with the ``hits_singularity`` marker.
    """
    if n < 0:
        raise ValueError("step count must be >= 0")
    expansion = expand(direction, n + 1, policy)
    s0 = expansion.entries[0]
    ref = Direction(GAMMA_NU[s0].apply(direction.vector))
    run = _WordRun(state=qprime(ref), to_original=GAMMA_NU_INV[s0])
    initial = run.state
    steps: list[TraceStep] = []
    halted = None
    for k in range(1, n + 1):
        entry = expansion.entries[k]
        if entry not in classify(run.state.ref_dir):
            raise SectorWordError(
                f"expansion entry {entry} disagrees with the renormalized direction"
            )
        before = len(run.records)
        try:
            for token in sector_raw_plan(entry):
                run.execute_token(token)
        except HitsSingularity:
            halted = "hits_singularity"
            break
        run.renormalize(entry)
        steps.append(
            TraceStep(
                entry=entry,
                records=tuple(run.records[before:]),
                state=run.state,
                original_wedges=tuple(
                    run.to_original.apply(v) for v in run.state.wedge_vector_tuple()
                ),
            )
        )
    return ExpansionTrace(direction, expansion, initial, tuple(steps), halted)


def sector_move_states(i: int, direction: Direction) -> list[LabeledQuadrangulation]:
    """States after each staircase move of sector i's word (for rendering)."""
    if not _strictly_inside_sector(direction, i):
        raise ValueError(f"direction {direction} is not strictly inside sector {i}")
    run = _WordRun(state=qprime(direction))
    states = []
    moves_seen = 0
    for token in sector_raw_plan(i):
        run.execute_token(token)
        while moves_seen < len(run.records):
            moves_seen += 1
            states.append(run.state)
    return states


# -- derivation oracles ------------------------------------------------------------


def derive_qprime_vectors_fixed_point() -> tuple[Vec2, ...]:
    """Recompute the Q' wedge vectors as the joint renormalization fixed point.

    Stacks the twelve linear conditions ``gamma*nu_i . A_i . v = v`` for all
    seven sectors and extracts the nullspace by exact Gaussian elimination
    over Q(sqrt2); the solution space must be one-dimensional.  The scale is
    fixed by the octagon area and the sign by left-slantedness of the first
    wedge vector.
    """
    rows = []
    for i in range(1, 8):
        a = sector_matrix(i)
        g = GAMMA_NU[i]
        for s in range(6):
            for coord in range(2):
                row = [QuadNum(0)] * 12
                for j in range(6):
                    if a[s][j] == 0:
                        continue
                    coef = QuadNum(a[s][j])
                    if coord == 0:
                        row[2 * j] = row[2 * j] + g.a * coef
                        row[2 * j + 1] = row[2 * j + 1] + g.b * coef
                    else:
                        row[2 * j] = row[2 * j] + g.c * coef
                        row[2 * j + 1] = row[2 * j + 1] + g.d * coef
                row[2 * s + coord] = row[2 * s + coord] - QuadNum(1)
                rows.append(row)
    basis = _nullspace(rows, 12)
    if len(basis) != 1:
        raise RuntimeError(f"fixed-point system has nullity {len(basis)}, expected 1")
    vecs = [Vec2(basis[0][2 * j], basis[0][2 * j + 1]) for j in range(6)]
    # normalize: area scales quadratically, orientation by the first left side
    probe = LabeledQuadrangulation(QPRIME_COMB, _wedges(vecs), sector_midpoint(4))
    ratio2 = OCTAGON_AREA / probe.total_area()
    scale = _quad_sqrt(ratio2)
    vecs = [v.scale(scale) for v in vecs]
    if vecs[0].x.sign() > 0:
        vecs = [-v for v in vecs]
    return tuple(vecs)


def _nullspace(rows, ncols):
    m = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col].sign() != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col].inverse()
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col].sign() != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [QuadNum(0)] * ncols
        v[fc] = QuadNum(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _quad_sqrt(q: QuadNum) -> QuadNum:
    """Square root of a positive element, when it lies in Q(sqrt2)."""
    # try candidates x = c or x = c*sqrt2 or general (a+b*sqrt2)^2 = q
    # with a*b = q.b/2 and a^2+2b^2 = q.a; solve the quadratic in a^2.
    if q.sign() <= 0:
        raise ValueError("square root of a non-positive element")
    if q.b == 0:
        root = _frac_sqrt(q.a)
        if root is not None:
            return QuadNum(root)
        half = _frac_sqrt(q.a / 2)
        if half is not None:
            return QuadNum(0, half)
        raise ValueError(f"{q} has no square root in Q(sqrt2)")
    disc = q.a * q.a - 2 * q.b * q.b
    root_disc = _frac_sqrt(disc) if disc >= 0 else None
    if root_disc is not None:
        for sign in (1, -1):
            a2 = (q.a + sign * root_disc) / 2
            if a2 >= 0:
                a = _frac_sqrt(a2)
                if a is not None and a != 0:
                    b = q.b / (2 * a)
                    cand = QuadNum(a, b)
                    if cand * cand == q:
                        return abs(cand)
    raise ValueError(f"{q} has no square root in Q(sqrt2)")


def _frac_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    from math import isqrt

    np, dp = isqrt(x.numerator), isqrt(x.denominator)
    if np * np == x.numerator and dp * dp == x.denominator:
        return Fraction(np, dp)
    return None


# -- exact octagon geometry (saddle-connection oracle) ------------------------------


def octagon_vertices() -> tuple[Vec2, ...]:
    """Vertices of the unit-side regular octagon, counterclockwise, flat bottom."""
    h = QuadNum(_H)
    g = QuadNum(_H, _H)  # (1+sqrt2)/2, the apothem
    return (
        Vec2(-h, -g),
        Vec2(h, -g),
        Vec2(g, -h),
        Vec2(g, h),
        Vec2(h, g),
        Vec2(-h, g),
        Vec2(-g, h),
        Vec2(-g, -h),
    )


@dataclass(frozen=True)
class OctagonModel:
    """The unit-side regular octagon with its opposite-side identifications.

    Side i runs from vertex i to vertex i+1 (mod 8) and is glued to side
    i+4 by the stored translation; all eight corners become one cone point.
    """

    vertices: tuple[Vec2, ...]
    area: QuadNum

    @staticmethod
    def unit() -> "OctagonModel":
        return OctagonModel(octagon_vertices(), OCTAGON_AREA)

    def side(self, i: int) -> tuple[Vec2, Vec2]:
        return self.vertices[i % 8], self.vertices[(i + 1) % 8]

    def gluing_translation(self, i: int) -> Vec2:
        """Translation identifying side i with side i+4."""
        return _side_translation(i % 8)


def _gluing_translations() -> tuple[Vec2, ...]:
    """Translation carrying side i onto side i+4, for i = 0..3."""
    verts = octagon_vertices()
    return tuple(verts[(i + 4) % 8] - verts[(i + 1) % 8] for i in range(4))


def _side_translation(i: int) -> Vec2:
    ts = _gluing_translations()
    return ts[i] if i < 4 else -ts[i - 4]


def _segment_hits(p: Vec2, w: Vec2, a: Vec2, b: Vec2):
    """Parameters (t, s) with p + t*w = a + s*(b-a), or None if parallel."""
    e = b - a
    den = w.cross(e)
    if den.sign() == 0:
        return None
    diff = a - p
    t = diff.cross(e) / den
    s = diff.cross(w) / den
    return t, s


#: Side crossings followed from each corner by :func:`is_saddle_connection`.
MAX_CROSSINGS = 200


class CrossingBudgetExhausted(RuntimeError):
    """No corner proved a saddle connection and some ran out of crossings."""


def is_saddle_connection(w: Vec2) -> bool:
    """Exact test that ``w`` is the holonomy of a saddle connection.

    Develops the segment from each corner of the octagon in turn, jumping
    copies across glued sides; the segment must end exactly at a corner and
    meet no corner on the way.  When no corner proves one and some corner
    is still undecided after ``MAX_CROSSINGS``, the answer is unknown and
    :class:`CrossingBudgetExhausted` is raised.
    """
    if w.is_zero():
        return False
    undecided = False
    for corner in octagon_vertices():
        found = _trace(corner, w)
        if found:
            return True
        undecided |= found is None
    if undecided:
        raise CrossingBudgetExhausted(f"{w}: undecided after {MAX_CROSSINGS} crossings")
    return False


def _trace(p0: Vec2, w: Vec2) -> bool | None:
    """True/False once the segment from ``p0`` is decided, None if undecided."""
    verts = octagon_vertices()
    one = QuadNum(1)
    tau = Vec2(0, 0)
    lam = QuadNum(0)
    for _ in range(MAX_CROSSINGS):
        # find the exit of the ray x(t) = p0 + t*w from the copy O + tau
        best_t = None
        exit_side = None
        exit_point = None
        base = Vec2(p0.x - tau.x, p0.y - tau.y)
        for i in range(8):
            a, b = verts[i], verts[(i + 1) % 8]
            hit = _segment_hits(base, w, a, b)
            if hit is None:
                # the ray is parallel to side i; collinear means it runs along it
                if (a - base).cross(w).sign() == 0:
                    for endpoint in (a, b):
                        delta = endpoint - base
                        t = (delta.x / w.x) if w.x.sign() != 0 else (delta.y / w.y)
                        if t.sign() > 0 and (lam - t).sign() < 0:
                            if best_t is None or t < best_t:
                                best_t, exit_side, exit_point = t, None, endpoint
                continue
            t, s = hit
            if (t - lam).sign() <= 0:
                continue
            if s.sign() < 0 or (s - one).sign() > 0:
                continue
            if best_t is None or t < best_t:
                best_t, exit_side, exit_point = t, i, base + w.scale(t)
        if best_t is None:
            return False
        if (best_t - one).sign() > 0:
            return False  # the endpoint would be interior to this copy
        at_vertex = any(exit_point == v for v in verts)
        if (best_t - one).sign() == 0:
            return at_vertex
        if at_vertex:
            return False  # a cone point in the interior of the segment
        lam = best_t
        tau = tau - _side_translation(exit_side)
    return None


def enumerate_saddle_connections(norm2_bound: QuadNum) -> list[Vec2]:
    """All saddle-connection holonomies with squared length at most the bound.

    Candidate vectors are differences of developed corners over a ball of
    gluing translations, then validated by exact ray tracing.  The bound
    must stay small (single digits) for the candidate ball to be exhaustive.
    """
    verts = octagon_vertices()
    ts = _gluing_translations()
    seen = set()
    out = []
    span = range(-2, 3)
    for n0 in span:
        for n1 in span:
            for n2 in span:
                for n3 in span:
                    shift = (
                        ts[0].scale(n0) + ts[1].scale(n1) + ts[2].scale(n2) + ts[3].scale(n3)
                    )
                    for va in verts:
                        for vb in verts:
                            w = vb + shift - va
                            if w.is_zero() or w in seen:
                                continue
                            seen.add(w)
                            if (w.norm2() - norm2_bound).sign() <= 0 and is_saddle_connection(w):
                                out.append(w)
    return out
