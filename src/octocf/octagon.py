"""The regular-octagon surface: base quadrangulations and the acceleration verifier.

The translation surface glued from opposite sides of a regular octagon with
unit sides has genus 2, one cone point of angle 6*pi, and area 2*(1+sqrt2).
It carries a quadrangulation ``Q0`` into three parallelograms adapted to
nearly-horizontal directions, and its image ``Q' = gamma * Q0`` straddles
every direction with angle strictly between pi/8 and pi.

The six wedge vectors of Q' are pinned down (up to scale, fixed by the area)
as the unique simultaneous fixed vector of the seven renormalization maps
``gamma*nu_i . A_i``.  The tests recompute them from scratch as that fixed
point, and again from the short saddle connections that an exact ray tracer
of the glued octagon enumerates; this module imports neither derivation.

For a direction theta strictly inside sector i, :func:`verify_sector` runs
sector i's move word (resolved once by :func:`h2moves.resolved_word`) on Q'
by actual staircase moves, checks every move is well slanted and matches the
live gluing data, that the word's label matrix is exactly A_i, and that
applying ``gamma*nu_i`` (composed with the reflection when the word flipped
orientation) carries the final gluing data and wedge vectors back onto Q' on
the nose.  That exact round trip, over all sectors, is the machine content of
the acceleration theorem.  Each sector is also proved once for every direction
of the open sector: the checked run at the sector midpoint must pass, and
every slant the word meets is linear in the reference, so checking it at the
two sector endpoints decides it on the whole arc (see
:meth:`_SectorTable.proved`).  Because of it, :func:`run_expansion` replays
each sector's word from its proved table with no per-step checks; only a
reference on a sector endpoint looks up whether the word halts there.  Each
table also keeps the checked Q' it was recorded from, so a trace checks only
that its first reference lies in the cones of Q'.
"""

from __future__ import annotations

from functools import cache

from . import intmat
from .diagch import (
    HitsSingularity,
    LabeledQuadrangulation,
    MoveNotAvailableError,
    QuadrangulationError,
    Side,
    Slant,
    StaircaseMove,
    TrainTrackError,
    Wedge,
)
from .farey import (
    GAMMA,
    GAMMA_NU,
    GAMMA_NU_INV,
    SECTOR_BOUNDS,
    Direction,
    TiePolicy,
    _boundary_direction,
    _expand_orbit,
    _frames,
    _images,
    _ints,
    _Rational,
    _RH,
    classify,
    expand,  # kept as octagon.expand, which perfbench's layer tracer patches
)
from .h2moves import (
    QPRIME_COMB,
    NodeId,
    SectorWordError,
    compose_word,
    has_reduced_word,
    resolved_word,
    sector_matrix,
    sector_word,
)
from .numerics import (
    Mat2,
    QuadNum,
    Vec2,
    _FrozenValue,
    _coerce,
    _cross_sign,
    _int_arg,
    _object_new,
    _vec,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "OCTAGON_AREA",
    "QPRIME_COMB",
    "QPRIME_VECTORS",
    "Q0_COMB",
    "Q0_VECTORS",
    "REFLECTION",
    "qprime",
    "q_zero",
    "sector_midpoint",
    "sector_sample_directions",
    "sector_direction",
    "SectorReport",
    "TheoremReport",
    "verify_sector",
    "verify_theorem",
    "prove_sector",
    "run_expansion",
    "sector_move_states",
    "ExpansionTrace",
    "TraceStep",
    "MoveRecord",
]

#: Area of the unit-side regular octagon.
OCTAGON_AREA = QuadNum(2, 2)

#: The vertical-axis reflection (x, y) -> (-x, y).
REFLECTION = Mat2(-1, 0, 0, 1)

#: Wedge vectors of Q' in basis order (1,l),(1,r),(2,l),(2,r),(3,l),(3,r).
#: All three left sides are horizontal saddle connections (a unit side and
#: twice the long horizontal diagonal); the right sides are the short
#: diagonal and the long diagonal through the center.
QPRIME_VECTORS: tuple[Vec2, ...] = (
    Vec2(-1, 0),
    Vec2(1 + _RH, _RH),
    Vec2(QuadNum(-1, -1), 0),
    Vec2(1 + _RH, _RH),
    Vec2(QuadNum(-1, -1), 0),
    Vec2(QuadNum(1, 1), QuadNum(1)),
)

Q0_COMB = QPRIME_COMB.swapped()

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
    their finite endpoint.  :func:`sector_direction` checks j.
    """
    _int_arg(count, "count", 1)
    params = _steps(count) if j in (0, 7) else _midpoint_first_parameters(count)
    return [sector_direction(j, f) for f in params]


def sector_direction(j: int, f: int | Fraction | QuadNum) -> Direction:
    """The direction of sector j at the exact parameter f, strictly inside the sector.

    Sectors 1..6 take u = lo + (hi - lo)*f between their ends lo and hi of u,
    for 0 < f < 1; sectors 0 and 7, which reach u = infinity, take u at the
    distance f > 0 from their finite end.  Any other f is refused (ValueError).
    """
    _int_arg(j, "sector index", 0, 7)
    f = _coerce(f)
    if j == 0:
        u = SECTOR_BOUNDS[0] + f
    elif j == 7:
        u = SECTOR_BOUNDS[6] - f
    else:
        hi, lo = SECTOR_BOUNDS[j - 1], SECTOR_BOUNDS[j]
        u = lo + (hi - lo) * f
    return _strictly_inside(j, Direction(Vec2(u, QuadNum(1))))


def _strictly_inside(j: int, direction: Direction) -> Direction:
    """``direction``, after a ValueError unless it lies strictly inside sector j
    (theta = pi classifies as (7,) but is an endpoint)."""
    if classify(direction) != (j,) or direction.is_theta_pi:
        raise ValueError(f"direction {direction} is not strictly inside sector {j}")
    return direction


def _midpoint_first_parameters(count: int) -> list[QuadNum]:
    """1/2, 1/4, 3/4, 1/8, ...: parameter n is (2r + 1)/2^(m+1), where n + 1 = 2^m + r
    and 0 <= r < 2^m."""
    params = []
    for i in range(1, count + 1):
        h = 1 << i.bit_length()  # 2^(m+1) for i = n + 1
        params.append(QuadNum(2 * i + 1 - h) / h)
    return params


def _steps(count: int) -> list[QuadNum]:
    """1, 1/2, 2, 3, 4, ..., the first ``count``."""
    return [QuadNum(1), QuadNum(1) / 2, *map(QuadNum, range(2, count))][:count]


# -- executing sector words ----------------------------------------------------


class MoveRecord(_FrozenValue):
    """One executed staircase move with the diagonals it created: ``side``,
    ``cycle`` and ``new_sides``, the (label, holonomy in the original frame)
    pairs."""

    __slots__ = ("side", "cycle", "new_sides")


class _WordRun:
    """Runs the steps of a resolved sector word on the geometry."""

    __slots__ = ("start", "state", "to_original", "records", "flips", "states")

    def __init__(self, state: LabeledQuadrangulation, to_original: Mat2 = Mat2.identity()):
        self.start = self.state = state  # the state the run began from, and the current one
        self.to_original = to_original  # current -> original frame
        self.records: list[MoveRecord] = []
        self.flips: list[int] = []  # sign of det(to_original) before each move
        self.states: list[LabeledQuadrangulation] = []  # after each move

    def execute(self, step) -> None:
        """One resolved step: a staircase move, or a relabeling ``(sigma, reflect)``."""
        if isinstance(step, StaircaseMove):
            self.flips.append(self.to_original.det().sign())
            self.state = self.state.apply(step)
            pick = (lambda w: w.l) if step.side is Side.PI_R else (lambda w: w.r)
            created = tuple(
                (i, self.to_original.apply(pick(self.state.wedges[i - 1]))) for i in step.cycle
            )
            self.records.append(MoveRecord(step.side, step.cycle, created))
            self.states.append(self.state)
            return
        sigma, reflect = step
        if reflect:
            self.state = self.state.transformed(REFLECTION)
            self.to_original = self.to_original @ REFLECTION
        self.state = self.state.relabeled(sigma)

    def renormalize(self, sector: int) -> None:
        """Map the state after sector ``sector``'s word back onto Q'."""
        if self.state.comb != QPRIME_COMB:
            raise SectorWordError(f"sector {sector} word ends at {self.state.comb}, not at Q'")
        m, m_inv = GAMMA_NU[sector], GAMMA_NU_INV[sector]
        if resolved_word(sector).parity:
            m, m_inv = m @ REFLECTION, REFLECTION @ m_inv
        self.state = self.state.transformed(m)
        self.to_original = self.to_original @ m_inv


# -- the verifier ----------------------------------------------------------------


class SectorReport(_FrozenValue):
    __slots__ = ("sector", "direction", "passed", "moves_available", "matrix_equal", "closes_up",
                 "parity", "failure")
    _defaults = (None,)  # no failure

    def to_json(self) -> dict:
        return {
            "sector": self.sector,
            "u": self.direction.u_text(),
            "passed": self.passed,
            "moves_available": self.moves_available,
            "matrix_equal": self.matrix_equal,
            "closes_up": self.closes_up,
            "parity": self.parity,
            "failure": self.failure,
        }


#: What a sector word that does not fit the live geometry raises.
_WORD_ERRORS = (SectorWordError, MoveNotAvailableError, TrainTrackError, QuadrangulationError)


def verify_sector(i: int, direction: Direction) -> SectorReport:
    """Machine-check one sector of the acceleration theorem at ``direction``.

    Runs sector i's resolved word on Q' with the given reference direction,
    asserting that (1) every staircase move is well slanted when executed,
    (2) the word's label matrix equals A_i, and (3) renormalizing by
    ``gamma*nu_i`` (with the reflection when the parity is odd) returns the
    gluing data and the wedge vectors exactly onto Q' with the new reference
    inside the image sectors.  Boundary directions are rejected.  A failure
    inside the word is reported as ``step k of sector i: ...``, where k
    indexes ``resolved_word(i).steps``.  The same run at the sector midpoint
    starts the whole-sector proof of :func:`prove_sector`.
    """
    return _checked_run(i, direction)[1]


def _checked_run(i: int, direction: Direction) -> tuple[_WordRun | None, SectorReport]:
    """Sector i's word run on Q' at ``direction``, with every check of :func:`verify_sector`.

    The one driver of :class:`_WordRun` for a single word: the verifier, the
    sector tables and rendering all take their run from here.  The run is
    ``None`` when Q' itself fails, and is complete only when the report passed.
    """
    _int_arg(i, "sector index", 1, 7)
    _strictly_inside(i, direction)
    word = resolved_word(i)
    run = None

    def failed(text: str) -> tuple[_WordRun | None, SectorReport]:
        return run, SectorReport(i, direction, False, False, False, False, 0, text)

    try:
        run = _WordRun(state=qprime(direction))
    except _WORD_ERRORS as exc:
        return failed(str(exc))
    area = run.state.total_area()
    if area != OCTAGON_AREA:
        return failed(f"base quadrangulation area {area} != {OCTAGON_AREA}")
    for k, step in enumerate(word.steps):
        try:
            run.execute(step)
        except _WORD_ERRORS as exc:
            return failed(f"step {k} of sector {i}: {exc}")
    try:
        run.renormalize(i)
    except _WORD_ERRORS as exc:
        return failed(str(exc))
    matrix_equal = word.matrix == sector_matrix(i)
    closes_up, failure = _compare_vectors(run.state.wedge_vector_tuple(), QPRIME_VECTORS)
    image_ok = 0 not in classify(run.state.ref_dir)
    if not image_ok:
        failure = failure or "renormalized direction left the expanding sectors"
    passed = matrix_equal and closes_up and image_ok
    if not matrix_equal:
        failure = failure or _first_matrix_mismatch(word.matrix, sector_matrix(i))
    report = SectorReport(i, direction, passed, True, matrix_equal, closes_up, word.parity, failure)
    return run, report


def _compare_vectors(got, want) -> tuple[bool, str | None]:
    labels = ["(1,l)", "(1,r)", "(2,l)", "(2,r)", "(3,l)", "(3,r)"]
    for slot, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return False, f"first differing wedge entry at {labels[slot]}: {g} != {w}"
    return True, None


def _first_matrix_mismatch(got: intmat.IntMat, want: intmat.IntMat) -> str:
    """The first entry where ``got`` differs from ``want``; called only when one does."""
    r, c = next((r, c) for r in range(6) for c in range(6) if got[r][c] != want[r][c])
    return f"first differing matrix entry at ({r+1},{c+1}): {got[r][c]} != {want[r][c]}"


class TheoremReport(_FrozenValue):
    __slots__ = ("sector_reports", "word_identities", "proved", "passed")

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "sectors": [r.to_json() for r in self.sector_reports],
            "reduced_word_identities": {str(k): v for k, v in self.word_identities.items()},
            "proved": {str(k): v for k, v in self.proved.items()},
        }


def prove_sector(i: int) -> bool:
    """Whether sector i's word is proved for every direction of the open sector.

    The proof runs once per sector, when the table that :func:`run_expansion`
    replays is built: the run at the sector midpoint must pass every check of
    :func:`verify_sector`, the label matrix A_i included, and then
    :meth:`_SectorTable.proved` proves its slants on the whole sector.
    """
    _int_arg(i, "sector index", 1, 7)
    try:
        _sector_table(i)
    except _WORD_ERRORS:
        return False
    return True


def verify_theorem(samples_per_sector: int = 3, sectors=range(1, 8)) -> TheoremReport:
    """Prove each sector, cross-check it by :func:`verify_sector` on an exact
    grid, and check the reduced-word identities."""
    reports, proved = [], {}
    for i in sectors:
        samples = sector_sample_directions(i, samples_per_sector)
        proved[i] = prove_sector(i)
        if proved[i]:  # the proof's own run checked the first sample, the midpoint
            reports.append(_sector_table(i)[1])
            samples = samples[1:]
        reports.extend(verify_sector(i, d) for d in samples)
    identities = {}
    for i in sectors:
        if has_reduced_word(i):
            matrix, _, end = compose_word(sector_word(i))
            identities[i] = matrix == sector_matrix(i) and end is NodeId.LEFT
    passed = (
        all(r.passed for r in reports) and all(identities.values()) and all(proved.values())
    )
    return TheoremReport(tuple(reports), identities, proved, passed)


# -- running expansions ----------------------------------------------------------


class TraceStep(_FrozenValue):
    """One Farey step of a trace: its ``entry``, the ``records`` of its moves,
    the renormalized ``state`` (equal to Q' when intact) and ``to_original``,
    the frame of ``state`` -> the original frame."""

    __slots__ = ("entry", "records", "state", "to_original")

    @property
    def original_wedges(self) -> tuple[Vec2, ...]:
        """The wedges of ``state`` in the original frame."""
        return tuple(self.to_original.apply(v) for v in self.state.wedge_vector_tuple())

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


class ExpansionTrace(_FrozenValue):
    """A run of :func:`run_expansion`: the ``direction``, its ``expansion``,
    the ``initial`` state, the ``steps`` and ``halted``, "hits_singularity"
    when a parallel diagonal appeared and None otherwise."""

    __slots__ = ("direction", "expansion", "initial", "steps", "halted")

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


#: The directions pi/8 and pi bounding the expanding sectors 1..7.
_EXPANDING_ARC = (_boundary_direction(1), _boundary_direction(8))

#: The created side that every sector word makes; a frame maps it to its second column.
_COLUMN_SIDE = Vec2(0, 1)


class _SectorTable(_FrozenValue):
    """Sector i's word on Q', recorded by the staircase executor and proved once.

    After every renormalization the state is exactly Q', so in the frame of a
    step's start everything the word computes is fixed; only the reference
    direction and the accumulated frame change from step to step.  The frame
    of the next step is ``GAMMA_NU_INV[i]`` in this one; the proof checks it.
    """

    __slots__ = (
        "bounds",  # ((sector endpoint, first parallel label), ...)
        "holonomies",  # the distinct created sides, as _ints, with _COLUMN_SIDE last
        "layout",  # per move: (side, cycle, ((label, index into holonomies), ...))
        "wedges",  # the wedges of the checked Q' that the word was recorded from
    )

    @staticmethod
    def proved(
        i: int,
        moves: tuple[MoveRecord, ...],
        flips: tuple[int, ...],
        frame: Mat2,
        wedges: tuple[Wedge, ...],
    ) -> "_SectorTable":
        """The table, once its word is proved well slanted on the whole of sector i.

        ``wedges`` are those of the checked Q' that the run started from, so
        their train-track relations, positive cones and areas hold; the table
        keeps them for :func:`run_expansion`, which then checks only that its
        reference lies in every cone.
        ``moves`` are the executor's records, in the frame of the step's start.
        A move's created sides are its cycle diagonals, so the proof reads
        them from ``new_sides``.  ``flips[k]`` is the determinant (+1 or -1)
        of the reflections made before move k: ``cross(R ref, R v) =
        -cross(ref, v)``, so the live slant of a diagonal d is
        ``flip * sign(cross(ref, d))``.  That sign is linear in ``ref``, and
        every direction of the closed sector is a nonnegative combination of
        its two endpoints (the arc is narrower than pi).  So a slant that is the wanted one or 0 at both endpoints,
        and not 0 at both, is the wanted one on the whole open sector and is
        0 at most on one endpoint.  Well-slanted moves keep the reference
        inside every wedge cone they make.  The word renormalizes by the
        Farey branch ``gamma*nu_i``, which carries the sector onto
        [pi/8, pi], and Q' straddles [pi/8, pi].  The replay takes the side
        (0, 1) from its frame's second column, so the word must create it.
        Raises :class:`SectorWordError` for the first fact that fails.
        """
        if frame != GAMMA_NU_INV[i]:
            raise SectorWordError(f"sector {i} word does not renormalize by gamma*nu_{i}")
        lo, hi = _boundary_direction(i), _boundary_direction(i + 1)
        images = [Direction(GAMMA_NU[i].apply(e.vector)) for e in (lo, hi)]
        if not all(any(a.ray_eq(b) for b in images) for a in _EXPANDING_ARC):
            raise SectorWordError(f"gamma*nu_{i} does not carry sector {i} onto [pi/8, pi]")
        for w in wedges:
            if not all(w.cone_contains(e) for e in _EXPANDING_ARC):
                raise SectorWordError("Q' does not straddle [pi/8, pi]")
        first_parallel: list[int | None] = [None, None]
        for rec, flip in zip(moves, flips, strict=True):
            want = Slant.LEFT.value if rec.side is Side.PI_R else Slant.RIGHT.value
            for j, d in rec.new_sides:
                signs = [flip * _cross_sign(e.vector, d) for e in (lo, hi)]
                if signs == [0, 0] or any(s not in (want, 0) for s in signs):
                    raise SectorWordError(
                        f"sector {i}: {rec.side.value}-cycle{rec.cycle} is not well slanted "
                        f"on the whole sector (diagonal {j})"
                    )
                for end, s in enumerate(signs):
                    if s == 0 and first_parallel[end] is None:
                        first_parallel[end] = j
        bounds = ((lo.vector, first_parallel[0]), (hi.vector, first_parallel[1]))
        # each distinct created side, in order of creation, the column side moved last
        sides = list(dict.fromkeys(h for rec in moves for _, h in rec.new_sides))
        if _COLUMN_SIDE not in sides:
            raise SectorWordError(f"sector {i} word creates no side (0, 1)")
        sides.remove(_COLUMN_SIDE)
        sides.append(_COLUMN_SIDE)
        index = {h: k for k, h in enumerate(sides)}
        layout = tuple(
            (rec.side, rec.cycle, tuple((j, index[h]) for j, h in rec.new_sides))
            for rec in moves
        )
        return _SectorTable(bounds, tuple(_ints(h) for h in sides), layout, wedges)

    def replay(
        self, ref: Direction, frame: Mat2, to_original: _Rational, on_bound: bool
    ) -> tuple[MoveRecord, ...]:
        """The word's move records at ``ref``, which must lie in the closed sector.

        Inside the open sector the word is proved to run, so this only maps
        the created holonomies to the original frame, given as the Mat2
        ``frame`` and its rational form ``to_original``, a pair of
        :func:`farey._frames`.  The side (0, 1), last of the holonomies, maps
        to the frame's second column (``frame.b``, ``frame.d``); one pass of
        :func:`farey._images` builds the image of each other distinct
        holonomy.  The records share the equal vectors, filled through their
        slots.  On a sector endpoint (``on_bound``) it raises what the
        staircase executor raises there: :class:`HitsSingularity` for the
        first parallel diagonal, if any.
        """
        if on_bound:
            for end, label in self.bounds:
                if label is not None and _cross_sign(ref.vector, end) == 0:
                    raise HitsSingularity(label)
        made = _images(to_original, self.holonomies[:-1])
        made.append(_vec(frame.b, frame.d))
        set_side, set_cycle, set_new_sides = MoveRecord._setters
        records = []
        for side, cycle, sides in self.layout:
            rec = _object_new(MoveRecord)
            set_side(rec, side)
            set_cycle(rec, cycle)
            set_new_sides(rec, tuple([(j, made[k]) for j, k in sides]))
            records.append(rec)
        return tuple(records)


@cache
def _sector_table(i: int) -> tuple[_SectorTable, SectorReport]:
    """Sector i's table, from the checked run of its word at the sector midpoint,
    and that run's report.

    The run must pass every check of :func:`verify_sector`: train-track
    relations, positive cones and areas of every state, each move against
    the live gluing data, the label matrix A_i, and the word closing onto
    Q'.  :meth:`_SectorTable.proved` then proves the slants on the whole sector.
    """
    run, report = _checked_run(i, sector_midpoint(i))
    if not report.passed:
        raise SectorWordError(f"sector {i} word fails at its midpoint: {report.failure}")
    table = _SectorTable.proved(
        i, tuple(run.records), tuple(run.flips), run.to_original, run.start.wedges
    )
    return table, report


def run_expansion(
    direction: Direction, n: int, policy: TiePolicy = TiePolicy.LOW
) -> ExpansionTrace:
    """Drive n renormalization steps of diagonal changes along an expansion.

    The first expansion entry selects the starting frame; each later entry
    runs its sector word on Q' with the renormalized direction as reference,
    then renormalizes back onto Q'.  The word is replayed from its sector
    table, proved once for the whole sector, and the references are the
    iterates of the same Farey pass that yields the expansion.  Created
    wedge sides are reported in the original frame by accumulated inverse
    renormalizations; they are the octagon analogues of the convergents.
    :func:`farey._frames` gives each accumulated frame, as the Mat2
    ``to_original`` of a step and as the rational form that the next step's
    replay applies to its created holonomies.  A parallel diagonal, possible
    only on a sector boundary, ends the trace with the ``hits_singularity``
    marker.

    Q' is checked where the tables are proved: each table keeps the wedges
    of the checked Q' its word was recorded from, so their train-track
    relations, cones and areas are checked once per proved table set.  A
    call checks only that its first reference lies in every cone of Q'.
    The initial state, each step and each step's state (Q' at the
    renormalized direction) are then filled through their slots, as the
    replay fills its records.  Where the cone test or the first table's
    proof fails, the checked :func:`qprime` runs first, so Q' fails as the
    checked constructor reports it.  With ``n = 0`` no table is read, and
    the initial state is ``qprime(ref)``.
    """
    _int_arg(n, "step count n", 0)
    expansion, orbit = _expand_orbit(direction, n + 1, policy)
    _, _, ref = orbit[0]
    if not n:
        return ExpansionTrace(direction, expansion, qprime(ref), (), None)
    try:
        wedges = _sector_table(orbit[1][0])[0].wedges
    except SectorWordError:
        qprime(ref)  # a Q' that fails its own checks raises their error first
        raise
    if not all(w.cone_contains(ref) for w in wedges):
        qprime(ref)  # raises QuadrangulationError for the first cone that misses ref
    set_comb, set_wedges, set_ref_dir = LabeledQuadrangulation._setters
    initial = _object_new(LabeledQuadrangulation)
    set_comb(initial, QPRIME_COMB)
    set_wedges(initial, wedges)
    set_ref_dir(initial, ref)
    frames = _frames(expansion.entries)
    matrix, to_original = frames[0]
    steps: list[TraceStep] = []
    halted = None
    set_entry, set_records, set_state, set_to_original = TraceStep._setters
    for (entry, tie, image), (next_matrix, next_original) in zip(orbit[1:], frames[1:]):
        table = _sector_table(entry)[0]
        try:
            records = table.replay(ref, matrix, to_original, on_bound=tie or ref.is_theta_pi)
        except HitsSingularity:
            halted = "hits_singularity"
            break
        state = _object_new(LabeledQuadrangulation)
        set_comb(state, QPRIME_COMB)
        set_wedges(state, wedges)
        set_ref_dir(state, image)
        step = _object_new(TraceStep)
        set_entry(step, entry)
        set_records(step, records)
        set_state(step, state)
        set_to_original(step, next_matrix)
        steps.append(step)
        matrix, to_original, ref = next_matrix, next_original, image
    return ExpansionTrace(direction, expansion, initial, tuple(steps), halted)


def sector_move_states(i: int, direction: Direction) -> list[LabeledQuadrangulation]:
    """States after each staircase move of sector i's word (for rendering)."""
    run, report = _checked_run(i, direction)
    if not report.passed:
        raise SectorWordError(report.failure)
    return run.states
