"""The octagon Farey map on directions of the regular-octagon translation surface.

The upper half circle of directions, parametrized by the angle theta in
[0, pi] or by the inverse slope u = cot(theta) on the projective line, is cut
into eight sectors of width pi/8.  A dihedral element ``nu_j`` folds sector j
onto sector 0, and the parabolic-type element ``gamma`` opens sector 0 back
up onto the union of sectors 1..7.  The composition F = gamma . fold is the
octagon Farey map; its itineraries are the octagon continued fraction
expansions, and its inverse branches reconstruct a direction from an
expansion prefix as a nested intersection of intervals.

All sector boundaries are exact elements of Q(sqrt(2)) (cot(pi/8) = 1+sqrt2,
cot(pi/4) = 1, cot(3pi/8) = sqrt2-1), so membership, folding and expansion
are decided exactly.  ``Direction`` and ``theta_cmp`` are re-exported from
:mod:`octocf.numerics`.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from enum import Enum
from functools import cache
from itertools import product
from math import gcd

from .numerics import (
    Direction,
    Mat2,
    QuadNum,
    Vec2,
    _FrozenValue,
    _direction,
    _mat,
    _object_new,
    _reduced,
    _vec,
    quad_floor,
    theta_cmp,
)

__all__ = [
    "NU",
    "GAMMA",
    "GAMMA_NU",
    "GAMMA_NU_INV",
    "SECTOR_BOUNDS",
    "Direction",
    "TiePolicy",
    "FareyExpansion",
    "RP1Interval",
    "InadmissiblePrefixError",
    "WalkInvariantError",
    "classify",
    "expand",
    "reconstruct",
    "dual_expansion",
    "theta_cmp",
]

_RH = QuadNum(0, 1) / 2  # 1/sqrt(2)

#: The dihedral elements mapping each closed sector onto sector 0.
NU: tuple[Mat2, ...] = (
    Mat2(1, 0, 0, 1),
    Mat2(_RH, _RH, _RH, -_RH),
    Mat2(_RH, _RH, -_RH, _RH),
    Mat2(0, 1, 1, 0),
    Mat2(0, 1, -1, 0),
    Mat2(-_RH, _RH, _RH, _RH),
    Mat2(-_RH, _RH, -_RH, -_RH),
    Mat2(-1, 0, 0, 1),
)

#: The involution opening sector 0 onto the union of sectors 1..7.
GAMMA = Mat2(-1, QuadNum(2, 2), 0, 1)

#: The Farey branches F_j as matrices gamma * nu_j.
GAMMA_NU: tuple[Mat2, ...] = tuple(GAMMA @ nu for nu in NU)

#: Their inverses, the branches pulling a direction back through an entry.
GAMMA_NU_INV: tuple[Mat2, ...] = tuple(g.inverse() for g in GAMMA_NU)

#: cot(j*pi/8) for j = 1..7; the extreme boundaries are the two horizontal rays.
SECTOR_BOUNDS: tuple[QuadNum, ...] = (
    QuadNum(1, 1),  # cot(pi/8)
    QuadNum(1, 0),  # cot(2pi/8)
    QuadNum(-1, 1),  # cot(3pi/8)
    QuadNum(0, 0),  # cot(4pi/8)
    QuadNum(1, -1),  # cot(5pi/8)
    QuadNum(-1, 0),  # cot(6pi/8)
    QuadNum(-1, -1),  # cot(7pi/8)
)


class TiePolicy(Enum):
    """Which itinerary to record when an iterate sits on a sector boundary."""

    LOW = "low"
    HIGH = "high"


# -- integral vectors ----------------------------------------------------------------
#
# The walks keep a vector as ints v = (xp, xq, yp, yq), x = xp + xq*sqrt2 and
# y = yp + yq*sqrt2, with a positive denominator den and an exponent e: the exact
# vector is (x, y)/(den*sqrt2^e).  sqrt2^k times each branch is integral, with
# k = 1 for entries 1, 2, 5, 6 and 0 otherwise, so a step is int multiply-adds
# and e += k, with no gcd.  GAMMA_NU[j] maps the closed sector j, and
# GAMMA_NU_INV[j] maps [pi/8, pi], into y >= 0 (both are linear, and it holds at
# both ends), so no step needs the negation that Direction applies to y < 0.

_IntVec = tuple[int, int, int, int]

#: A matrix P/sqrt2^e held as ``(e, P)``, P the ints (p, q) of its entries, row by row.
_Frame = tuple[int, tuple[int, ...]]


def _integral(m: Mat2) -> _Frame:
    """``m`` as ``(k, P)`` with the least k in {0, 1} that makes P = sqrt2^k * m integral."""
    k = int(any(c.ints[2] != 1 for c in (m.a, m.b, m.c, m.d)))
    scale = QuadNum(0, 1) if k else QuadNum(1)
    return k, tuple(i for c in (m.a, m.b, m.c, m.d) for i in (c * scale).ints[:2])


_BRANCHES = tuple(_integral(m) for m in GAMMA_NU)
_INVERSE_BRANCHES = tuple(_integral(m) for m in GAMMA_NU_INV)

#: sqrt2^k * I for k = 0, 1, in the ints of _integral.
_SCALARS = ((1, 0, 0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 1))

#: The entries whose inverse branch fixes (1, 0): its first column is that of
#: sqrt2^k * I, so a frame composed with it keeps its own first column.
_KEEPS_FIRST_COLUMN = frozenset(
    j
    for j, (k, p) in enumerate(_INVERSE_BRANCHES)
    if (p[0], p[1], p[4], p[5]) == (_SCALARS[k][0], _SCALARS[k][1], 0, 0)
)


def _ints(v: Vec2) -> tuple[_IntVec, int]:
    """The ints of ``v`` over a common denominator, and that denominator."""
    xp, xq, xd = v.x.ints
    yp, yq, yd = v.y.ints
    return (xp * yd, xq * yd, yp * xd, yq * xd), xd * yd


def _cross(v: _IntVec, w: _IntVec) -> tuple[int, int]:
    """The ints (p, q) of cross(v, w) = p + q*sqrt2."""
    xp, xq, yp, yq = v
    up, uq, wp, wq = w
    return xp * wp + 2 * xq * wq - yp * up - 2 * yq * uq, xp * wq + xq * wp - yp * uq - yq * up


def _compose(frame: _Frame, branch: _Frame) -> _Frame:
    """frame*branch, divided by sqrt2 while P stays integral: p + q*sqrt2 =
    sqrt2*(q + (p/2)*sqrt2) when p is even.  Without it P gains a sqrt2 factor at
    almost every branch with k = 1."""
    (e, (ap, aq, bp, bq, cp, cq, dp, dq)), (k, (ep, eq, fp, fq, gp, gq, hp, hq)) = frame, branch
    p, e = (
        ap * ep + bp * gp + 2 * (aq * eq + bq * gq),
        ap * eq + aq * ep + bp * gq + bq * gp,
        ap * fp + bp * hp + 2 * (aq * fq + bq * hq),
        ap * fq + aq * fp + bp * hq + bq * hp,
        cp * ep + dp * gp + 2 * (cq * eq + dq * gq),
        cp * eq + cq * ep + dp * gq + dq * gp,
        cp * fp + dp * hp + 2 * (cq * fq + dq * hq),
        cp * fq + cq * fp + dp * hq + dq * hp,
    ), e + k
    while not (p[0] & 1 or p[2] & 1 or p[4] & 1 or p[6] & 1):
        p, e = (p[1], p[0] >> 1, p[3], p[2] >> 1, p[5], p[4] >> 1, p[7], p[6] >> 1), e - 1
    return e, p


@cache
def _blocks() -> dict[bytes, _Frame]:
    """The product of the inverse branches of every block of 0 to 3 entries, keyed
    by the block's bytes, ``b""`` for the identity.

    Each product is :func:`_compose` of the block one entry shorter with the last
    branch, so a frame composed with a block is the frame composed with its
    branches in turn: both strip the largest power of sqrt2 from the same exact
    matrix.  Only ``reconstruct`` reads the 585 products, so the whole table is
    built on its first call, not by every command's import.
    """
    table = {b"": (0, _SCALARS[0])}
    for size in (1, 2, 3):
        for block in map(bytes, product(range(8), repeat=size)):
            table[block] = _compose(table[block[:-1]], _INVERSE_BRANCHES[block[-1]])
    return table


#: A matrix P'/den over Q(sqrt2) held as ``(den, P')``, P' the ints of _Frame.
_Rational = tuple[int, tuple[int, ...]]


def _rational(frame: _Frame) -> _Rational:
    """The frame P/sqrt2^e as ``(den, P')`` with P'/den = P/sqrt2^e and den a power of 2.

    An odd e folds one sqrt2 into P, P/sqrt2 = sqrt2*P/2 with sqrt2*(p +
    q*sqrt2) = 2q + p*sqrt2; then sqrt2^e = 2^h is den, or multiplies P for
    h < 0.  This is the one place where sqrt2^e is made rational: every
    vector and matrix leaving the integral kernels is built from its result.
    """
    e, p = frame
    if e & 1:
        ap, aq, bp, bq, cp, cq, dp, dq = p
        p, e = (2 * aq, ap, 2 * bq, bp, 2 * cq, cp, 2 * dq, dp), e + 1
    h = e >> 1
    if h >= 0:
        return 1 << h, p
    return 1, tuple(i << -h for i in p)


def _images(rational: _Rational, vectors: Sequence[tuple[_IntVec, int]]) -> list[Vec2]:
    """The Vec2 P'*v/(scale*den) for each ``(v, den)`` of ``vectors``, v as ints,
    under the matrix P'/scale of :func:`_rational`.

    P' is unpacked once, and each coordinate is formed and divided by its gcd
    in one pass, as :func:`numerics._reduced` divides, with no sqrt2 to strip
    first and no call per coordinate.  It serves the frames that are not
    scalars: the trace replay's holonomies and :func:`reconstruct`'s ends.
    """
    scale, (ap, aq, bp, bq, cp, cq, dp, dq) = rational
    set_x, set_y = Vec2._setters
    made = []
    for (xp, xq, yp, yq), den in vectors:
        den *= scale
        p, q = ap * xp + bp * yp + 2 * (aq * xq + bq * yq), ap * xq + aq * xp + bp * yq + bq * yp
        g = gcd(den, p, q)
        x = _object_new(QuadNum)
        if g == 1:
            x._p, x._q, x._den = p, q, den
        else:
            x._p, x._q, x._den = p // g, q // g, den // g
        p, q = cp * xp + dp * yp + 2 * (cq * xq + dq * yq), cp * xq + cq * xp + dp * yq + dq * yp
        g = gcd(den, p, q)
        y = _object_new(QuadNum)
        if g == 1:
            y._p, y._q, y._den = p, q, den
        else:
            y._p, y._q, y._den = p // g, q // g, den // g
        v = _object_new(Vec2)
        set_x(v, x)
        set_y(v, y)
        made.append(v)
    return made


def _directions(x: _IntVec, w: _IntVec | None, n: int, den: int, e: int) -> list[Direction]:
    """The Directions of (x + t*w)/(den*sqrt2^e), t = 0..n, each nonzero with y >= 0;
    x and w are ints, and w is read only when n > 0.

    1/sqrt2^e is made rational once, by :func:`_rational`, and each coordinate
    is reduced with one inline gcd, as in :func:`_images`.  When w has no y ints,
    as on every run of 7s (w = ((2+2sqrt2)*y, 0)), the vectors share one y.
    """
    scale, (sp, sq, *_) = _rational((e, _SCALARS[0]))
    den *= scale
    xp, xq, yp, yq = x
    wxp, wxq, wyp, wyq = w if n else (0, 0, 0, 0)
    made, y = [], None
    for _ in range(n + 1):
        p, q = sp * xp + 2 * sq * xq, sp * xq + sq * xp
        g = gcd(den, p, q)
        xs = _object_new(QuadNum)
        if g == 1:
            xs._p, xs._q, xs._den = p, q, den
        else:
            xs._p, xs._q, xs._den = p // g, q // g, den // g
        if y is None or wyp or wyq:
            p, q = sp * yp + 2 * sq * yq, sp * yq + sq * yp
            g = gcd(den, p, q)
            y = _object_new(QuadNum)
            if g == 1:
                y._p, y._q, y._den = p, q, den
            else:
                y._p, y._q, y._den = p // g, q // g, den // g
        made.append(_direction(_vec(xs, y)))
        xp, xq, yp, yq = xp + wxp, xq + wxq, yp + wyp, yq + wyq
    return made


def _matrix(rational: _Rational) -> Mat2:
    """The Mat2 P'/den of :func:`_rational`, one gcd per entry."""
    den, (ap, aq, bp, bq, cp, cq, dp, dq) = rational
    return _mat(
        _reduced(ap, aq, den), _reduced(bp, bq, den), _reduced(cp, cq, den), _reduced(dp, dq, den)
    )


def _frames(entries: Sequence[int]) -> list[tuple[Mat2, _Rational]]:
    """The product of the inverse branches of each nonempty prefix of ``entries``,
    as its Mat2 and its :func:`_rational` form, composed by :func:`_compose`.

    The first Mat2 is ``GAMMA_NU_INV[entries[0]]`` itself.  After a branch that
    fixes (1, 0), entry 7 only, the Mat2 keeps the last one's first column and
    reduces only ``b`` and ``d``.  A list, not a generator: resuming a generator
    once per trace step cost ``trace`` about 1% of ``total_ref``.
    """
    frame, matrix = _INVERSE_BRANCHES[entries[0]], GAMMA_NU_INV[entries[0]]
    frames = [(matrix, _rational(frame))]
    for j in entries[1:]:
        frame = _compose(frame, _INVERSE_BRANCHES[j])
        den, p = rational = _rational(frame)
        if j in _KEEPS_FIRST_COLUMN:
            matrix = _mat(matrix.a, _reduced(p[2], p[3], den), matrix.c, _reduced(p[6], p[7], den))
        else:
            matrix = _matrix(rational)
        frames.append((matrix, rational))
    return frames


def _sign(p: int, q: int) -> int:
    """An int with the sign of p + q*sqrt2, as in numerics.quad_sign: p or q when
    they agree in sign, else the one of larger magnitude, p^2 against 2q^2."""
    return (p or q) if (p >= 0) == (q >= 0) else p if p * p > 2 * q * q else q


def _sectors(xp: int, xq: int, yp: int, yq: int) -> tuple[int, ...]:
    """All sector indices whose closed sector contains the ray of (xp + xq*sqrt2,
    yp + yq*sqrt2), y >= 0.

    Off the horizontals y > 0, so u = x/y >= b exactly when x - b*y >= 0.  A
    fixed tree of three sign tests places u among the decreasing bounds: b = 0
    first, then b = 1 or -1, then 1 + sqrt2, sqrt2 - 1, 1 - sqrt2 or -1 - sqrt2,
    each x - b*y written out for its own b.  u above the bound b_j of its leaf
    is sector j, u below it sector j + 1, and u on any tested bound b_j is the
    tie (j, j+1).  On the horizontals every sign is that of x: theta = 0 is
    sector 0 and theta = pi sector 7.
    """
    s = _sign(xp, xq)  # b_3 = 0
    if s > 0:
        s = _sign(xp - yp, xq - yq)  # b_1 = 1
        if s > 0:
            s = _sign(xp - yp - 2 * yq, xq - yq - yp)  # b_0 = 1 + sqrt2
            return (0,) if s > 0 else (1,) if s else (0, 1)
        if s:
            s = _sign(xp + yp - 2 * yq, xq + yq - yp)  # b_2 = sqrt2 - 1
            return (2,) if s > 0 else (3,) if s else (2, 3)
        return (1, 2)
    if s:
        s = _sign(xp + yp, xq + yq)  # b_5 = -1
        if s > 0:
            s = _sign(xp - yp + 2 * yq, xq - yq + yp)  # b_4 = 1 - sqrt2
            return (4,) if s > 0 else (5,) if s else (4, 5)
        if s:
            s = _sign(xp + yp + 2 * yq, xq + yq + yp)  # b_6 = -1 - sqrt2
            return (6,) if s > 0 else (7,) if s else (6, 7)
        return (5, 6)
    return (3, 4)


def classify(d: Direction) -> tuple[int, ...]:
    """All sector indices whose closed sector contains ``d`` (one or two).

    Each sign is taken on denominator-free ints, with no division.
    """
    return _sectors(*_ints(d.vector)[0])


#: The entries whose branches are parabolic, fixing pi/8 (1) and pi (7).
_PARABOLIC = (1, 7)

#: The admissible entry bytes: the first may be any sector 0..7, the later ones lie in 1..7.
_ADMISSIBLE = re.compile(rb"[\0-\7][\1-\7]*")


def _entry_bytes(entries: Sequence[int]) -> bytes | None:
    """The bytes of ``entries`` if they are ints, the first in 0..7 and the later
    ones in 1..7, else None.

    The type test comes first: bytes() takes True, and 1.0 and True are equal
    to 1.  bytes() then refuses ints outside 0..255, and one match checks the
    ranges.  The slice raises TypeError for entries that are not a sequence,
    such as a set, which bytes() would take.
    """
    if not {int}.issuperset(map(type, entries)):
        return None
    try:
        data = bytes(entries[:])
    except ValueError:
        return None
    return data if _ADMISSIBLE.fullmatch(data) else None


class FareyExpansion(_FrozenValue):
    """A finite window of an octagon Farey itinerary.

    ``entries[0]`` may be 0; all later entries lie in 1..7.  ``tail`` is set
    (to 1 or 7) when the orbit has provably locked onto one of the two fixed
    rays within the window, in which case all later entries equal ``tail``
    and the underlying direction is terminating.  Entries given in another
    sequence are kept as a tuple, so the value is hashable.

    The constructor is the trust boundary for callers' values; :func:`_expansion`
    is the one unchecked builder.
    """

    __slots__ = ("entries", "boundary_hit", "tail")
    _defaults = (False, None)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("an expansion needs at least one entry")
        if _entry_bytes(self.entries) is None:
            raise InadmissiblePrefixError(f"inadmissible entries {self.entries}")
        # True == 1, so the type is tested as for the entries
        if self.tail is not None and (type(self.tail) is not int or self.tail not in _PARABOLIC):
            raise ValueError(f"a tail must be the int 1 or 7, got {self.tail!r}")
        if type(self.entries) is not tuple:
            self._setters[0](self, tuple(self.entries))

    @property
    def terminating(self) -> bool:
        """Whether the window ends on a fixed ray, that is, has a tail."""
        return self.tail is not None

    def __str__(self) -> str:
        head, *rest = map(str, self.entries)
        if self.terminating:
            rest += (str(self.tail), str(self.tail), "...")
        return f"[{head};{','.join(rest)}]"

    def to_json(self) -> dict:
        record = {
            "entries": list(self.entries),
            "boundary_hit": self.boundary_hit,
            "terminating": self.terminating,
        }
        if self.tail is not None:
            record["tail"] = self.tail
        return record


def _expansion(
    entries: tuple[int, ...], boundary_hit: bool, tail: int | None, _setters=FareyExpansion._setters
) -> FareyExpansion:
    """A FareyExpansion from fields that are admissible by construction, with no check.

    The counterpart of ``FareyExpansion(...)`` for :func:`_walk` and
    :func:`dual_expansion`, as ``numerics._direction`` is of ``Direction(...)``.
    Each fact the constructor checks holds there by construction:

    - the walk's entries are sectors 0..7 from :func:`_sectors`, or j + 1 <= 7
      on a tie (j, j+1), and a parabolic run repeats its entry 1 or 7; an
      entry 0 after step 0 raises :class:`WalkInvariantError` in the walk;
    - the tail is one of the literals 1, 7 or None;
    - the dual partner of the last non-tail entry s lies in 1..7, as s is not
      the tail: under a tail of 1 it is s + 1 for an even s or s - 1 for an
      odd s >= 3, under a tail of 7 s + 1 for an odd s <= 5 or s - 1 for an
      even s, and the one -1, from s = 0, is the ray theta = 0, returned as is;
    - every entry is an ``int``: the walk's come from int literals and int
      sums, the dual rule's from the entries of a checked or walked expansion.
    """
    expansion = _object_new(FareyExpansion)
    set_entries, set_hit, set_tail = _setters
    set_entries(expansion, entries)
    set_hit(expansion, boundary_hit)
    set_tail(expansion, tail)
    return expansion


class InadmissiblePrefixError(ValueError):
    """An entry sequence violating "only the first entry may be 0"."""


class WalkInvariantError(RuntimeError):
    """The Farey walk broke an invariant of the exact kernel; a wrong sector
    decision, not the input, is at fault."""


def expand(d: Direction, depth: int, policy: TiePolicy = TiePolicy.LOW) -> FareyExpansion:
    """The first ``depth`` itinerary entries of ``d`` under the Farey map."""
    return _walk(d, depth, policy)[0]


def _walk(
    d: Direction, depth: int, policy: TiePolicy
) -> tuple[FareyExpansion, int, list[tuple[int, bool, _IntVec, int, _IntVec | None, int]]]:
    """The Farey orbit of ``d`` on integral vectors, with its expansion.

    Returns the expansion, the denominator ``den`` and one ``(j, tie, x, e, w,
    n)`` per step into a sector: entry j, whether the iterate sat on a sector
    boundary, the image x/(den*sqrt2^e), and the n further steps of a
    parabolic run, whose images are x + t*w for t = 1..n.

    The iterate is four local ints.  A step takes one :func:`_sectors` on
    them, resolves a tie by the policy, applies the integral branch as
    :func:`_images` does and strips sqrt2 as :func:`_compose` does, in place.

    Each step checks two kernel invariants, no entry 0 after step 0 (see
    :func:`_expansion`) and no negative run length, raising
    :class:`WalkInvariantError` with the step.

    M = GAMMA_NU[j] for j = 1, 7 is unipotent, so from the iterate v the images
    are M^t x = x + t*w with w = (M - I)v.  If w = 0, v is the fixed ray and
    every later step repeats this one, tie included.  Otherwise the orbit
    moves away from the fixed ray, an end of sector j, towards the other end
    b.  The iterate is strictly inside sector j exactly while cross(x + t*w, b)
    = c0 + t*c1 is positive, and c1 < 0 on the open sector, so the iterates
    inside are those with t < ceil(-c0/c1) if c0 > 0, none otherwise; each
    takes entry j with no tie, and the iterate after them is left to the
    ordinary step, which decides its ties.  The fixed ray has c0 > 0 too
    (sqrt2 for j = 1, 1 for j = 7), so c0 is tested before w is built.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    (xp, xq, yp, yq), den = _ints(d.vector)
    e, high, hit = 0, policy is TiePolicy.HIGH, False
    entries, steps = [], []
    while len(entries) < depth:
        sectors = _sectors(xp, xq, yp, yq)
        j, tie = sectors[0], len(sectors) > 1
        # on the tie (j, j+1) HIGH takes j+1, and so does LOW after step 0 on (0, 1)
        if tie and (high or not j and entries):
            j += 1
        if not j and entries:  # every iterate after step 0 lies in [pi/8, pi]
            raise WalkInvariantError(f"entry 0 at step {len(entries)}")
        hit = hit or tie
        k, (ap, aq, bp, bq, cp, cq, dp, dq) = _BRANCHES[j]
        e += k
        x = (
            ap * xp + bp * yp + 2 * (aq * xq + bq * yq),
            ap * xq + aq * xp + bp * yq + bq * yp,
            cp * xp + dp * yp + 2 * (cq * xq + dq * yq),
            cp * xq + cq * xp + dp * yq + dq * yp,
        )
        w, n = None, 0
        if j in _PARABOLIC:
            c0p, c0q = _cross(x, _RUN_EXIT[j])
            if _sign(c0p, c0q) > 0:
                v = (2 * xq, xp, 2 * yq, yp) if k else (xp, xq, yp, yq)
                w = (x[0] - v[0], x[1] - v[1], x[2] - v[2], x[3] - v[3])  # x - sqrt2^k * v
                n = _run_length(j, c0p, c0q, w, depth - len(entries) - 1)
                if n < 0:  # the iterate is outside sector j, and the walk would stall
                    raise WalkInvariantError(
                        f"negative parabolic run length {n} at entry {j}, step {len(entries)}"
                    )
        steps.append((j, tie, x, e, w, n))
        if n:
            entries += [j] * (n + 1)
            xp, xq, yp, yq = x[0] + n * w[0], x[1] + n * w[1], x[2] + n * w[2], x[3] + n * w[3]
        else:
            entries.append(j)
            xp, xq, yp, yq = x
        while not (xp & 1 or yp & 1):  # strip sqrt2 as _compose does
            xp, xq, yp, yq, e = xq, xp >> 1, yq, yp >> 1, e - 1
    # a fixed ray is fixed by the step it takes, so the last iterate decides the
    # tail; it lies in [pi/8, pi], where y = 0 is the ray pi
    tail = 7 if yp == yq == 0 else 1 if (xp, xq) == (yp + 2 * yq, yp + yq) else None
    return _expansion(tuple(entries), hit, tail), den, steps


def _run_length(j: int, c0p: int, c0q: int, w: _IntVec, room: int) -> int:
    """How many steps of the parabolic entry j follow the step to x, at most ``room``,
    given c0 = cross(x, _RUN_EXIT[j]) = c0p + c0q*sqrt2 > 0."""
    if not any(w):
        return room
    c1p, c1q = _cross(w, _RUN_EXIT[j])
    # c0/c1 = c0*conj(c1)/N(c1), over a positive denominator
    p, q, norm = c0p * c1p - 2 * c0q * c1q, c0q * c1p - c0p * c1q, c1p * c1p - 2 * c1q * c1q
    if norm < 0:
        p, q, norm = -p, -q, -norm
    return min(room, -quad_floor(p, q, norm, 2))


def _expand_orbit(
    d: Direction, depth: int, policy: TiePolicy
) -> tuple[FareyExpansion, list[tuple[int, bool, Direction]]]:
    """:func:`expand` together with its orbit, from one pass of the Farey map.

    The orbit holds ``(entry, tie, image)`` per step: the sector entry, whether
    the iterate sat on a sector boundary, and the next iterate, built from the
    walk's ints by :func:`_directions`, one call per walk step.  On sector j,
    M keeps y >= 0, so the run images are the exact vectors of single steps.
    """
    expansion, den, steps = _walk(d, depth, policy)
    orbit = []
    for j, tie, x, e, w, n in steps:
        # on the fixed ray (w = 0) each further step of the run repeats this one
        image, *run = _directions(x, w, n if n and any(w) else 0, den, e)
        orbit.append((j, tie, image))
        orbit += [(j, False, i) for i in run] if run else [(j, tie, image)] * n
    return expansion, orbit


#: The ray at angle j*pi/8 for j = 0..8, as ints: (1, 0), (SECTOR_BOUNDS[j-1], 1)
#: for j = 1..7, and (-1, 0); every bound has denominator 1.
_END_INTS: tuple[_IntVec, ...] = (
    (1, 0, 0, 0),
    *((*b.ints[:2], 1, 0) for b in SECTOR_BOUNDS),
    (-1, 0, 0, 0),
)

#: The end of sector j that a parabolic run leaves through, 2pi/8 for j = 1 and
#: 7pi/8 for j = 7, oriented so that the sector's interior has positive cross.
_RUN_EXIT = {1: _END_INTS[2], 7: tuple(-i for i in _END_INTS[7])}


def _boundary_direction(j: int) -> Direction:
    """The direction with angle j*pi/8, for j = 0..8."""
    return _directions(_END_INTS[j], None, 0, 1, 0)[0]


class RP1Interval(_FrozenValue):
    """A closed interval of directions, endpoints in increasing angle order.

    Immutable, with value equality and hashing over ``(lo, hi)``.
    """

    __slots__ = ("lo", "hi")

    def __post_init__(self):
        if theta_cmp(self.lo, self.hi) > 0:
            raise ValueError("interval endpoints out of order")

    def contains(self, d: Direction) -> bool:
        return theta_cmp(self.lo, d) <= 0 <= theta_cmp(self.hi, d)

    def theta_width(self) -> float:
        return self.hi.theta_float() - self.lo.theta_float()

    def to_json(self) -> dict:
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json()}

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


#: The parabolic runs of a prefix's bytes: two or more equal entries 1 or 7.
_RUNS = re.compile(rb"\x01{2,}|\x07{2,}")


def _compose_plain(frame: _Frame, plain: bytes) -> _Frame:
    """``frame`` composed with the inverse branches of the entries ``plain``, three
    at a time through :func:`_blocks`; the last block may be shorter."""
    blocks = _blocks()
    for i in range(0, len(plain), 3):
        frame = _compose(frame, blocks[plain[i : i + 3]])
    return frame


def reconstruct(prefix) -> RP1Interval:
    """The exact direction interval of all expansions starting with ``prefix``.

    The interval is the sector of the last entry pulled back through the
    inverse branches of the earlier entries; prefixes of growing length give
    nested intervals shrinking to the coded direction.  The inverse branches
    are composed into one integral matrix P/sqrt2^e, which pulls both
    endpoints back at once.  A run of n equal parabolic entries j = 1, 7 is
    one factor: its inverse branch M is unipotent, so M^n = I + n(M - I).
    One regular expression finds the runs in the bytes of the earlier
    entries, which the admissibility check returns, and the plain stretches
    between them are composed three entries at a time through :func:`_blocks`,
    with a shorter block for the remainder.  :func:`_images` applies the frame
    to both sector ends.  Each branch keeps y >= 0 on [pi/8, pi], so the
    endpoints are the exact vectors of single steps.  det GAMMA_NU_INV[j] is -1
    exactly for even j, so the ends come out reversed exactly when the earlier
    entries hold an odd number of even entries.
    """
    entries = tuple(prefix.entries) if isinstance(prefix, FareyExpansion) else tuple(prefix)
    if not entries:
        raise InadmissiblePrefixError("empty prefix")
    data = _entry_bytes(entries)
    if data is None:
        raise InadmissiblePrefixError(f"inadmissible prefix {entries}")
    body = data[:-1]
    frame, start = (0, _SCALARS[0]), 0
    for run in _RUNS.finditer(body):
        frame = _compose_plain(frame, body[start : run.start()])
        n, start = run.end() - run.start(), run.end()
        k, m = _INVERSE_BRANCHES[body[start - 1]]
        frame = _compose(frame, (k, tuple(i + n * (a - i) for i, a in zip(_SCALARS[k], m))))
    frame = _compose_plain(frame, body[start:])
    # the sector ends have denominator 1
    last = entries[-1]
    ends = _images(_rational(frame), ((_END_INTS[last], 1), (_END_INTS[last + 1], 1)))
    if sum(map(body.count, b"\0\2\4\6")) & 1:
        ends.reverse()
    return RP1Interval(*map(_direction, ends))


def dual_expansion(e: FareyExpansion) -> FareyExpansion:
    """The other expansion of a terminating direction.

    Eventually-constant tails of 1 pair across an even last non-tail entry,
    tails of 7 across an odd one; the two horizontal rays (entry sequences
    [0;7,7,...] and [7;7,7,...]) have no partner and map to themselves.  The
    last non-tail entry is found by stripping the tail from the bytes of the
    entries, which are ints in 0..7.
    """
    if e.tail is None:
        raise ValueError("dual expansions exist only for terminating directions")
    entries = e.entries
    k = len(bytes(entries).rstrip(bytes((e.tail,)))) - 1
    if k < 0:
        # all shown entries equal the tail
        if e.tail == 1:
            return _expansion((0,) + entries[1:], e.boundary_hit, 1)
        return e  # the ray theta = pi is self-dual
    s = entries[k]
    if e.tail == 1:
        partner = s + 1 if s % 2 == 0 else s - 1
    else:
        partner = s + 1 if s % 2 == 1 else s - 1
    if partner < 0:  # s = 0 under a tail of 7
        return e  # the ray theta = 0 is self-dual
    return _expansion(entries[:k] + (partner,) + entries[k + 1 :], e.boundary_hit, e.tail)
