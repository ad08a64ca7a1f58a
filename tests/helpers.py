"""Shared test utilities: exact strategies, cone predicates and reference drivers."""

from __future__ import annotations

import copy
import pickle
import random
import re
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import strategies as st

from octocf.classical import GeometricConvergents, QuadraticIrrational
from octocf import h2moves
from octocf.diagch import (
    CombDatum,
    HitsSingularity,
    LabeledQuadrangulation,
    QuadrangulationError,
    Side,
    TrainTrackError,
    Wedge,
)
from octocf.farey import (
    GAMMA,
    GAMMA_NU,
    GAMMA_NU_INV,
    NU,
    SECTOR_BOUNDS,
    Direction,
    FareyExpansion,
    RP1Interval,
    TiePolicy,
    _boundary_direction,
    _expand_orbit,
    classify,
    expand,
    theta_cmp,
)
from octocf.h2moves import (
    QPRIME_COMB,
    MoveWord,
    RawToken,
    SectorWordError,
    resolved_word,
    sector_matrix,
)
from octocf.intmat import IntMat
from octocf.numerics import Mat2, QuadNum, QuadNumParseError, Vec2, quad_sign, to_decimal
from octocf.octagon import (
    OCTAGON_AREA,
    ExpansionTrace,
    TraceStep,
    _wedges,
    _WordRun,
    q_zero,
    qprime,
    sector_midpoint,
)

#: Python's default int-to-string limit, assumed by the tests that pin
#: 4300-digit messages or print longer ints (fixture ``default_digit_limit``).
DEFAULT_MAX_STR_DIGITS = 4300


def fractions(max_num=60, max_den=12):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def quadnums(max_num=60, max_den=12):
    return st.builds(QuadNum, fractions(max_num, max_den), fractions(max_num, max_den))


def nonzero_quadnums():
    return quadnums().filter(lambda q: not q.is_zero())


# -- exact literals as Fraction reads and writes them ---------------------------------
#
# The oracle of QuadNum's text boundary: each coefficient goes through Fraction,
# with the refusals QuadNum makes, so the int-backed reader and writer can be
# compared with it on any literal.

_RATIONAL_LITERAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def reference_coefficient(text) -> Fraction:
    """One rational coefficient literal, ``-3`` or ``7/2``, read by Fraction."""
    if not isinstance(text, str):
        raise QuadNumParseError(f"expected a string coefficient, got {type(text).__name__}")
    if not _RATIONAL_LITERAL.fullmatch(text):
        raise QuadNumParseError(f"expected an exact rational like -3/2, got {text[:40]!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise QuadNumParseError(f"zero denominator in {text!r}") from None
    except ValueError:  # past the digit limit, which only Pythons that have one apply
        raise ValueError(
            f"an exact literal has more than {sys.get_int_max_str_digits()} digits, past "
            "Python's int-to-string limit"
        ) from None


def reference_parse(text: str) -> QuadNum:
    """``QuadNum.parse`` with each coefficient read by :func:`reference_coefficient`."""
    s = text.strip().replace(" ", "")
    s = s.replace("√2", "@").replace("sqrt(2)", "@").replace("sqrt2", "@").replace("*@", "@")
    if not s:
        raise QuadNumParseError("empty literal")
    if "@" not in s:
        if not _RATIONAL_LITERAL.fullmatch(s):
            raise QuadNumParseError(f"cannot parse {text!r} as an element of Q(sqrt(2))")
        return QuadNum(reference_coefficient(s))
    m = re.fullmatch(
        r"(?:(?P<ra>[+-]?\d+(?:/\d+)?)(?=[+-]))?(?P<sb>[+-])?(?P<rb>\d+(?:/\d+)?)?@", s
    )
    if not m:
        raise QuadNumParseError(f"cannot parse {text!r} as an element of Q(sqrt(2))")
    a = reference_coefficient(m.group("ra")) if m.group("ra") else Fraction(0)
    b = reference_coefficient(m.group("rb")) if m.group("rb") else Fraction(1)
    return QuadNum(a, -b if m.group("sb") == "-" else b)


def reference_from_json(obj: dict) -> QuadNum:
    return QuadNum(reference_coefficient(obj["a"]), reference_coefficient(obj["b"]))


def reference_parts(q: QuadNum) -> tuple[Fraction, Fraction]:
    """The rational part and the coefficient of sqrt(2), from the canonical ints."""
    p, r, den = q.ints
    return Fraction(p, den), Fraction(r, den)


def reference_to_json(q: QuadNum) -> dict:
    a, b = reference_parts(q)
    return {"a": str(a), "b": str(b)}


def reference_str(q: QuadNum) -> str:
    a, b = reference_parts(q)
    if b == 0:
        return str(a)
    tail = "sqrt(2)" if abs(b) == 1 else f"{abs(b)}*sqrt(2)"
    sign = "-" if b < 0 else ("+" if a != 0 else "")
    return f"{'' if a == 0 else a}{sign}{tail}"


def reference_repr(q: QuadNum) -> str:
    a, b = reference_parts(q)
    return f"QuadNum({a!r}, {b!r})"


def reference_u_text(d: Direction) -> str:
    x, y = d.vector.x, d.vector.y
    return "inf" if y.is_zero() else reference_str(x / y)


def reference_to_decimal(q: QuadNum, digits: int) -> str:
    """``numerics.to_decimal`` as it was written on Fraction: the rational
    value's round-half-even, or floor(value + 1/2) of an irrational one."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scaled = q * 10**digits
    if scaled.b == 0:
        n = round(scaled.a)  # Fraction rounds half to even
    else:
        n = (scaled + Fraction(1, 2)).floor()
    sign = "-" if n < 0 else ""
    intpart, fracpart = divmod(abs(n), 10**digits)
    return f"{sign}{intpart}.{fracpart:0{digits}d}"


def check_decimal_integer_part(limit: int) -> None:
    """``to_decimal`` at the live digit limit ``limit``: an integer part of
    ``limit`` digits prints, and a value that rounds to one more is refused by
    name, decided exactly next to the bound 10**limit - 1/200 of two places."""
    top = 10**limit
    below = QuadNum(Fraction(1393, 985), -1)  # sqrt(2) - 1393/985: just below 0
    for value, text in [
        (QuadNum(top - 1), f"{top - 1}.00"),
        (QuadNum(Fraction(100 * top - 1, 100)), f"{top - 1}.99"),
        (QuadNum(Fraction(200 * top - 1, 200)) + below, f"{top - 1}.99"),
        (-QuadNum(Fraction(200 * top - 1, 200)) - below, f"-{top - 1}.99"),
    ]:
        assert to_decimal(value, 2) == text
    message = f"^the integer part has more than {limit} digits, past Python's int-to-string limit$"
    for value in [
        QuadNum(top),
        QuadNum(-top),
        QuadNum(top, 1),
        QuadNum(10 ** (limit + 100)),
        QuadNum(Fraction(200 * top - 1, 200)),  # a tie, rounded to the even 10**limit
        QuadNum(Fraction(-200 * top + 1, 200)),
        QuadNum(Fraction(200 * top - 1, 200)) - below,
    ]:
        with pytest.raises(ValueError, match=message):
            to_decimal(value, 2)


def outcome(f, *args):
    """``f(*args)``, or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def rational_literals():
    """Coefficient literals as a user or a file writes them: signs, ``+3``, zero,
    leading zeros, unit and non-unit denominators, unreduced (``4/6``, ``-0/3``)."""
    digits = st.one_of(
        st.integers(min_value=0, max_value=10**30).map(str),
        st.integers(min_value=0, max_value=99).map(lambda n: f"0{n}"),
    )
    denominators = st.one_of(
        st.just(""), st.integers(min_value=1, max_value=10**20).map(lambda n: f"/{n}")
    )
    return st.builds(
        lambda sign, n, d: f"{sign}{n}{d}", st.sampled_from(["", "+", "-"]), digits, denominators
    )


def quadnum_literals():
    """Literals ``QuadNum.parse`` reads: a rational, or a rational part and a
    coefficient of sqrt(2) in either spelling, with or without ``*`` and spaces."""
    radicals = st.sampled_from(["sqrt(2)", "sqrt2", "√2", "*sqrt(2)", "*√2", "*sqrt2"])
    unsigned = rational_literals().map(lambda t: t.lstrip("+-"))

    def join(head, sign, coefficient, radical, spaced):
        text = f"{head}{sign}{coefficient}{radical}"
        return f" {head} {sign} {coefficient}{radical} " if spaced else text

    irrational = st.builds(
        join,
        st.one_of(st.just(""), rational_literals()),
        st.sampled_from(["+", "-"]),
        st.one_of(st.just(""), unsigned),
        radicals,
        st.booleans(),
    )
    return st.one_of(rational_literals(), irrational)


def check_value_type(values, fields: tuple[str, ...]) -> None:
    """``values`` behave as instances of a frozen dataclass over ``fields``.

    ``==`` and the hash are those of the field tuples, the fields and any
    other attribute refuse assignment and deletion with AttributeError, and
    copies and pickles compare equal.
    """

    def key(x):
        return tuple(getattr(x, name) for name in fields)

    for x in values:
        assert hash(x) == hash(key(x))
        assert x != key(x)
        assert copy.copy(x) == x and copy.deepcopy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        for y in values:
            assert (x == y) == (key(x) == key(y))
            assert (x != y) == (key(x) != key(y))


# The bilinear 2x2 forms by the composed field operators, one reduction per
# operator: the `==` oracles of the one-reduction kernel in `numerics`.


def reference_apply(m: Mat2, v: Vec2) -> Vec2:
    return Vec2(m.a * v.x + m.b * v.y, m.c * v.x + m.d * v.y)


def reference_matmul(m: Mat2, n: Mat2) -> Mat2:
    return Mat2(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def reference_quad(p: int, q: int, den: int, e: int) -> QuadNum:
    """(p + q*sqrt2)/(den*sqrt2^e) by the field operators, one coordinate at a time:
    the `==` oracle of `farey._images` and `farey._matrix` under `farey._rational`, and
    of `farey._directions`."""
    x = QuadNum(Fraction(p, den), Fraction(q, den))
    step = QuadNum(0, Fraction(1, 2)) if e > 0 else QuadNum(0, 1)  # 1/sqrt2 or sqrt2
    for _ in range(abs(e)):
        x = x * step
    return x


def reference_det(m: Mat2) -> QuadNum:
    return m.a * m.d - m.b * m.c


def reference_cross(v: Vec2, w: Vec2) -> QuadNum:
    return v.x * w.y - v.y * w.x


def reference_dot(v: Vec2, w: Vec2) -> QuadNum:
    return v.x * w.x + v.y * w.y


# The staircase rules written out per side, each move's mirror in its own
# branch, and permutations composed from an inverse: the `==` oracles of the
# one slot rule, the one area expression and the one-pass conjugation in `diagch`.


def perm_compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, img in enumerate(p, start=1):
        inv[img - 1] = i
    return tuple(inv)


def reference_conjugate(sigma: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    return perm_compose(perm_compose(sigma, p), perm_inverse(sigma))


def reference_after_move(comb: CombDatum, side: Side, cycle: tuple[int, ...]) -> CombDatum:
    pi_l, pi_r = list(comb.pi_l), list(comb.pi_r)
    for i in cycle:
        if side is Side.PI_R:
            pi_l[i - 1] = comb.pi_l[comb.pi_r[i - 1] - 1]
        else:
            pi_r[i - 1] = comb.pi_r[comb.pi_l[i - 1] - 1]
    return CombDatum(comb.k, tuple(pi_l), tuple(pi_r))


def reference_elementary_entries(comb: CombDatum, cycle: tuple[int, ...], side: Side):
    """The (row, column) ones of the move's matrix over the basis (1,l),(1,r),...,(k,r)."""
    if side is Side.PI_R:
        return [(2 * (i - 1), 2 * (comb.pi_l[i - 1] - 1) + 1) for i in cycle]
    return [(2 * (i - 1) + 1, 2 * (comb.pi_r[i - 1] - 1)) for i in cycle]


def reference_doubled_area(w: Wedge, diagonal: Vec2) -> QuadNum:
    """Twice the area of the quadrilateral with wedge ``w`` and ``diagonal``."""
    return w.r.cross(diagonal) + diagonal.cross(w.l)


def reference_state_check(comb: CombDatum, wedges, ref_dir: Direction) -> None:
    """``LabeledQuadrangulation``'s check as it was written on QuadNum and Vec2
    values, each sum reduced and each sign read from a reduced cross product:
    the oracle of the check on unreduced ints, refusals and messages included."""
    if len(wedges) != comb.k:
        raise QuadrangulationError("need one wedge per quadrilateral")
    for i in range(1, comb.k + 1):
        w = wedges[i - 1]
        left_path = w.l + wedges[comb.pi_l[i - 1] - 1].r
        right_path = w.r + wedges[comb.pi_r[i - 1] - 1].l
        if left_path != right_path:
            raise TrainTrackError(
                f"train-track relation fails at quadrilateral {i}: {left_path} != {right_path}"
            )
        if w.r.cross(w.l).sign() <= 0:
            raise QuadrangulationError(f"wedge {i} does not open a positive cone")
        if (w.r - w.l).cross(left_path).sign() <= 0:
            raise QuadrangulationError(f"quadrilateral {i} has non-positive area")
        v = ref_dir.vector
        if not v.cross(w.l).sign() >= 0 >= v.cross(w.r).sign():
            raise QuadrangulationError(
                f"reference direction leaves the wedge cone of quadrilateral {i}"
            )


def word_plan(word: MoveWord) -> tuple[RawToken, ...]:
    """A reduced word's move plans concatenated: resolved from the word's start,
    the `==` oracle of ``h2moves.compose_word``."""
    return tuple(token for m in word.moves for token in h2moves._MOVE_PLANS[m][1])


# The projective line over Q(sqrt(2)) for the Moebius oracle: a point is a
# QuadNum, or None for infinity.


def inverse_slope(d: Direction) -> QuadNum | None:
    """The inverse slope u = x/y of ``d``, None on both horizontal rays."""
    x, y = d.vector.x, d.vector.y
    return None if y.is_zero() else x / y


def moebius(m: Mat2, u: QuadNum | None) -> QuadNum | None:
    """The Moebius action (a*u+b)/(c*u+d) on the projective line, total on RP^1."""
    if m.det().is_zero():
        raise ValueError("Moebius action requires an invertible matrix")
    if u is None:
        if m.c.is_zero():
            return None
        return m.a / m.c
    den = m.c * u + m.d
    if den.is_zero():
        return None
    return (m.a * u + m.b) / den


def matvec(a: IntMat, v):
    """Apply ``a`` to a sequence whose entries support + and integer scaling."""
    n = len(a)
    assert len(v) == n
    out = []
    for i in range(n):
        acc = None
        for j, c in enumerate(a[i]):
            if c == 0:
                continue
            term = v[j] if c == 1 else _scale(v[j], c)
            acc = term if acc is None else acc + term
        if acc is None:
            raise ValueError("matrix has a zero row")
        out.append(acc)
    return tuple(out)


def int_det(a: IntMat) -> int:
    """Exact determinant of an int matrix by fraction-free (Bareiss) elimination.

    After step k every remaining entry is a (k+1) x (k+1) minor of ``a``, so
    the division by the previous pivot is exact and all work stays in ints.
    """
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * prev


def _scale(x, c: int):
    if isinstance(x, int):
        return x * c
    if hasattr(x, "scale"):
        return x.scale(c)
    return x * c


# The torus baseline on the ints (a, b, c, d) of alpha = (a + b*sqrt(d))/c:
# the lattice vector (p, q) is off the line by c*(q*alpha - p) = x + y*sqrt(d)
# with x = q*a - p*c and y = q*b.


def exact_ints(x) -> tuple[int, int, int, int]:
    """(a, b, c, d) with x = (a + b*sqrt(d))/c and c > 0."""
    if isinstance(x, QuadraticIrrational):
        return x.a, x.b, x.c, x.d
    if isinstance(x, QuadNum):
        p, q, den = x.ints
        return p, q, den, 2
    x = Fraction(x)
    return x.numerator, 0, x.denominator, 0


def _offset(ints, v) -> tuple[int, int]:
    a, b, c, _ = ints
    p, q = v
    return q * a - p * c, q * b


def error_cmp(alpha, v1, v2) -> int:
    """The sign of |q1*alpha - p1| - |q2*alpha - p2| for lattice vectors (p, q).

    It is the sign of E1^2 - E2^2 in Z[sqrt(d)] for the offsets E = x + y*sqrt(d).
    """
    ints = exact_ints(alpha)
    d = ints[3]
    (x1, y1), (x2, y2) = _offset(ints, v1), _offset(ints, v2)
    return quad_sign(x1 * x1 + d * y1 * y1 - x2 * x2 - d * y2 * y2, 2 * (x1 * y1 - x2 * y2), d)


def reference_geometric_convergents(alpha, n: int) -> GeometricConvergents:
    """``geometric_convergents`` by its definition, with sign tests only.

    Each step adds the newer vector to the older one, one at a time, while the
    sum stays on the older vector's side of the line; landing on the line ends
    the step and the construction.
    """
    ints = exact_ints(alpha)

    def side(v):
        return quad_sign(*_offset(ints, v), ints[3])

    older, newer = (0, 1), (1, 0)
    digits, vectors = [], []
    for _ in range(n):
        keep = side(older)
        digit, vec = 0, older
        while side(vec) == keep:
            nxt = (vec[0] + newer[0], vec[1] + newer[1])
            if side(nxt) == -keep:
                break
            digit, vec = digit + 1, nxt
        digits.append(digit)
        vectors.append(vec)
        if side(vec) == 0:
            return GeometricConvergents(tuple(digits), tuple(vectors), True)
        older, newer = newer, vec
    return GeometricConvergents(tuple(digits), tuple(vectors), False)


def reference_gauss_step(x):
    """``gauss_step`` with the digit found by sign tests: the largest k with k*x <= 1."""
    a, b, c, d = exact_ints(x)
    digit = 1
    while quad_sign(c - (digit + 1) * a, -(digit + 1) * b, d) >= 0:
        digit += 1
    if isinstance(x, QuadraticIrrational):
        norm = a * a - d * b * b  # 1/x = c*(a - b*sqrt(d))/norm
        return digit, QuadraticIrrational(c * a - digit * norm, -c * b, norm, d)
    return digit, 1 / x - digit


def interior_directions():
    """Directions with exact rational u, avoiding the sector boundaries."""
    return (
        st.fractions(min_value=-100, max_value=100)
        .map(lambda u: Direction(Vec2(QuadNum(u), QuadNum(1))))
        .filter(lambda d: d.vector.x not in (QuadNum(1), QuadNum(0), QuadNum(-1)))
    )


def _deep_iterate(u: Fraction, k: int, policy: TiePolicy) -> Direction:
    _, orbit = _expand_orbit(Direction(Vec2(QuadNum(u), QuadNum(1))), k + 1, policy)
    return orbit[-1][2]


def classify_directions():
    """Random, deep-orbit, sector-bound and horizontal directions."""
    positive = nonzero_quadnums().map(abs)
    random_dirs = st.builds(Vec2, quadnums(), quadnums()).filter(lambda v: not v.is_zero())
    return st.one_of(
        random_dirs.map(Direction),
        st.builds(
            _deep_iterate,
            fractions(10**6, 10**4),
            st.integers(0, 40),
            st.sampled_from(list(TiePolicy)),
        ),
        st.builds(
            lambda j, c: Direction(_boundary_direction(j).vector.scale(c)),
            st.integers(0, 8),
            positive,
        ),
        st.builds(lambda c: Direction(Vec2(c, 0)), nonzero_quadnums()),
    )


def reference_classify(d: Direction) -> tuple[int, ...]:
    """``farey.classify`` by one division u = x/y and a comparison with each of the seven bounds."""
    if d.is_theta_zero:
        return (0,)
    if d.is_theta_pi:
        return (7,)
    u = d.vector.x / d.vector.y
    side = [(u - b).sign() for b in SECTOR_BOUNDS]  # the sign of u - cot((j+1)pi/8)
    sectors = []
    for j in range(8):
        above = j == 7 or side[j] >= 0  # u >= cot((j+1)pi/8)
        below = j == 0 or side[j - 1] <= 0  # u <= cot(j pi/8)
        if above and below:
            sectors.append(j)
    return tuple(sectors)


def reference_sectors(v) -> tuple[int, ...]:
    """``farey._sectors`` on the ints (xp, xq, yp, yq) of a vector with y >= 0, by a
    linear scan of the seven decreasing bounds: the first with u >= b decides."""
    xp, xq, yp, yq = v
    for j, bound in enumerate(SECTOR_BOUNDS):
        bp, bq, _ = bound.ints
        s = quad_sign(xp - bp * yp - 2 * bq * yq, xq - bp * yq - bq * yp, 2)
        if s > 0:
            return (j,)
        if s == 0:
            return (j, j + 1)
    return (7,)


def reference_theta_cmp(d1: Direction, d2: Direction) -> int:
    """``farey.theta_cmp`` by the canonical cross and dot products."""
    side = d1.vector.cross(d2.vector).sign()
    if side or d1.vector.dot(d2.vector).sign() > 0:
        return -side
    return -1 if d1.is_theta_zero else 1


def reference_choose_sector(d: Direction, step: int, policy: TiePolicy) -> tuple[int, bool]:
    """The tie policy on :func:`reference_classify`: entry 0 only at step 0."""
    sectors = reference_classify(d)
    admissible = [j for j in sectors if j != 0 or step == 0]
    pick = min if policy is TiePolicy.LOW else max
    return pick(admissible), len(sectors) > 1


def fold(d: Direction, policy: TiePolicy = TiePolicy.LOW, step: int = 0) -> tuple[int, Direction]:
    """Fold ``d`` into sector 0 by the dihedral element nu_j of its sector j."""
    j, _ = reference_choose_sector(d, step, policy)
    return j, Direction(NU[j].apply(d.vector))


def farey_step(
    d: Direction, policy: TiePolicy = TiePolicy.LOW, step: int = 0
) -> tuple[int, Direction]:
    """One step of the Farey map F = gamma . fold, as the paper defines it: the
    sector entry and the image."""
    j, folded = fold(d, policy, step)
    return j, Direction(GAMMA.apply(folded.vector))


_FIXED_RAY_PI8 = Direction(Vec2(QuadNum(1, 1), QuadNum(1)))


def reference_expand_orbit(
    d: Direction, depth: int, policy: TiePolicy = TiePolicy.LOW
) -> tuple[FareyExpansion, list[tuple[int, bool, Direction]]]:
    """``farey._expand_orbit`` by one matrix step of the Farey map per entry."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    orbit = []
    boundary_hit = False
    tail = None
    cur = d
    for k in range(depth):
        j, tie = reference_choose_sector(cur, k, policy)
        boundary_hit = boundary_hit or tie
        cur = Direction(GAMMA_NU[j].apply(cur.vector))
        orbit.append((j, tie, cur))
        if cur.is_theta_pi:
            tail = 7
        elif cur.ray_eq(_FIXED_RAY_PI8):
            tail = 1
    expansion = FareyExpansion(
        entries=tuple(j for j, _, _ in orbit),
        boundary_hit=boundary_hit,
        tail=tail,
    )
    return expansion, orbit


def reference_reconstruct(entries) -> RP1Interval:
    """``farey.reconstruct`` by one inverse branch per entry (admissible entries only)."""
    last = entries[-1]
    ends = [_boundary_direction(last), _boundary_direction(last + 1)]
    for s in reversed(entries[:-1]):
        inv = GAMMA_NU_INV[s]
        ends = [Direction(inv.apply(e.vector)) for e in ends]
    if theta_cmp(ends[0], ends[1]) <= 0:
        return RP1Interval(ends[0], ends[1])
    return RP1Interval(ends[1], ends[0])


def reference_dual_expansion(e: FareyExpansion) -> FareyExpansion:
    """``farey.dual_expansion`` with the last non-tail entry found by a loop over the entries."""
    if e.tail is None:
        raise ValueError("dual expansions exist only for terminating directions")
    entries = list(e.entries)
    k = len(entries) - 1
    while k >= 0 and entries[k] == e.tail:
        k -= 1
    if k < 0:
        # all shown entries equal the tail
        if e.tail == 1:
            entries[0] = 0
            return FareyExpansion(tuple(entries), e.boundary_hit, 1)
        return e  # the ray theta = pi is self-dual
    s = entries[k]
    if e.tail == 1:
        partner = s + 1 if s % 2 == 0 else s - 1
    else:
        partner = s + 1 if s % 2 == 1 else s - 1
    if partner < 0 or (partner == 0 and k != 0):
        return e  # the ray theta = 0 is self-dual
    entries[k] = partner
    return FareyExpansion(tuple(entries), e.boundary_hit, e.tail)


def pulled_back(v: Vec2, runs) -> Direction:
    """``v`` pulled back through the inverse branches of the run-length word ``runs``."""
    for j, n in reversed(runs):
        for _ in range(n):
            v = GAMMA_NU_INV[j].apply(v)
    return Direction(v)


def height_direction(rng: random.Random, bits: int) -> Direction:
    """A direction whose coordinates have coefficients of about ``bits`` bits."""

    def coefficient():
        return rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1))

    def coordinate():
        return QuadNum(Fraction(coefficient(), abs(coefficient())), coefficient())

    return Direction(Vec2(coordinate(), coordinate()))


def random_clean_direction(rng: random.Random, steps: int) -> Direction:
    """A rational-u direction whose orbit avoids boundaries for `steps` steps."""
    while True:
        u = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
        d = Direction(Vec2(QuadNum(u), QuadNum(1)))
        e = expand(d, steps + 1)
        if not e.boundary_hit and not e.terminating:
            return d


def normalize_cone(a: Vec2, b: Vec2) -> tuple[Vec2, Vec2]:
    """Order two cone rays as (left, right) with a positive opening."""
    return (a, b) if b.cross(a).sign() > 0 else (b, a)


def strictly_straddled(state: LabeledQuadrangulation) -> bool:
    """Whether the reference direction lies strictly inside every wedge cone of ``state``."""
    d = state.ref_dir.vector
    return all(d.cross(w.l).sign() > 0 > d.cross(w.r).sign() for w in state.wedges)


def cone_contains_cone(outer, inner) -> bool:
    outer_l, outer_r = outer
    for v in inner:
        if outer_r.cross(v).sign() < 0 or v.cross(outer_l).sign() < 0:
            return False
    return True


def cones_of(vectors) -> list[tuple[Vec2, Vec2]]:
    return [normalize_cone(vectors[2 * j], vectors[2 * j + 1]) for j in range(len(vectors) // 2)]


def initial_quadrangulation(s0: int, ref_dir: Direction | None = None) -> LabeledQuadrangulation:
    """The start state ``nu_{s0}^{-1} Q0`` for directions in sector s0: the oracle that
    a trace's initial wedges, taken back to the original frame, are compared with."""
    if s0 not in range(8):
        raise ValueError("sector index must be 0..7")
    if ref_dir is None:
        ref_dir = sector_midpoint(s0)
    if s0 not in classify(ref_dir):
        raise ValueError(f"reference direction {ref_dir} is not in sector {s0}")
    base_ref = Direction(NU[s0].apply(ref_dir.vector))
    return q_zero(base_ref).transformed(NU[s0].inverse())


def reference_run_expansion(
    direction: Direction, n: int, policy: TiePolicy = TiePolicy.LOW
) -> ExpansionTrace:
    """``run_expansion`` by the staircase executor: every word re-run on the geometry."""
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
        if entry not in reference_classify(run.state.ref_dir):
            raise SectorWordError(
                f"expansion entry {entry} disagrees with the renormalized direction"
            )
        before = len(run.records)
        try:
            for step in resolved_word(entry).steps:
                run.execute(step)
        except HitsSingularity:
            halted = "hits_singularity"
            break
        run.renormalize(entry)
        steps.append(
            TraceStep(
                entry=entry,
                records=tuple(run.records[before:]),
                state=run.state,
                to_original=run.to_original,
            )
        )
    return ExpansionTrace(direction, expansion, initial, tuple(steps), halted)


# The Q' wedge vectors derived from scratch: the `==` oracle of the frozen
# `octagon.QPRIME_VECTORS`.


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
    np, dp = isqrt(x.numerator), isqrt(x.denominator)
    if np * np == x.numerator and dp * dp == x.denominator:
        return Fraction(np, dp)
    return None
