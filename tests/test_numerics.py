"""Exact arithmetic kernel: field axioms, ordering, value types, decimals, and the
Moebius oracle that the Farey tests use."""

import ast
import gc
import pickle
import sys
from fractions import Fraction
from math import gcd, isclose, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    DEFAULT_MAX_STR_DIGITS,
    check_decimal_integer_part,
    check_value_type,
    fractions,
    moebius,
    nonzero_quadnums,
    outcome,
    quadnum_literals,
    quadnums,
    rational_literals,
    reference_apply,
    reference_cross,
    reference_det,
    reference_dot,
    reference_from_json,
    reference_matmul,
    reference_parse,
    reference_repr,
    reference_str,
    reference_to_decimal,
    reference_to_json,
    reference_u_text,
)
from octocf import farey, numerics
from octocf.classical import QuadraticIrrational
from octocf.numerics import (
    Direction,
    Mat2,
    QuadNum,
    QuadNumParseError,
    Vec2,
    _cross_sign,
    _quotient,
    _reduced,
    _sign,
    quad_sign,
    to_decimal,
)
from octocf.octagon import sector_direction

GAMMA = Mat2(-1, QuadNum(2, 2), 0, 1)


def _reference_sign(p: int, q: int, d: int) -> int:
    """The sign of p + q*sqrt(d), d not a square: that of p or q where the other is
    0 or of the same sign, else that of the one whose square, p^2 or d*q^2, is larger."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > d * q * q else sq


@st.composite
def _sign_operands(draw):
    """(p, q, d) with d in {2, 3, 5}: free ints of 8 to 4000 bits, a zero p or q, or
    p = -floor(q*sqrt(d)) + delta, where p and q*sqrt(d) cancel in all but a few units."""
    d = draw(st.sampled_from((2, 3, 5)))
    bits = draw(st.sampled_from((8, 64, 1024, 4000)))
    q = draw(st.integers(-(1 << bits), 1 << bits))
    kind = draw(st.sampled_from(("free", "near", "zero")))
    if kind == "free":
        p = draw(st.integers(-(1 << bits), 1 << bits))
    elif kind == "near":
        t = isqrt(d * q * q)  # floor(|q|*sqrt(d))
        p = (-t if q > 0 else t + 1) + draw(st.integers(-2, 2))
    else:
        p, q = draw(st.sampled_from(((0, q), (q, 0))))
    return p, q, d


@st.composite
def _quotient_operands(draw):
    """(p1, q1, p2, q2, d) with d in {2, 3, 5} and a nonzero divisor p2 + q2*sqrt(d)
    of either norm sign: p2 = +-(floor(|q2|*sqrt(d)) + 0 or 1) puts p2^2 just below
    or just above d*q2^2, for q2 of 8 to 1024 bits."""
    d = draw(st.sampled_from((2, 3, 5)))
    bits = draw(st.sampled_from((8, 64, 1024)))
    ints = st.integers(-(1 << bits), 1 << bits)
    q2 = draw(ints.filter(bool))
    p2 = (isqrt(d * q2 * q2) + draw(st.integers(0, 1))) * draw(st.sampled_from((1, -1)))
    return draw(ints), draw(ints), p2, q2, d


class TestSign:
    @given(_sign_operands())
    @example((0, 0, 2))
    @example((-(1 << 4000), 0, 5))
    @example((0, -1, 3))
    @example((-1, 1, 2))
    @example((3, -2, 2))
    @example((-(isqrt(2 * 10**2400)), 10**1200, 2))
    def test_the_one_sign_rule_against_the_reference(self, operands):
        p, q, d = operands
        want = _reference_sign(p, q, d)
        s = _sign(p, q, d)
        assert (s > 0) - (s < 0) == want
        assert type(quad_sign(p, q, d)) is int and quad_sign(p, q, d) == want
        got = QuadraticIrrational(p, q, 1, d).sign()
        assert type(got) is int and got == want
        if d == 2:
            got = QuadNum(p, q).sign()
            assert type(got) is int and got == want
            # cross((p + q*sqrt2, 0), (0, 1)) = p + q*sqrt2, and its negation swapped
            v, w = Vec2(QuadNum(p, q), 0), Vec2(0, 1)
            for got in (_cross_sign(v, w), -_cross_sign(w, v)):
                assert type(got) is int and got == want

    def test_zero(self):
        assert QuadNum(0, 0).sign() == 0

    def test_mixed_signs(self):
        assert QuadNum(1, -1).sign() == -1  # 1 < sqrt2
        assert QuadNum(3, -2).sign() == 1  # 9 > 8
        assert QuadNum(-3, 2).sign() == -1
        assert QuadNum(-1, 1).sign() == 1

    @given(quadnums(), quadnums())
    def test_order_compatible_with_addition(self, a, b):
        c = QuadNum(Fraction(1, 3), Fraction(1, 7))
        if a < b:
            assert a + c < b + c

    @given(quadnums(), quadnums())
    def test_order_compatible_with_positive_scaling(self, a, b):
        pos = QuadNum(1, 1)  # positive
        if a < b:
            assert a * pos < b * pos

    @given(quadnums())
    def test_trichotomy(self, a):
        assert (a.sign() == 0) == a.is_zero()
        assert a.sign() in (-1, 0, 1)
        assert bool(a) is not a.is_zero()

    @given(quadnums(), quadnums())
    def test_comparisons_read_the_sign_of_the_difference(self, a, b):
        s = (a - b).sign()
        assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)


class TestFieldOps:
    def test_difference_of_squares(self):
        assert QuadNum(1, 1) * QuadNum(-1, 1) == QuadNum(1)

    def test_inverse_of_silver(self):
        assert QuadNum(1, 1).inverse() == QuadNum(-1, 1)

    def test_half_sqrt2_squares_to_half(self):
        h = QuadNum(0, Fraction(1, 2))
        assert h * h == QuadNum(Fraction(1, 2))

    def test_reflected_subtraction(self):
        assert 1 - QuadNum(0, 1) == QuadNum(1, -1)
        assert Fraction(1, 2) - QuadNum(1, 1) == QuadNum(Fraction(-1, 2), -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadNum(1, 1) / QuadNum(0, 0)

    @given(quadnums(), quadnums(), quadnums())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(_quotient_operands())
    @example((1, 0, 1, 1, 2))  # 1/(1 + sqrt2): norm -1
    @example((5, 2, -3, 1, 2))  # norm 7
    @example((7, -3, -4, 0, 3))  # a rational divisor
    def test_the_one_conjugate_division(self, operands):
        p1, q1, p2, q2, d = operands
        p, q, norm = _quotient(p1, q1, p2, q2, d)
        assert norm > 0 and norm == abs(p2 * p2 - d * q2 * q2)
        # (p + q*sqrt(d))/norm times the divisor is the dividend
        assert (p * p2 + d * q * q2, p * q2 + q * p2) == (norm * p1, norm * q1)

    @given(nonzero_quadnums())
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == QuadNum(1)

    @given(quadnums())
    def test_floor(self, a):
        n = a.floor()
        assert QuadNum(n) <= a < QuadNum(n + 1)


def _matrices():
    return st.builds(Mat2, quadnums(9, 5), quadnums(9, 5), quadnums(9, 5), quadnums(9, 5))


class TestMat2:
    def test_gamma_involution(self):
        assert GAMMA @ GAMMA == Mat2.identity()
        assert GAMMA.det() == QuadNum(-1)

    @given(_matrices(), _matrices())
    def test_det_multiplicative(self, m, n):
        assert (m @ n).det() == m.det() * n.det()

    @given(_matrices())
    def test_inverse(self, m):
        if m.det().is_zero():
            with pytest.raises(ZeroDivisionError):
                m.inverse()
        else:
            assert m @ m.inverse() == Mat2.identity()

    def test_inverse_is_kept_outside_the_fields(self):
        def matrices():
            half = Fraction(1, 2)
            return [
                Mat2.identity(),
                Mat2(-1, QuadNum(2, 2), 0, 1),
                Mat2(0, 1, -1, QuadNum(0, half)),
                Mat2(QuadNum(3, 2), 1, QuadNum(1, 1), QuadNum(0, half)),
            ]

        inverted = matrices()
        for m in inverted:
            inv = m.inverse()
            assert m.inverse() is inv
            # only the link to the inverse is kept, so no cycle is made
            assert not any(r is m for r in gc.get_referents(inv))
        check_value_type(inverted, ("a", "b", "c", "d"))
        for m, fresh in zip(inverted, matrices()):
            assert pickle.dumps(m) == pickle.dumps(fresh)
            assert repr(m) == repr(fresh)
        assert Mat2.__slots__ == ("a", "b", "c", "d")

    def test_text_and_json(self):
        assert str(GAMMA) == "[[-1, 2+2*sqrt(2)], [0, 1]]"
        zero, one = {"a": "0", "b": "0"}, {"a": "1", "b": "0"}
        assert GAMMA.to_json() == [[{"a": "-1", "b": "0"}, {"a": "2", "b": "2"}], [zero, one]]

    def test_singular_inverse_raises_on_every_call(self):
        m = Mat2(1, QuadNum(1, 1), QuadNum(1, -1), -1)
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                m.inverse()


_WIDE = st.integers(2**2000, 2**2100)
_WIDE_COEFFICIENTS = st.one_of(st.integers(-3, 3), _WIDE, _WIDE.map(lambda n: -n))
_DENOMINATORS = st.one_of(st.integers(1, 12), _WIDE)


@st.composite
def _wide_quadnum_lists(draw, count: int):
    """Lists of `count` QuadNums with zero, small or 2000-bit-plus signed coefficients.

    Half the lists share one denominator, so the two products of a bilinear
    form mostly have equal denominators; the rest draw one per entry.
    """
    shared = draw(st.one_of(st.none(), _DENOMINATORS))
    return [
        QuadNum(Fraction(draw(_WIDE_COEFFICIENTS), den), Fraction(draw(_WIDE_COEFFICIENTS), den))
        for den in (shared or draw(_DENOMINATORS) for _ in range(count))
    ]


def _same_canonical(got: QuadNum, want: QuadNum) -> None:
    p, q, den = got.ints
    assert den > 0 and gcd(p, q, den) == 1
    assert got.ints == want.ints and got == want and hash(got) == hash(want)


class TestOneReductionKernel:
    """Each bilinear form reduces once, yet equals the composed field operators."""

    @given(_wide_quadnum_lists(6))
    def test_apply(self, xs):
        m, v = Mat2(*xs[:4]), Vec2(*xs[4:])
        got, want = m.apply(v), reference_apply(m, v)
        _same_canonical(got.x, want.x)
        _same_canonical(got.y, want.y)
        assert hash(got) == hash(want)

    @given(_wide_quadnum_lists(8))
    def test_matmul(self, xs):
        m, n = Mat2(*xs[:4]), Mat2(*xs[4:])
        got, want = m @ n, reference_matmul(m, n)
        for name in ("a", "b", "c", "d"):
            _same_canonical(getattr(got, name), getattr(want, name))
        assert hash(got) == hash(want)

    @given(_wide_quadnum_lists(4))
    def test_det(self, xs):
        m = Mat2(*xs)
        _same_canonical(m.det(), reference_det(m))

    @given(
        st.integers(-(10**30), 10**30),
        st.integers(-(10**30), 10**30),
        st.integers(1, 10**30),
        st.integers(1, 10**6),
    )
    @example(3, 2, 5, 1)  # gcd 1: the ints are kept as they are
    @example(3, 2, 1, 2)
    @example(0, 0, 7, 1)
    @example(0, -5, 10, 3)
    def test_reduced_with_and_without_a_common_factor(self, p, q, den, g):
        want = QuadNum(Fraction(p, den), Fraction(q, den))
        _same_canonical(_reduced(p, q, den), want)
        _same_canonical(_reduced(p * g, q * g, den * g), want)

    def test_only_numerics_writes_the_slots_of_a_quadnum(self):
        # every == and hash reads the canonical form, so the one reduction,
        # numerics._reduced, makes each QuadNum from unreduced ints
        writers = {
            (path.name, node.attr)
            for path in sorted(Path(numerics.__file__).parent.glob("*.py"))
            if path.name != "numerics.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr in ("_p", "_q", "_den")
        }
        assert writers == set()
        assert not hasattr(farey, "gcd")

    @given(_wide_quadnum_lists(4))
    def test_cross_and_dot(self, xs):
        v, w = Vec2(*xs[:2]), Vec2(*xs[2:])
        _same_canonical(v.cross(w), reference_cross(v, w))
        _same_canonical(v.dot(w), reference_dot(v, w))
        _same_canonical(v.cross(v), QuadNum(0))

    @given(_wide_quadnum_lists(5))
    def test_cross_sign_is_the_sign_of_the_reduced_cross(self, xs):
        # the side-of-ray test every slant, cone and angle order reads
        v, w, c = Vec2(*xs[:2]), Vec2(*xs[2:4]), xs[4]
        zero = Vec2(0, 0)
        for a, b in ((v, w), (w, v), (v, v.scale(c)), (v.scale(c), w), (zero, w), (v, zero)):
            assert _cross_sign(a, b) == a.cross(b).sign()
        assert _cross_sign(v, v.scale(c)) == 0 == _cross_sign(zero, w)


class TestValueObjects:
    """Vec2 and Mat2 are immutable values: equality and hashing go by coordinates."""

    @given(quadnums(9, 5), quadnums(9, 5), quadnums(9, 5), quadnums(9, 5))
    def test_vec_equality_and_hash_follow_coordinates(self, x, y, z, w):
        u, v = Vec2(x, y), Vec2(z, w)
        assert (u == v) == ((x, y) == (z, w))
        assert (u != v) == ((x, y) != (z, w))
        assert hash(u) == hash((x, y))
        assert u == Vec2(x, y) and hash(u) == hash(Vec2(x, y))
        assert u != (x, y)

    @given(_matrices(), _matrices())
    def test_mat_equality_and_hash_follow_entries(self, m, n):
        assert (m == n) == ((m.a, m.b, m.c, m.d) == (n.a, n.b, n.c, n.d))
        assert hash(m) == hash((m.a, m.b, m.c, m.d))
        assert m == Mat2(m.a, m.b, m.c, m.d)

    def test_constructors_coerce_and_results_agree(self):
        assert Vec2(1, Fraction(1, 2)) == Vec2(QuadNum(1), QuadNum(Fraction(1, 2)))
        assert Mat2(1, 0, 0, 1) == Mat2.identity()
        assert GAMMA.apply(Vec2(1, 0)) == Vec2(-1, 0)
        assert repr(Vec2(1, 0)) == (
            "Vec2(x=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
            "y=QuadNum(Fraction(0, 1), Fraction(0, 1)))"
        )
        with pytest.raises(TypeError):
            Vec2(0.5, 1)

    def test_assignment_raises(self):
        v, m = Vec2(1, 2), Mat2.identity()
        for obj, name in ((v, "x"), (v, "y"), (v, "z"), (m, "a"), (m, "d")):
            with pytest.raises(AttributeError):
                setattr(obj, name, QuadNum(5))
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert v == Vec2(1, 2) and m == Mat2.identity()

    def test_vectors_and_matrices_are_frozen_values(self):
        half = Fraction(1, 2)
        vectors = [Vec2(1, 2), Vec2(x=1, y=2), Vec2(2, 1), Vec2(QuadNum(-1, half), 0)]
        check_value_type(vectors, ("x", "y"))
        matrices = [Mat2.identity(), Mat2(1, 0, 0, 1), GAMMA, Mat2(0, 1, -1, QuadNum(0, half))]
        check_value_type(matrices, ("a", "b", "c", "d"))
        assert vectors[3].__reduce__() == (Vec2, (QuadNum(-1, half), QuadNum(0)))
        entries = (QuadNum(-1), QuadNum(2, 2), QuadNum(0), QuadNum(1))
        assert matrices[2].__reduce__() == (Mat2, entries)
        assert repr(matrices[3]) == (
            "Mat2(a=QuadNum(Fraction(0, 1), Fraction(0, 1)), "
            "b=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
            "c=QuadNum(Fraction(-1, 1), Fraction(0, 1)), "
            "d=QuadNum(Fraction(0, 1), Fraction(1, 2)))"
        )


def _projvals():
    """Points of the projective line: None is infinity."""
    return st.one_of(st.just(None), quadnums(9, 5))


class TestMoebius:
    def test_identity(self):
        for u in (None, QuadNum(3, -2)):
            assert moebius(Mat2.identity(), u) == u

    def test_gamma_fixes_infinity(self):
        assert moebius(GAMMA, None) is None

    def test_parabolic_translation(self):
        gn7 = Mat2(1, QuadNum(2, 2), 0, 1)
        assert moebius(gn7, QuadNum(-1, -1)) == QuadNum(1, 1)

    def test_pole_goes_to_infinity(self):
        m = Mat2(0, 1, 1, 0)  # u -> 1/u
        assert moebius(m, QuadNum(0)) is None

    @given(_matrices(), _matrices(), _projvals())
    def test_composition(self, m, n, u):
        if m.det().is_zero() or n.det().is_zero():
            return
        assert moebius(m @ n, u) == moebius(m, moebius(n, u))


def _decimal_oracle(q: QuadNum, digits: int) -> str:
    """Independent rounding via a wide integer enclosure of sqrt(2)."""
    guard = 40
    scale = 10 ** (digits + guard)
    lo_s2 = isqrt(2 * scale * scale)  # lo_s2 <= sqrt2*scale < lo_s2+1
    lo = q.a + q.b * (Fraction(lo_s2, scale) if q.b >= 0 else Fraction(lo_s2 + 1, scale))
    hi = q.a + q.b * (Fraction(lo_s2 + 1, scale) if q.b >= 0 else Fraction(lo_s2, scale))
    n_lo = _round_half_even(lo * 10**digits)
    n_hi = _round_half_even(hi * 10**digits)
    assert n_lo == n_hi, "oracle enclosure too coarse"
    sign = "-" if n_lo < 0 else ""
    ip, fp = divmod(abs(n_lo), 10**digits)
    return f"{sign}{ip}.{fp:0{digits}d}"


def _round_half_even(x: Fraction) -> int:
    fl = x.numerator // x.denominator
    rem = x - fl
    if rem > Fraction(1, 2):
        return fl + 1
    if rem < Fraction(1, 2):
        return fl
    return fl if fl % 2 == 0 else fl + 1


class TestDecimal:
    def test_silver_ratio(self):
        assert to_decimal(QuadNum(1, 1), 5) == "2.41421"

    def test_zero(self):
        assert to_decimal(QuadNum(0), 3) == "0.000"

    def test_small_unit(self):
        assert to_decimal(QuadNum(3, -2), 5) == "0.17157"

    @given(quadnums(), st.integers(min_value=1, max_value=12))
    def test_against_enclosure_oracle(self, q, digits):
        assert to_decimal(q, digits) == _decimal_oracle(q, digits)

    @given(quadnums(10**9, 10**6) | quadnums(), st.integers(min_value=1, max_value=14))
    def test_ints_round_as_fractions_do(self, q, digits):
        assert to_decimal(q, digits) == reference_to_decimal(q, digits)
        assert to_decimal(-q, digits) == reference_to_decimal(-q, digits)

    @given(st.integers(min_value=-(10**16), max_value=10**16), st.integers(1, 14))
    def test_rational_ties_round_half_to_even(self, k, digits):
        tie = QuadNum(Fraction(2 * k + 1, 2 * 10**digits))  # halfway between k and k + 1
        even = k + (k & 1)
        assert to_decimal(tie, digits) == reference_to_decimal(tie, digits)
        assert to_decimal(tie, digits) == to_decimal(QuadNum(Fraction(even, 10**digits)), digits)

    @given(
        st.integers(min_value=-(10**16), max_value=10**16),
        st.integers(1, 14),
        st.sampled_from([(99, 70), (1393, 985), (8119, 5741), (47321, 33461), (275807, 195025)]),
        st.sampled_from([1, -1]),
    )
    def test_irrational_values_next_to_a_tie(self, k, digits, convergent, side):
        # sqrt(2) - p/q lies within 1/(2q^2) of 0, so each value is a tie moved
        # by less than 10^-4 of the last place
        p, q = convergent
        offset = (QuadNum(Fraction(-p, q), 1) / 10**digits) * side
        value = QuadNum(Fraction(2 * k + 1, 2 * 10**digits)) + offset
        assert to_decimal(value, digits) == reference_to_decimal(value, digits)


    @pytest.mark.usefixtures("default_digit_limit")
    def test_an_integer_part_past_the_digit_limit_is_refused(self):
        check_decimal_integer_part(DEFAULT_MAX_STR_DIGITS)


class TestParseAndJson:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", QuadNum(3)),
            ("-1/2", QuadNum(Fraction(-1, 2))),
            ("1+sqrt2", QuadNum(1, 1)),
            ("2-3/2*sqrt(2)", QuadNum(2, Fraction(-3, 2))),
            ("-√2", QuadNum(0, -1)),
            ("1/2√2", QuadNum(0, Fraction(1, 2))),
        ],
    )
    def test_parse(self, text, expected):
        assert QuadNum.parse(text) == expected

    @pytest.mark.parametrize("text", ["", "two", "1+2", "sqrt3", "1//2", "1/0", "1/0+sqrt2"])
    def test_parse_rejects(self, text):
        with pytest.raises(QuadNumParseError):
            QuadNum.parse(text)

    def test_json_rejects_zero_denominator(self):
        with pytest.raises(QuadNumParseError):
            QuadNum.from_json({"a": "1/0", "b": "0"})

    @given(quadnums())
    def test_json_round_trip(self, q):
        assert QuadNum.from_json(q.to_json()) == q

    def test_json_shape(self):
        assert QuadNum(Fraction(3, 2), Fraction(-1, 4)).to_json() == {
            "a": "3/2",
            "b": "-1/4",
        }

    @given(quadnums(), quadnums())
    def test_vec_json_round_trip(self, x, y):
        v = Vec2(x, y)
        assert Vec2.from_json(v.to_json()) == v

    @pytest.mark.parametrize("coefficient", [0.1, 1.0, True, False, 3, None, ["1"]])
    def test_json_rejects_non_string_coefficients(self, coefficient):
        with pytest.raises(QuadNumParseError, match="expected a string"):
            QuadNum.from_json({"a": coefficient, "b": "0"})
        with pytest.raises(QuadNumParseError, match="expected a string"):
            QuadNum.from_json({"a": "0", "b": coefficient})

    # Fraction takes each of these; only "p" and "p/q" are what to_json writes
    @pytest.mark.parametrize("coefficient", ["1e5", "1.5", "1_0", " 1", "1e100000000"])
    def test_json_rejects_inexact_literals(self, coefficient):
        with pytest.raises(QuadNumParseError, match="exact rational"):
            QuadNum.from_json({"a": coefficient, "b": "0"})
        with pytest.raises(QuadNumParseError, match="exact rational"):
            QuadNum.from_json({"a": "0", "b": coefficient})


class _Half(Fraction):
    """A Fraction subclass, which every exact constructor takes as a Fraction."""


class TestLiteralBoundary:
    """Literals read and written on ints, against the Fraction oracle in helpers:
    the same values, the same text and the same refusals."""

    @given(quadnum_literals())
    @example("4/6")
    @example("-0/3")
    @example("+3")
    @example("-0/3+4/6*sqrt(2)")
    @example("1/2√2")
    @example("-sqrt2")
    def test_parse(self, text):
        q = QuadNum.parse(text)
        assert q.ints == reference_parse(text).ints
        assert str(q) == reference_str(q) and repr(q) == reference_repr(q)
        assert q.to_json() == reference_to_json(q)

    @given(rational_literals(), rational_literals())
    @example("4/6", "-0/3")
    @example("+3", "0")
    def test_from_json(self, a, b):
        assert outcome(QuadNum.from_json, {"a": a, "b": b}) == outcome(
            reference_from_json, {"a": a, "b": b}
        )

    @given(st.text(alphabet="0123456789+-/*. e√sqrt()", max_size=16))
    def test_any_text_parses_or_fails_alike(self, text):
        assert outcome(QuadNum.parse, text) == outcome(reference_parse, text)

    @given(quadnums(max_num=10**20, max_den=10**12))
    @example(QuadNum(0))
    @example(QuadNum(0, 1))
    @example(QuadNum(0, -1))
    @example(QuadNum(Fraction(-1, 2), -1))
    @example(QuadNum(3, Fraction(-7, 2)))
    def test_written_text(self, q):
        assert str(q) == reference_str(q)
        assert repr(q) == reference_repr(q)
        assert q.to_json() == reference_to_json(q)
        assert (type(q.a), type(q.b)) == (Fraction, Fraction)
        assert (q.a, q.b) == (Fraction(q.ints[0], q.ints[2]), Fraction(q.ints[1], q.ints[2]))
        assert QuadNum.from_json(q.to_json()) == q == QuadNum.parse(str(q))

    @given(quadnums(), nonzero_quadnums())
    def test_u_text(self, x, y):
        for d in (Direction(Vec2(x, y)), Direction(Vec2(y, 0)), Direction(Vec2(y, y * y))):
            assert d.u_text() == reference_u_text(d)

    @pytest.mark.parametrize("coefficient", [3, None, 1.5, True, ["1"], "1e3", "1.5", "1/0", "0/0"])
    def test_refusals(self, coefficient):
        obj = {"a": "1", "b": coefficient}
        assert outcome(QuadNum.from_json, obj) == outcome(reference_from_json, obj)
        assert outcome(QuadNum.from_json, obj)[0] is QuadNumParseError
        if isinstance(coefficient, str):
            for text in (coefficient, f"2+{coefficient}*sqrt(2)"):
                assert outcome(QuadNum.parse, text) == outcome(reference_parse, text)
                assert outcome(QuadNum.parse, text)[0] is QuadNumParseError

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit"
    )
    @pytest.mark.parametrize("form", ["{}", "1/{}", "-{}/7"])
    def test_one_digit_past_the_live_limit(self, form):
        text = form.format("7" * (sys.get_int_max_str_digits() + 1))
        refused = outcome(QuadNum.parse, text)
        assert refused == outcome(reference_parse, text)
        assert refused[0] is ValueError and "int-to-string limit" in refused[1]
        assert outcome(QuadNum.from_json, {"a": text, "b": "0"}) == refused
        # at the limit itself the literal is read
        text = form.format("7" * sys.get_int_max_str_digits())
        assert QuadNum.parse(text) == reference_parse(text)

    def test_exact_arguments(self):
        half = QuadNum(Fraction(1, 2))
        assert half.ints == (1, 0, 2) and QuadNum(_Half(1, 2)) == half
        assert QuadNum(True).ints == (1, 0, 1) and QuadNum(False, True).ints == (0, 1, 1)
        assert QuadNum(1) + _Half(1, 2) == half * 3 and Vec2(_Half(1, 2), True) == Vec2(half, 1)
        assert Mat2(Fraction(1, 2), 0, 0, True) == Mat2(half, 0, 0, 1)
        assert sector_direction(3, _Half(1, 2)) == sector_direction(3, Fraction(1, 2))
        assert sector_direction(7, True) == sector_direction(7, 1)
        # the parameter is any exact value of the field, as in arithmetic
        assert sector_direction(3, half) == sector_direction(3, Fraction(1, 2))

    @pytest.mark.parametrize("value", [1.5, "1/2", None, QuadNum(1)])
    def test_inexact_arguments(self, value):
        name = type(value).__name__
        for build in (lambda: QuadNum(value), lambda: QuadNum(1, value)):
            assert outcome(build) == (TypeError, f"expected int or Fraction, got {name}")
        if not isinstance(value, QuadNum):
            coerced = (TypeError, f"cannot coerce {name} into Q(sqrt(2))")
            assert outcome(lambda: QuadNum(1) * value) == coerced
            assert outcome(Vec2, value, 0) == outcome(Mat2, 1, 0, 0, value) == coerced
            assert outcome(sector_direction, 3, value) == coerced


@pytest.mark.parametrize(
    "make",
    [QuadNum, lambda n: QuadraticIrrational(n, 0, 1, 0)],
    ids=["QuadNum", "QuadraticIrrational"],
)
def test_float_covers_the_float_range(make):
    assert float(make(10**300)) == 1e300
    assert float(make(-(10**300))) == -1e300
    with pytest.raises(OverflowError):
        float(make(10**320))


def test_float_of_large_irrationals():
    assert isclose(float(QuadNum(0, 10**300)), 2**0.5 * 1e300, rel_tol=1e-15)
    assert isclose(float(QuadraticIrrational(0, 10**300, 1, 2)), 2**0.5 * 1e300, rel_tol=1e-15)
    with pytest.raises(OverflowError):
        float(QuadNum(0, 10**320))


class RefQuad:
    """Reference model of Q(sqrt(2)) as a pair of Fractions a + b*sqrt(2)."""

    def __init__(self, a, b):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return RefQuad(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return RefQuad(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return RefQuad(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        norm = self.a * self.a - 2 * self.b * self.b
        return RefQuad(self.a / norm, -self.b / norm)

    def __truediv__(self, o):
        return self * o.inverse()

    def sign(self):
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa == 0 or sb == 0 or sa == sb:
            return sa or sb
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def floor(self):
        # bracket b*sqrt(2) between integers at finer scales until decided
        if self.b == 0:
            return self.a.numerator // self.a.denominator
        den = lcm(self.a.denominator, self.b.denominator)
        p, r = int(self.a * den), int(self.b * den)
        scale = 1
        while True:
            t = isqrt(2 * (r * scale) ** 2)
            num_lo = p * scale + (t if r >= 0 else -t - 1)
            d = den * scale
            if (num_lo + 1) % d == 0 or num_lo // d == (num_lo + 1) // d:
                return num_lo // d
            scale *= 10


def _wide_fractions():
    """Coefficients from a few bits up to well past 64 bits."""
    return st.one_of(fractions(), fractions(2**100, 2**80))


def _pairs():
    return st.tuples(_wide_fractions(), _wide_fractions())


def _agrees(q: QuadNum, ref: RefQuad) -> bool:
    return (q.a, q.b) == (ref.a, ref.b)


class TestAgainstFractionModel:
    @given(_pairs(), _pairs())
    def test_field_operations(self, x, y):
        q1, q2, r1, r2 = QuadNum(*x), QuadNum(*y), RefQuad(*x), RefQuad(*y)
        assert _agrees(q1, r1) and _agrees(q2, r2)
        assert _agrees(q1 + q2, r1 + r2)
        assert _agrees(q1 - q2, r1 - r2)
        assert _agrees(q1 * q2, r1 * r2)
        assert _agrees(q1 + q1, r1 + r1) and _agrees(q1 - q1, r1 - r1)
        if not q2.is_zero():
            assert _agrees(q1 / q2, r1 / r2)
            assert _agrees(q2.inverse(), r2.inverse())

    @given(_pairs())
    def test_sign_and_floor(self, x):
        q, r = QuadNum(*x), RefQuad(*x)
        assert q.sign() == r.sign()
        assert q.floor() == r.floor()

    @given(_pairs(), _pairs())
    def test_equality_and_hash(self, x, y):
        q1, q2 = QuadNum(*x), QuadNum(*y)
        assert (q1 == q2) == ((x[0], x[1]) == (y[0], y[1]))
        rebuilt = (q1 * QuadNum(3, 1) - q1) / QuadNum(2, 1) + QuadNum(0)
        assert rebuilt == q1 and hash(rebuilt) == hash(q1)

    def test_equal_values_built_differently(self):
        half = QuadNum(Fraction(2, 4))
        assert half == QuadNum(1) / 2 == QuadNum(3) / 6
        assert len({half, QuadNum(1) / 2, QuadNum(3) / 6}) == 1
        assert QuadNum(0, Fraction(1, 2)) == QuadNum(0, 1).inverse()
        assert QuadNum(1).__eq__(1) is NotImplemented
        assert QuadNum(1) != 1
