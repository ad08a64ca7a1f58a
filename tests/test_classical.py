"""Torus baseline: Gauss map, geometric convergents, best-approximation oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octocf.classical import (
    GeometricConvergents,
    QuadraticIrrational,
    gauss_step,
    geometric_convergents,
    intermediate_convergents,
)
from octocf.numerics import QuadNum, quad_floor

from helpers import (
    check_value_type,
    error_cmp,
    nonzero_quadnums,
    reference_gauss_step,
    reference_geometric_convergents,
)

SQRT2 = QuadraticIrrational.sqrt_of(2)
GOLDEN = QuadraticIrrational.golden_ratio()


class TestGaussStep:
    def test_exact_division(self):
        assert gauss_step(Fraction(1, 2)) == (2, 0)

    def test_sqrt2_fractional_is_fixed(self):
        digit, rest = gauss_step(QuadNum(-1, 1))
        assert digit == 2
        assert rest == QuadNum(-1, 1)

    def test_two_fifths(self):
        assert gauss_step(Fraction(2, 5)) == (2, Fraction(1, 2))

    def test_domain(self):
        with pytest.raises(ValueError):
            gauss_step(Fraction(3, 2))
        with pytest.raises(ValueError):
            gauss_step(Fraction(0))

    @pytest.mark.parametrize("x", [0.5, "1/2", None])
    def test_an_inexact_number_is_refused(self, x):
        message = (
            "^expected an exact number: int, Fraction, QuadNum or QuadraticIrrational, "
            f"got {type(x).__name__}$"
        )
        with pytest.raises(TypeError, match=message):
            gauss_step(x)

    def test_quadratic_irrational_type_preserved(self):
        phi_minus_1 = QuadraticIrrational(-1, 1, 2, 5)
        digit, rest = gauss_step(phi_minus_1)
        assert digit == 1
        assert isinstance(rest, QuadraticIrrational)
        assert rest == phi_minus_1  # 1/phi = phi - 1 is the Gauss fixed point


class TestGeometricConvergents:
    def test_sqrt2(self):
        got = geometric_convergents(SQRT2, 4)
        assert got.vectors == ((1, 1), (3, 2), (7, 5), (17, 12))
        assert not got.halted

    def test_golden_is_fibonacci(self):
        got = geometric_convergents(GOLDEN, 5)
        assert got.vectors == ((1, 1), (2, 1), (3, 2), (5, 3), (8, 5))
        assert got.intermediates == ((), (), (), (), ())

    def test_rational_halts_on_line(self):
        got = geometric_convergents(2, 3)
        assert got.halted
        assert got.vectors == ((2, 1),)

    def test_quadnum_input(self):
        got = geometric_convergents(QuadNum(0, 1), 4)
        assert got.vectors == ((1, 1), (3, 2), (7, 5), (17, 12))

    def test_intermediates_for_sqrt2(self):
        groups = intermediate_convergents(SQRT2, 4)
        assert groups == ((), ((2, 1),), ((4, 3),), ((10, 7),))

    def test_kept_intermediate_iterators_read_their_own_step(self):
        # every iterator is taken before any is read, last to first
        got = geometric_convergents(QuadraticIrrational(1, 1, 1, 13), 8)
        kept = list(got.iter_intermediates())
        assert tuple(tuple(g) for g in reversed(kept))[::-1] == got.intermediates
        assert any(len(g) > 1 for g in got.intermediates)

    def test_unimodularity_30_steps(self):
        got = geometric_convergents(SQRT2, 30)
        vecs = ((0, 1), (1, 0)) + got.vectors
        for prev, cur in zip(vecs, vecs[1:]):
            assert abs(cur[0] * prev[1] - prev[0] * cur[1]) == 1

    def test_crossing_signs_alternate(self):
        got = geometric_convergents(SQRT2, 12)
        signs = [QuadraticIrrational(-p, q, 1, 2).sign() for p, q in got.vectors]  # q*sqrt2 - p
        assert all(s != 0 for s in signs)
        assert all(a == -b for a, b in zip(signs, signs[1:]))

    def test_check_sees_each_step_and_may_stop_the_construction(self):
        seen = []
        got = geometric_convergents(GOLDEN, 8, lambda digit, v: seen.append((digit, v)))
        assert got == geometric_convergents(GOLDEN, 8)
        assert seen == list(zip(got.digits, got.vectors))

        def refuse_past_10(digit, v):
            if max(v) > 10:
                raise OverflowError(v)

        with pytest.raises(OverflowError, match=r"\(13, 8\)"):
            geometric_convergents(GOLDEN, 8, refuse_past_10)


def _best_below(alpha: QuadraticIrrational, q_max: int) -> tuple[int, int]:
    """Brute-force (p, q) with the least |q*alpha - p| over 1 <= q <= q_max."""
    best = None
    for q in range(1, q_max + 1):
        p = quad_floor(q * alpha.a, q * alpha.b, alpha.c, alpha.d)
        for cand in ((p, q), (p + 1, q)):
            if best is None or error_cmp(alpha, cand, best) < 0:
                best = cand
    return best


@pytest.mark.parametrize("alpha,start", [(SQRT2, 0), (GOLDEN, 1)], ids=["sqrt2", "golden"])
def test_convergents_are_best_approximations(alpha, start):
    # the integer-part convergent is best only when the fractional part is
    # below 1/2; the golden ratio starts the check at the first full step
    got = geometric_convergents(alpha, 12)
    for p, q in got.vectors[start:]:
        if q > 10**4:
            break
        assert error_cmp(alpha, (p, q), _best_below(alpha, q)) <= 0


class TestQuadraticIrrational:
    def test_canonical_form(self):
        assert QuadraticIrrational(2, 4, 2, 4) == QuadraticIrrational(5, 0, 1, 0)
        assert QuadraticIrrational(1, -1, -2, 3) == QuadraticIrrational(-1, 1, 2, 3)

    def test_floor(self):
        assert GOLDEN.floor() == 1
        assert QuadraticIrrational(3, 1, 2, 5).floor() == 2  # phi^2
        assert QuadraticIrrational(-1, -1, 2, 5).floor() == -2  # -phi

    def test_sign(self):
        assert QuadraticIrrational(-1, 1, 2, 5).sign() == 1  # phi - 1
        assert QuadraticIrrational(-3, 1, 2, 5).sign() == -1  # phi - 2

    def test_text(self):
        assert str(GOLDEN) == "(1+1*sqrt(5))/2"
        assert str(QuadraticIrrational(6, 0, 4, 9)) == "3/2"
        assert str(QuadraticIrrational(1, 1, 1, 9)) == "4"  # a square radicand folds in

    def test_text_of_a_negative_radical_or_a_unit_denominator(self):
        assert str(QuadraticIrrational(1, -1, 1, 2)) == "1-1*sqrt(2)"
        assert str(QuadraticIrrational(-1, -3, 2, 7)) == "(-1-3*sqrt(7))/2"
        assert str(QuadraticIrrational.sqrt_of(2)) == "0+1*sqrt(2)"


class TestValueTypes:
    def test_quadratic_irrationals_are_frozen_values(self):
        values = [
            QuadraticIrrational(2, 2, 4, 5),
            QuadraticIrrational(1, 1, 2, 5),
            QuadraticIrrational(3, 1, 2, 5),
            QuadraticIrrational(-1, 1, 2, 3),
            QuadraticIrrational(6, 0, 4, 9),
            QuadraticIrrational(3, 0, 2, 0),
        ]
        check_value_type(values, ("a", "b", "c", "d"))

    def test_equality_is_canonical(self):
        assert QuadraticIrrational(2, 2, 4, 5) == QuadraticIrrational(1, 1, 2, 5) == GOLDEN
        assert hash(QuadraticIrrational(2, 2, 4, 5)) == hash(GOLDEN)
        assert QuadraticIrrational(6, 0, 4, 9) == QuadraticIrrational(3, 0, 2, 0)  # 3/2
        assert QuadraticIrrational(1, 1, 2, 5) != QuadraticIrrational(1, 1, 2, 3)

    def test_repr_names_the_canonical_fields(self):
        assert repr(QuadraticIrrational(2, 2, 4, 5)) == "QuadraticIrrational(a=1, b=1, c=2, d=5)"
        assert repr(QuadraticIrrational(6, 0, 4, 9)) == "QuadraticIrrational(a=3, b=0, c=2, d=0)"

    def test_constructor_validation(self):
        with pytest.raises(ZeroDivisionError):
            QuadraticIrrational(1, 1, 0, 5)
        with pytest.raises(ValueError):
            QuadraticIrrational(1, 1, 2, -5)

    def test_geometric_convergents_are_frozen_values(self):
        values = [
            geometric_convergents(GOLDEN, 3),
            geometric_convergents(QuadraticIrrational(2, 2, 4, 5), 3),
            geometric_convergents(GOLDEN, 4),
            geometric_convergents(SQRT2, 3),
            geometric_convergents(Fraction(3, 2), 5),
            GeometricConvergents(digits=(1, 2), vectors=((1, 1), (3, 2)), halted=False),
        ]
        check_value_type(values, ("digits", "vectors", "halted"))
        assert values[0] == values[1]
        assert repr(values[0]) == (
            "GeometricConvergents(digits=(1, 1, 1), vectors=((1, 1), (2, 1), (3, 2)), "
            "halted=False)"
        )
        assert repr(values[4]) == (
            "GeometricConvergents(digits=(1, 2), vectors=((1, 1), (3, 2)), halted=True)"
        )


def quadratic_irrationals(d: int):
    ints = st.integers
    return st.builds(QuadraticIrrational, ints(-50, 50), ints(-20, 20), ints(1, 30), st.just(d))


def _from_partial_quotients(digits: list[int]) -> Fraction:
    x = Fraction(digits[-1])
    for digit in reversed(digits[:-1]):
        x = digit + 1 / x
    return x


def small_quotient_fractions(first=st.integers(0, 5)):
    """Positive rationals whose partial quotients are at most 5."""
    rest = st.lists(st.integers(1, 5), max_size=30)
    return st.builds(lambda a0, tail: _from_partial_quotients([a0, *tail]), first, rest).filter(
        lambda x: x > 0
    )


def _fractional_part(x):
    if isinstance(x, QuadraticIrrational):
        return QuadraticIrrational(x.a - x.floor() * x.c, x.b, x.c, x.d)
    return x - x.floor()


RADICANDS = (2, 3, 5, 6, 7, 10, 13)

#: Positive exact numbers of each input type, one entry per radicand.
ALPHAS = {
    **{f"sqrt{d}": quadratic_irrationals(d).filter(lambda x: x.sign() > 0) for d in RADICANDS},
    "QuadNum": nonzero_quadnums().map(abs),
    "Fraction": small_quotient_fractions(),
}

#: Exact numbers in (0, 1) of each input type of the Gauss map.
UNIT_INTERVAL = {
    **{
        f"sqrt{d}": quadratic_irrationals(d).map(_fractional_part).filter(lambda x: x.sign())
        for d in RADICANDS
    },
    "QuadNum": nonzero_quadnums().map(_fractional_part).filter(lambda x: x.sign()),
    "Fraction": small_quotient_fractions(first=st.just(0)).filter(lambda x: x < 1),
}


@pytest.mark.parametrize("alphas", ALPHAS.values(), ids=ALPHAS.keys())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_geometric_convergents_match_the_definition(alphas, data):
    alpha, n = data.draw(alphas), data.draw(st.integers(0, 40))
    assert geometric_convergents(alpha, n) == reference_geometric_convergents(alpha, n)


@pytest.mark.parametrize("xs", UNIT_INTERVAL.values(), ids=UNIT_INTERVAL.keys())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_gauss_step_matches_the_sign_test_digit(xs, data):
    x = data.draw(xs)
    digit, rest = gauss_step(x)
    assert (digit, rest) == reference_gauss_step(x)
    assert type(rest) is type(x)
