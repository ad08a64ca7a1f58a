"""Every count and sector index the library takes is checked by one rule,
``numerics._int_arg``: an int that is not a bool, within the argument's bounds,
else a TypeError or a ValueError that names the argument."""

from fractions import Fraction

import pytest

from helpers import outcome
from octocf import classical, farey, h2moves, octagon
from octocf.numerics import Direction, QuadNum, Vec2, _max_int_digits, to_decimal

_D = Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1)))
_GOLDEN = classical.QuadraticIrrational.golden_ratio()
_MIDPOINTS = {i: octagon.sector_midpoint(i) for i in range(1, 8)}

#: (call with the checked argument, its name in the messages, least, most)
ARGUMENTS = {
    "expand depth": (lambda v: farey.expand(_D, v), "depth", 1, None),
    "run_expansion n": (lambda v: octagon.run_expansion(_D, v), "step count n", 0, None),
    "sector_sample_directions j": (
        lambda v: octagon.sector_sample_directions(v, 1), "sector index", 0, 7
    ),
    "sector_sample_directions count": (
        lambda v: octagon.sector_sample_directions(3, v), "count", 1, None
    ),
    "verify_theorem samples_per_sector": (
        lambda v: octagon.verify_theorem(samples_per_sector=v, sectors=[2]), "count", 1, None
    ),
    "sector_direction j": (
        lambda v: octagon.sector_direction(v, Fraction(1, 2)), "sector index", 0, 7
    ),
    "verify_sector i": (
        lambda v: octagon.verify_sector(v, _MIDPOINTS.get(v, _MIDPOINTS[2])), "sector index", 1, 7
    ),
    "prove_sector i": (octagon.prove_sector, "sector index", 1, 7),
    "sector_matrix i": (h2moves.sector_matrix, "sector index", 1, 7),
    "sector_raw_plan i": (h2moves.sector_raw_plan, "sector index", 1, 7),
    "sector_raw_word i": (h2moves.sector_raw_word, "sector index", 1, 7),
    "sector_word i": (h2moves.sector_word, "sector index", 1, 7),
    "has_reduced_word i": (h2moves.has_reduced_word, "sector index", 1, 7),
    "geometric_convergents n": (
        lambda v: classical.geometric_convergents(_GOLDEN, v), "n", 0, None
    ),
    "to_decimal digits": (
        lambda v: to_decimal(QuadNum(1, 1), v), "digits", 1, _max_int_digits()
    ),
}


@pytest.mark.parametrize("value", [True, 2.5, None, "3"], ids=repr)
@pytest.mark.parametrize("argument", ARGUMENTS)
def test_a_value_that_is_not_an_int_is_refused(argument, value):
    call, name, _, _ = ARGUMENTS[argument]
    assert outcome(call, value) == (
        TypeError, f"{name} must be an int, got {type(value).__name__}"
    )


@pytest.mark.parametrize("argument", ARGUMENTS)
def test_one_past_each_bound_is_refused(argument):
    call, name, least, most = ARGUMENTS[argument]
    if most is None:
        refusal = (ValueError, f"{name} must be >= {least}")
    else:
        refusal = (ValueError, f"{name} must be between {least} and {most}")
        assert outcome(call, most + 1) == refusal
        call(most)
    assert outcome(call, least - 1) == refusal
    call(least)


@pytest.mark.parametrize(
    "j, f", [(3, Fraction(3, 2)), (3, 0), (3, 1), (0, -1), (0, 0), (7, 0), (7, -1)]
)
def test_a_parameter_outside_the_sector_is_refused(j, f):
    with pytest.raises(ValueError, match=rf"is not strictly inside sector {j}$"):
        octagon.sector_direction(j, f)
