"""Diagonal-changes engine: wedges, staircase moves, matrices, invariants."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    int_det,
    matvec,
    outcome,
    perm_compose,
    perm_inverse,
    quadnums,
    reference_after_move,
    reference_conjugate,
    reference_doubled_area,
    reference_elementary_entries,
    reference_state_check,
)
from octocf import intmat
from octocf.classical import geometric_convergents, intermediate_convergents
from octocf.diagch import (
    CombDatum,
    HitsSingularity,
    LabeledQuadrangulation,
    MoveNotAvailableError,
    QuadrangulationError,
    Side,
    Slant,
    StaircaseMove,
    TrainTrackError,
    Wedge,
    elementary_matrix,
    perm_conjugate,
    perm_cycles,
)
from octocf.numerics import Direction, Mat2, QuadNum, Vec2, _cross_sign

VERTICAL = Direction(Vec2(0, 1))
TORUS = CombDatum(1, (1,), (1,))


def torus_state(w_l, w_r, ref=VERTICAL):
    return LabeledQuadrangulation(TORUS, (Wedge(w_l, w_r),), ref)


class TestPermHelpers:
    def test_cycles(self):
        assert perm_cycles((2, 1, 3)) == ((1, 2), (3,))
        assert perm_cycles((2, 3, 1)) == ((1, 2, 3),)

    def test_compose_inverse_conjugate(self):
        p = (2, 3, 1)
        assert perm_compose(p, perm_inverse(p)) == (1, 2, 3)
        assert perm_conjugate((1, 3, 2), p) == perm_compose(
            perm_compose((1, 3, 2), p), perm_inverse((1, 3, 2))
        )

    def test_a_tuple_that_is_not_a_permutation_is_refused(self):
        with pytest.raises(ValueError, match=r"^\(1, 1, 3\) is not a permutation of 1\.\.3$"):
            CombDatum(3, (1, 1, 3), (1, 2, 3))
        with pytest.raises(ValueError, match=r"^\(0, 1\) is not a permutation of 1\.\.2$"):
            torus_state(Vec2(-1, 1), Vec2(1, 1)).relabeled((0, 1))

    @pytest.mark.parametrize(
        "build, bad",
        [
            # a repeated or a missing image would walk perm_cycles round forever
            (lambda: perm_cycles((2, 2)), (2, 2)),
            (lambda: perm_cycles((0, 1)), (0, 1)),
            (lambda: perm_cycles((3, 1)), (3, 1)),
            (lambda: perm_conjugate((1, 1, 1), (1, 2, 3)), (1, 1, 1)),
            # an unchecked p indexed sigma at p(i) - 1: -1 read its last entry
            (lambda: perm_conjugate((1, 2, 3), (0, 1, 2)), (0, 1, 2)),
            (lambda: perm_conjugate((1, 2, 3), (1, 1, 1)), (1, 1, 1)),
            (lambda: perm_conjugate((1, 2, 3), (5, 5, 5)), (5, 5, 5)),
            (lambda: perm_conjugate((1, 2, 3), (1.0, 2, 3)), (1.0, 2, 3)),
            # True == 1 == 1.0, so only the type tells these apart from a permutation
            (lambda: CombDatum(2, (1.0, 2.0), (1, 2)), (1.0, 2.0)),
            (lambda: CombDatum(1, (True,), (1,)), (True,)),
        ],
        ids=[
            "cycles-repeated",
            "cycles-missing",
            "cycles-past-k",
            "conjugate",
            "conjugate-p-zero",
            "conjugate-p-repeated",
            "conjugate-p-past-k",
            "conjugate-p-float",
            "float",
            "bool",
        ],
    )
    def test_a_permutation_defect_is_refused(self, build, bad):
        message = f"^{re.escape(str(bad))} is not a permutation of 1\\.\\.{len(bad)}$"
        with pytest.raises(ValueError, match=message):
            build()

    def test_a_k_that_is_not_an_int_is_refused(self):
        with pytest.raises(TypeError, match="^k must be an int, got float$"):
            CombDatum(1.0, (1,), (1,))


class TestDiagonalAndSlant:
    def test_symmetric_square(self):
        state = torus_state(Vec2(-1, 1), Vec2(1, 1))
        assert state.diagonal(1) == Vec2(0, 2)
        assert state.slant(1) is Slant.PARALLEL
        assert state.available_moves() == []

    def test_right_slanted(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))
        assert state.diagonal(1) == Vec2(1, 3)
        assert state.slant(1) is Slant.RIGHT

    def test_mirror_flips_slant(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1)).transformed(Mat2(-1, 0, 0, 1))
        assert state.slant(1) is Slant.LEFT

    def test_train_track_violation_detected(self):
        comb = CombDatum(2, (2, 1), (2, 1))
        wedges = (Wedge(Vec2(-1, 1), Vec2(1, 1)), Wedge(Vec2(-1, 2), Vec2(1, 1)))
        with pytest.raises(TrainTrackError):
            LabeledQuadrangulation(comb, wedges, VERTICAL)

    def test_degenerate_area_rejected(self):
        with pytest.raises(QuadrangulationError):
            torus_state(Vec2(-1, 0), Vec2(1, 0))

    def test_non_positive_area_rejected(self):
        # train-track relations hold and both wedges open positive cones,
        # but quadrilateral 1's diagonal (0, -3) gives it zero area
        wedges = (Wedge(Vec2(-2, -2), Vec2(-2, -1)), Wedge(Vec2(2, -2), Vec2(2, -1)))
        with pytest.raises(QuadrangulationError, match="quadrilateral 1 has non-positive area"):
            LabeledQuadrangulation(CombDatum(2, (2, 1), (2, 1)), wedges, VERTICAL)

    def test_clockwise_wedge_rejected(self):
        with pytest.raises(QuadrangulationError, match="positive cone"):
            torus_state(Vec2(1, 1), Vec2(-1, 1))

    def test_reference_outside_wedge_rejected(self):
        with pytest.raises(QuadrangulationError, match="reference direction"):
            torus_state(Vec2(-1, 2), Vec2(2, 1), Direction(Vec2(1, 0)))


def v2(x, y) -> Vec2:
    """A vector from ``(a, b)`` pairs, a + b*sqrt(2) per coordinate."""
    return Vec2(QuadNum(*x), QuadNum(*y))


HALF, QUARTER = Fraction(1, 2), Fraction(1, 4)
#: Q' with y halved: its coordinates have the denominators 1, 2 and 4 and sqrt(2) parts.
MIXED_COMB = CombDatum(3, (2, 1, 3), (1, 3, 2))
MIXED_WEDGES = (
    Wedge(v2((-1, 0), (0, 0)), v2((1, HALF), (0, QUARTER))),
    Wedge(v2((-1, -1), (0, 0)), v2((1, HALF), (0, QUARTER))),
    Wedge(v2((-1, -1), (0, 0)), v2((1, 1), (HALF, 0))),
)
#: A linear map with det 1/2 > 0 and entries over 2 and 4 with a sqrt(2) part.
SHEAR = Mat2(HALF, QuadNum(0, QUARTER), 0, 1)


def sheared(wedges):
    return tuple(Wedge(SHEAR.apply(w.l), SHEAR.apply(w.r)) for w in wedges)


class TestStateCheck:
    """Each refusal of the state check, by type and message, on coordinates whose
    denominators differ, so each comparison is cross-multiplied."""

    def test_the_mixed_state_is_accepted(self):
        for ref in (VERTICAL, Direction(MIXED_WEDGES[0].r), Direction(v2((0, 1), (1, 0)))):
            LabeledQuadrangulation(MIXED_COMB, MIXED_WEDGES, ref)
            LabeledQuadrangulation(MIXED_COMB, sheared(MIXED_WEDGES), Direction(SHEAR.apply(ref.vector)))

    def test_train_track(self):
        # r2 moved by sqrt(2)/4 in y: the rational parts of both paths still agree
        wedges = list(MIXED_WEDGES)
        wedges[1] = Wedge(wedges[1].l, wedges[1].r + v2((0, 0), (0, QUARTER)))
        with pytest.raises(TrainTrackError) as got:
            LabeledQuadrangulation(MIXED_COMB, tuple(wedges), VERTICAL)
        assert str(got.value) == (
            "train-track relation fails at quadrilateral 1: (1/2*sqrt(2), 1/2*sqrt(2)) "
            "!= (1/2*sqrt(2), 1/4*sqrt(2))"
        )

    def test_wedge_cone(self):
        mirror = Mat2(-1, 0, 0, 1)
        wedges = tuple(Wedge(mirror.apply(w.l), mirror.apply(w.r)) for w in MIXED_WEDGES)
        with pytest.raises(QuadrangulationError) as got:
            LabeledQuadrangulation(MIXED_COMB, wedges, VERTICAL)
        assert type(got.value) is QuadrangulationError
        assert str(got.value) == "wedge 1 does not open a positive cone"

    @pytest.mark.parametrize(
        "wedges",
        [
            # the diagonal of quadrilateral 1 is (0, -3): zero area
            (Wedge(Vec2(-2, -2), Vec2(-2, -1)), Wedge(Vec2(2, -2), Vec2(2, -1))),
            # the diagonal of quadrilateral 1 is (2, -1): twice its area is -2
            (Wedge(Vec2(-1, 1), Vec2(1, 1)), Wedge(Vec2(1, -2), Vec2(3, -2))),
        ],
        ids=["zero", "negative"],
    )
    def test_area(self, wedges):
        with pytest.raises(QuadrangulationError) as got:
            LabeledQuadrangulation(
                CombDatum(2, (2, 1), (2, 1)), sheared(wedges), Direction(SHEAR.apply(Vec2(0, 1)))
            )
        assert type(got.value) is QuadrangulationError
        assert str(got.value) == "quadrilateral 1 has non-positive area"

    def test_reference_cone(self):
        # below r1 = (1 + sqrt(2)/2, sqrt(2)/4), which bounds the cone of quadrilateral 1
        ref = Direction(v2((1, HALF), (QUARTER, 0)))
        with pytest.raises(QuadrangulationError) as got:
            LabeledQuadrangulation(MIXED_COMB, MIXED_WEDGES, ref)
        assert type(got.value) is QuadrangulationError
        assert str(got.value) == "reference direction leaves the wedge cone of quadrilateral 1"

    @settings(max_examples=300)
    @given(st.data())
    def test_the_int_check_refuses_as_the_value_check(self, data):
        comb, wedges, ref = data.draw(candidate_states())
        got = outcome(LabeledQuadrangulation, comb, wedges, ref)
        want = outcome(reference_state_check, comb, wedges, ref)
        if want is None:
            assert isinstance(got, LabeledQuadrangulation)
        else:
            assert got == want


def _vectors(max_den=4):
    return st.builds(Vec2, quadnums(4, max_den), quadnums(4, max_den))


@st.composite
def candidate_states(draw):
    """States that pass or fail each check: a torus (its relation always holds),
    two quadrilaterals with r2 = l2 + r1 - l1, or a linear image of the mixed
    state, each wedge vector moved by a small vector with some chance."""
    kind = draw(st.sampled_from(["torus", "pair", "image"]))
    if kind == "torus":
        comb, wedges = TORUS, (Wedge(draw(_vectors()), draw(_vectors())),)
    elif kind == "pair":
        l1, r1, l2 = draw(_vectors()), draw(_vectors()), draw(_vectors())
        comb = CombDatum(2, (2, 1), (2, 1))
        wedges = (Wedge(l1, r1), Wedge(l2, l2 + r1 - l1))
    else:
        m = draw(st.builds(Mat2, *[quadnums(3, 4)] * 4).filter(lambda m: not m.det().is_zero()))
        comb, wedges = MIXED_COMB, tuple(Wedge(m.apply(w.l), m.apply(w.r)) for w in MIXED_WEDGES)
    moved = []
    for w in wedges:
        l, r = w.l, w.r
        if draw(st.integers(0, 9)) == 0:
            l = l + draw(_vectors())
        if draw(st.integers(0, 9)) == 0:
            r = r + draw(_vectors())
        moved.append(Wedge(l, r))
    ref = draw(_vectors().filter(lambda v: not v.is_zero()))
    return comb, tuple(moved), Direction(ref)


class TestElementaryMatrices:
    def test_torus(self):
        assert elementary_matrix(TORUS, (1,), Side.PI_R) == ((1, 1), (0, 1))
        assert elementary_matrix(TORUS, (1,), Side.PI_L) == ((1, 0), (1, 1))

    def test_three_quads_double_cycle(self):
        comb = CombDatum(3, (2, 1, 3), (1, 3, 2))
        m = elementary_matrix(comb, (2, 3), Side.PI_R)
        assert m == intmat.elementary(6, [(2, 1), (4, 5)])

    def test_rejects_non_cycle(self):
        with pytest.raises(ValueError):
            elementary_matrix(CombDatum(3, (2, 1, 3), (1, 3, 2)), (1, 2), Side.PI_R)

    def test_unit_determinant_and_nonnegative(self):
        comb = CombDatum(3, (2, 3, 1), (1, 3, 2))
        for side in Side:
            for cycle in comb.cycles(side):
                m = elementary_matrix(comb, cycle, side)
                assert int_det(m) == 1
                assert all(x >= 0 for row in m for x in row)


class TestStaircaseMoves:
    def test_move_unavailable_raises(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))  # right-slanted diagonal
        bad = StaircaseMove(Side.PI_R, (1,), elementary_matrix(TORUS, (1,), Side.PI_R))
        with pytest.raises(MoveNotAvailableError):
            state.apply(bad)

    def test_parallel_diagonal_hits_singularity(self):
        state = torus_state(Vec2(-1, 1), Vec2(1, 1))  # the diagonal (0, 2) is vertical
        for side in Side:
            move = StaircaseMove(side, (1,), elementary_matrix(TORUS, (1,), side))
            with pytest.raises(HitsSingularity) as caught:
                state.apply(move)
            assert isinstance(caught.value, MoveNotAvailableError)
            assert caught.value.label == 1

    def test_singularity_reported_before_wrong_slant(self):
        from octocf.octagon import qprime

        base = qprime(Direction(Vec2(0, 1)))
        state = qprime(Direction(base.diagonal(2)))
        assert [state.slant(i) for i in (3, 2)] == [Slant.RIGHT, Slant.PARALLEL]
        # the rotated cycle lists the wrongly slanted diagonal first
        move = StaircaseMove(Side.PI_R, (3, 2), elementary_matrix(state.comb, (2, 3), Side.PI_R))
        with pytest.raises(HitsSingularity) as caught:
            state.apply(move)
        assert caught.value.label == 2

    def test_move_not_matching_gluing_data_raises(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))  # right-slanted: PI_L is available
        wrong = StaircaseMove(Side.PI_L, (1,), elementary_matrix(TORUS, (1,), Side.PI_R))
        with pytest.raises(MoveNotAvailableError, match="gluing data"):
            state.apply(wrong)

    def test_area_and_train_track_preserved(self):
        ref = Direction(Vec2(QuadNum(0, 1), QuadNum(1)))
        state = torus_state(Vec2(0, 1), Vec2(1, 0), ref)
        area = state.total_area()
        for _ in range(12):
            moves = state.available_moves()
            assert len(moves) == 1
            state = state.apply(moves[0])
            assert state.total_area() == area
            w = state.wedges[0]
            assert state.diagonal(1) == w.r + w.l  # the train-track relation

    def test_new_side_strictly_inside_old_cone(self):
        ref = Direction(Vec2(QuadNum(0, 1), QuadNum(1)))
        state = torus_state(Vec2(0, 1), Vec2(1, 0), ref)
        for _ in range(10):
            move = state.available_moves()[0]
            old = state.wedges[0]
            state = state.apply(move)
            new_side = state.wedges[0].l if move.side is Side.PI_R else state.wedges[0].r
            assert old.r.cross(new_side).sign() > 0
            assert new_side.cross(old.l).sign() > 0

    def test_matrix_matches_vector_action(self):
        ref = Direction(Vec2(QuadNum(0, 1), QuadNum(1)))
        state = torus_state(Vec2(0, 1), Vec2(1, 0), ref)
        for _ in range(8):
            move = state.available_moves()[0]
            expected = matvec(move.matrix, state.wedge_vector_tuple())
            state = state.apply(move)
            assert state.wedge_vector_tuple() == expected


def test_torus_moves_reproduce_classical_convergents():
    """k = 1 diagonal changes produce the full and intermediate convergents."""
    alpha = QuadNum(0, 1)
    ref = Direction(Vec2(alpha, QuadNum(1)))
    state = torus_state(Vec2(0, 1), Vec2(1, 0), ref)
    produced = []
    for _ in range(15):
        move = state.available_moves()[0]
        state = state.apply(move)
        new = state.wedges[0].l if move.side is Side.PI_R else state.wedges[0].r
        produced.append((int(new.x.a), int(new.y.a)))
    result = geometric_convergents(alpha, 10)
    interleaved = []
    for group, vec in zip(intermediate_convergents(alpha, 10), result.vectors):
        interleaved.extend(group)
        interleaved.append(vec)
    assert produced == interleaved[:15]


class TestBookkeeping:
    def test_relabel_round_trip(self):
        comb = CombDatum(3, (2, 1, 3), (1, 3, 2))
        wedges = (
            Wedge(Vec2(-1, 0), Vec2(QuadNum(1, Fraction(1, 2)), QuadNum(0, Fraction(1, 2)))),
            Wedge(Vec2(QuadNum(-1, -1), 0), Vec2(QuadNum(1, Fraction(1, 2)), QuadNum(0, Fraction(1, 2)))),
            Wedge(Vec2(QuadNum(-1, -1), 0), Vec2(QuadNum(1, 1), 1)),
        )
        state = LabeledQuadrangulation(comb, wedges, Direction(Vec2(0, 1)))
        sigma = (3, 1, 2)
        back = state.relabeled(sigma).relabeled(perm_inverse(sigma))
        assert back == state

    @pytest.mark.parametrize("sigma", [(2, 1), (1, 2, 3)])
    def test_a_sigma_of_another_length_is_refused(self, sigma):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))
        with pytest.raises(ValueError, match=r"does not relabel 1\.\.1$"):
            state.relabeled(sigma)

    def test_transformed_orientation_reversal_swaps(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))
        mirrored = state.transformed(Mat2(-1, 0, 0, 1))
        assert mirrored.comb.pi_l == state.comb.pi_r
        assert mirrored.wedges[0].l == Vec2(-2, 1)
        assert mirrored.total_area() == state.total_area()

    def test_json_round_trip(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))
        assert LabeledQuadrangulation.from_json(state.to_json()) == state

    @pytest.mark.parametrize("field, value", [("k", True), ("pi_l", [True]), ("pi_r", [1.0])])
    def test_json_gluing_data_must_be_integers(self, field, value):
        # True == 1 == 1.0, so only the type tells these apart from the torus data
        record = torus_state(Vec2(-1, 2), Vec2(2, 1)).to_json()
        record[field] = value
        with pytest.raises(ValueError, match="JSON integers"):
            LabeledQuadrangulation.from_json(record)


def permutations(k):
    return st.permutations(range(1, k + 1)).map(tuple)


@st.composite
def gluing_data(draw):
    k = draw(st.integers(1, 6))
    return CombDatum(k, draw(permutations(k)), draw(permutations(k)))


def small_vectors():
    return st.builds(Vec2, quadnums(6, 3), quadnums(6, 3))


class TestAgainstTheTwoBranchForms:
    """Each side rule, the area and the conjugation equal the forms that wrote
    a pi_l move as its own branch (kept in tests/helpers.py)."""

    @given(gluing_data())
    def test_every_cycle_of_both_sides(self, comb):
        for side in Side:
            walked = comb.pi_r if side is Side.PI_R else comb.pi_l
            assert comb.cycles(side) == perm_cycles(walked)
            for cycle in comb.cycles(side):
                for rotated in (cycle, cycle[1:] + cycle[:1]):
                    after = comb.after_move(side, rotated)
                    assert after == reference_after_move(comb, side, rotated)
                    expected = intmat.elementary(
                        2 * comb.k, reference_elementary_entries(comb, rotated, side)
                    )
                    assert elementary_matrix(comb, rotated, side) == expected

    @given(small_vectors(), small_vectors(), small_vectors())
    def test_doubled_area(self, l, r, diagonal):
        w = Wedge(l, r)
        doubled = reference_doubled_area(w, diagonal)
        assert (r - l).cross(diagonal) == doubled
        assert _cross_sign(r - l, diagonal) == doubled.sign()
        if _cross_sign(r, l) > 0:  # the torus state on w, or on -w if l + r points down
            s = -1 if (l + r).y.sign() < 0 else 1
            state = torus_state(l.scale(s), r.scale(s), Direction(l + r))
            assert state.total_area() == reference_doubled_area(w, l + r) / 2

    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(permutations(k), permutations(k))))
    def test_conjugate(self, pair):
        sigma, p = pair
        assert perm_conjugate(sigma, p) == reference_conjugate(sigma, p)

    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), permutations(k))), st.data())
    def test_a_sigma_of_the_wrong_length_is_refused(self, drawn, data):
        k, pi = drawn
        sigma = data.draw(permutations(data.draw(st.integers(1, 7).filter(lambda n: n != k))))
        comb = CombDatum(k, pi, pi)
        with pytest.raises(ValueError, match=r"does not relabel 1\.\."):
            perm_conjugate(sigma, pi)
        with pytest.raises(ValueError, match=r"does not relabel 1\.\."):
            comb.relabeled(sigma)
        with pytest.raises((ValueError, IndexError)):  # the parent refused it too
            CombDatum(k, reference_conjugate(sigma, pi), reference_conjugate(sigma, pi))


def test_staircase_layer_loads_no_farey_map():
    # directions and the side-of-ray sign come from numerics
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = "import sys, octocf.diagch, octocf.h2moves, octocf.render; print(*sys.modules)"
    argv = [sys.executable, "-c", code]
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120, check=True)
    loaded = set(result.stdout.split())
    assert {"octocf.diagch", "octocf.h2moves", "octocf.render"} <= loaded
    assert "octocf.farey" not in loaded
