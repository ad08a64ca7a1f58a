"""Diagonal-changes engine: wedges, staircase moves, matrices, invariants."""

from fractions import Fraction

import pytest

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
    perm_compose,
    perm_conjugate,
    perm_cycles,
    perm_inverse,
)
from octocf.farey import Direction
from octocf.numerics import Mat2, QuadNum, Vec2

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

    def test_clockwise_wedge_rejected(self):
        with pytest.raises(QuadrangulationError, match="positive cone"):
            torus_state(Vec2(1, 1), Vec2(-1, 1))

    def test_reference_outside_wedge_rejected(self):
        with pytest.raises(QuadrangulationError, match="reference direction"):
            torus_state(Vec2(-1, 2), Vec2(2, 1), Direction(Vec2(1, 0)))


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
                assert intmat.det(m) == 1
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
            expected = intmat.matvec(move.matrix, state.wedge_vector_tuple())
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

    def test_transformed_orientation_reversal_swaps(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))
        mirrored = state.transformed(Mat2(-1, 0, 0, 1))
        assert mirrored.comb.pi_l == state.comb.pi_r
        assert mirrored.wedges[0].l == Vec2(-2, 1)
        assert mirrored.total_area() == state.total_area()

    def test_json_round_trip(self):
        state = torus_state(Vec2(-1, 2), Vec2(2, 1))
        assert LabeledQuadrangulation.from_json(state.to_json()) == state
