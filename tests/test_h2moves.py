"""Reduced move system: the five matrices, words, and the seven sector matrices."""

import pytest

from helpers import int_det
from octocf import h2moves, intmat
from octocf.diagch import Side
from octocf.h2moves import (
    QPRIME_COMB,
    LetterToken,
    MoveWord,
    NodeId,
    ReducedMove,
    SectorWordError,
    SymmetryToken,
    compose_word,
    has_reduced_word,
    resolved_word,
    sector_matrix,
    sector_raw_plan,
    sector_raw_word,
    sector_word,
)

MD = "\N{MIDDLE DOT}"


class TestMoveMatrices:
    def test_rr_left_to_right_rows(self):
        m = ReducedMove.RR_L_TO_R.matrix
        assert m[2] == (0, 1, 1, 0, 0, 0)  # (2,l) += (1,r)
        assert m[4] == (0, 0, 0, 0, 1, 1)  # (3,l) += (3,r)

    def test_sym_is_antidiagonal_involution(self):
        s = ReducedMove.SYM_RELABEL.matrix
        assert all(s[i][5 - i] == 1 for i in range(6))
        assert intmat.matmul(s, s) == intmat.identity(6)

    def test_rdot_same_at_both_nodes(self):
        assert ReducedMove.RDOT.matrix[0] == (1, 0, 0, 1, 0, 0)

    def test_lll_relabel_rows(self):
        m = ReducedMove.LLL_RELABEL.matrix
        assert m[0] == (0, 0, 1, 0, 0, 0)  # (1,l)
        assert m[5] == (1, 1, 0, 0, 0, 0)  # (3,r)

    def test_determinants_and_nonnegativity(self):
        for move in ReducedMove:
            m = move.matrix
            assert int_det(m) in (-1, 1)
            assert all(x >= 0 for row in m for x in row)

    def test_transitions(self):
        assert ReducedMove.RR_L_TO_R.source is NodeId.LEFT
        assert ReducedMove.RR_L_TO_R.target is NodeId.RIGHT
        assert ReducedMove.LLL_RELABEL.source is NodeId.RIGHT
        assert ReducedMove.SYM_RELABEL.source is NodeId.LEFT
        assert ReducedMove.RDOT.source is None
        assert ReducedMove.RDOT.target is None


class TestMoveWords:
    def test_invalid_transition_rejected(self):
        with pytest.raises(ValueError):
            MoveWord(NodeId.LEFT, (ReducedMove.RR_R_TO_L,))
        with pytest.raises(ValueError):
            MoveWord(NodeId.RIGHT, (ReducedMove.SYM_RELABEL,))

    def test_sector_one_word_composes_to_a1(self):
        matrix, parity, end = compose_word(sector_word(1))
        assert matrix == sector_matrix(1)
        assert parity == 0 and end is NodeId.LEFT

    @pytest.mark.parametrize("i", [1, 4, 5, 6, 7])
    def test_reduced_words_compose_to_sector_matrices(self, i):
        matrix, parity, end = compose_word(sector_word(i))
        assert matrix == sector_matrix(i)
        assert parity == resolved_word(i).parity
        assert end is NodeId.LEFT

    def test_sectors_without_reduced_words(self):
        for i in (2, 3):
            assert not has_reduced_word(i)
            with pytest.raises(KeyError):
                sector_word(i)

    def test_sector_seven_parity(self):
        _, parity, _ = compose_word(sector_word(7))
        assert parity == 0

    def test_sector_four_parity_counts_five_symmetries(self):
        word = sector_word(4)
        assert sum(1 for m in word.moves if m is ReducedMove.SYM_RELABEL) == 5
        assert compose_word(word)[1] == 1


class TestRawWords:
    def test_printed_strings(self):
        assert sector_raw_word(1) == [f"{MD}rr", f"r{MD}{MD}", f"{MD}rr"]
        assert sector_raw_word(6) == [f"ll{MD}", f"{MD}{MD}l", "rrr", f"l{MD}l"]
        assert sector_raw_word(2) == [
            f"{MD}rr",
            "lll",
            f"r{MD}r",
            f"{MD}r{MD}",
            "symmetry",
        ]
        assert sector_raw_word(7) == [f"ll{MD}", f"{MD}{MD}l", f"ll{MD}", f"{MD}{MD}l"]

    def test_even_sector_plans_flip_orientation_once(self):
        for i in range(1, 8):
            syms = [t for t in sector_raw_plan(i) if isinstance(t, SymmetryToken)]
            assert len(syms) == (1 if i % 2 == 0 else 0)
            assert resolved_word(i).parity == (1 if i % 2 == 0 else 0)

    def test_sector_six_symmetry_is_implicit(self):
        assert "symmetry" not in sector_raw_word(6)
        assert any(
            isinstance(t, SymmetryToken) and not t.printed for t in sector_raw_plan(6)
        )

    def test_letter_tokens_render_positionally(self):
        token = LetterToken(side=next(iter({t.side for t in sector_raw_plan(1) if isinstance(t, LetterToken)})), marked=(2, 3))
        assert token.as_string() == f"{MD}rr"


class TestSectorMatrices:
    def test_a1_row(self):
        assert sector_matrix(1)[2] == (0, 1, 1, 0, 0, 1)

    def test_a7_row(self):
        assert sector_matrix(7)[5] == (0, 0, 2, 0, 0, 1)

    def test_unimodular(self):
        for i in range(1, 8):
            assert abs(int_det(sector_matrix(i))) == 1

    def test_determinant_sign_matches_parity(self):
        for i in range(1, 8):
            expected = -1 if i % 2 == 0 else 1
            assert int_det(sector_matrix(i)) == expected

    def test_bad_sector_index(self):
        with pytest.raises(ValueError):
            sector_matrix(0)
        with pytest.raises(ValueError):
            sector_raw_word(8)


class TestCrossModuleConsistency:
    def test_reduced_matrices_equal_elementary_matrices_at_their_nodes(self):
        from octocf.diagch import Side, elementary_matrix

        left, right = NodeId.LEFT.comb, NodeId.RIGHT.comb
        assert ReducedMove.RR_L_TO_R.matrix == elementary_matrix(
            left, (2, 3), Side.PI_R
        )
        assert ReducedMove.RR_R_TO_L.matrix == elementary_matrix(
            right, (2, 3), Side.PI_R
        )
        assert ReducedMove.RDOT.matrix == elementary_matrix(left, (1,), Side.PI_R)
        assert ReducedMove.RDOT.matrix == elementary_matrix(right, (1,), Side.PI_R)

    def test_node_transitions_of_the_double_staircase_move(self):
        from octocf.diagch import Side, perm_cycles

        left, right = NodeId.LEFT.comb, NodeId.RIGHT.comb
        # cycle (2,3) of pi_r: pi_l becomes the 3-cycle of the right node
        pi_l = list(left.pi_l)
        for i in (2, 3):
            pi_l[i - 1] = left.pi_l[left.pi_r[i - 1] - 1]
        assert tuple(pi_l) == right.pi_l
        assert left.after_move(Side.PI_R, (2, 3)) == right
        # the single-quadrilateral cycle is a self-loop on the gluing data
        pi_l2 = list(right.pi_l)
        pi_l2[0] = right.pi_l[right.pi_r[0] - 1]
        assert tuple(pi_l2) == right.pi_l
        assert perm_cycles(right.pi_l) == ((1, 2, 3),)


class TestResolvedWords:
    def test_parity_is_the_resolved_parity(self):
        for i in range(1, 8):
            assert resolved_word(i).parity == (1 if i % 2 == 0 else 0)

    def test_each_word_is_resolved_once(self):
        assert resolved_word(4) is resolved_word(4)

    def test_steps_walk_the_base_gluing_data_back_to_itself(self):
        from octocf.diagch import StaircaseMove, elementary_matrix

        for i in range(1, 8):
            comb = QPRIME_COMB
            reflections = 0
            for step in resolved_word(i).steps:
                if isinstance(step, StaircaseMove):
                    assert step.matrix == elementary_matrix(comb, step.cycle, step.side)
                    comb = comb.after_move(step.side, step.cycle)
                else:
                    sigma, reflect = step
                    reflections += reflect
                    comb = (comb.swapped() if reflect else comb).relabeled(sigma)
            assert comb == QPRIME_COMB
            assert reflections == resolved_word(i).parity


class TestCorruptedPlans:
    """A token plan that does not fit its gluing data is refused, naming why."""

    def test_plan_ending_off_the_reduced_graph(self, monkeypatch):
        # rdot's pi_r batch on label 1 replaced by a pi_l batch on the cycle (1, 2)
        plan = (LetterToken(Side.PI_L, (1, 2)),)
        monkeypatch.setitem(h2moves._MOVE_PLANS, ReducedMove.RDOT, (None, plan))
        with pytest.raises(SectorWordError) as got:
            compose_word(MoveWord(NodeId.LEFT, (ReducedMove.RDOT,)))
        assert str(got.value) == (
            "CombDatum(k=3, pi_l=(2, 1, 3), pi_r=(3, 1, 2)) is not a node of the reduced graph"
        )

    def test_marked_set_that_splits_a_cycle(self):
        # label 2 alone, where pi_r of Q' has the cycle (2, 3)
        with pytest.raises(SectorWordError) as got:
            h2moves._resolve((LetterToken(Side.PI_R, (2,)),), QPRIME_COMB)
        assert str(got.value) == (
            "marked set {2} is not a union of pi_r cycles of "
            "CombDatum(k=3, pi_l=(2, 1, 3), pi_r=(1, 3, 2))"
        )

    def test_symmetry_with_no_closing_relabeling(self):
        # at the right node pi_l is a 3-cycle, so no relabeling of the swapped
        # gluing data gives Q'
        with pytest.raises(SectorWordError) as got:
            h2moves._resolve((SymmetryToken(),), NodeId.RIGHT.comb)
        assert str(got.value) == (
            "no unique symmetry relabeling from CombDatum(k=3, pi_l=(2, 3, 1), pi_r=(1, 3, 2))"
        )
