"""Octagon base data and the acceleration verifier."""

import random
from fractions import Fraction

import pytest

from helpers import cone_contains_cone, cones_of, random_clean_direction
from octocf.diagch import Side, StaircaseMove, elementary_matrix
from octocf.farey import GAMMA_NU, Direction
from octocf.h2moves import (
    LetterToken,
    RelabelToken,
    SymmetryToken,
    sector_raw_plan,
)
from octocf.numerics import QuadNum, Vec2
from octocf.octagon import (
    OCTAGON_AREA,
    Q0_VECTORS,
    QPRIME_COMB,
    QPRIME_VECTORS,
    _closure_relabel,
    derive_qprime_vectors_fixed_point,
    initial_quadrangulation,
    qprime,
    run_expansion,
    sector_midpoint,
    sector_move_states,
    sector_sample_directions,
    verify_sector,
    verify_theorem,
)


class TestFrozenData:
    def test_area(self):
        assert qprime(sector_midpoint(4)).total_area() == OCTAGON_AREA

    def test_qprime_combinatorics(self):
        assert QPRIME_COMB.pi_l == (2, 1, 3)  # (1,2)(3)
        assert QPRIME_COMB.pi_r == (1, 3, 2)  # (1)(2,3)

    def test_fixed_point_regenerates_frozen_vectors(self):
        assert derive_qprime_vectors_fixed_point() == QPRIME_VECTORS

    def test_straddles_every_expanding_sector(self):
        for j in range(1, 8):
            for d in sector_sample_directions(j, 3):
                assert qprime(d).strictly_straddled()

    def test_initial_quadrangulations(self):
        for s0 in range(8):
            state = initial_quadrangulation(s0)
            assert state.total_area() == OCTAGON_AREA
            assert state.strictly_straddled()

    def test_initial_for_wrong_sector_rejected(self):
        with pytest.raises(ValueError):
            initial_quadrangulation(2, sector_midpoint(5))

    def test_q0_is_gamma_image_of_qprime(self):
        d = sector_midpoint(3)
        image = qprime(d).transformed(GAMMA_NU[0])  # gamma itself
        assert image.wedge_vector_tuple() == Q0_VECTORS


class TestVerifySector:
    def test_midpoint_of_first_sector(self):
        report = verify_sector(1, Direction(Vec2(QuadNum(1, Fraction(1, 2)), QuadNum(1))))
        assert report.passed

    def test_far_seventh_sector(self):
        report = verify_sector(7, Direction(Vec2(-3, 1)))
        assert report.passed

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            verify_sector(3, Direction(Vec2(QuadNum(-1, 1), QuadNum(1))))
        with pytest.raises(ValueError):
            verify_sector(7, Direction(Vec2(-1, 0)))

    def test_parity_matches_renormalizer_determinant(self):
        for i in range(1, 8):
            report = verify_sector(i, sector_midpoint(i))
            assert report.passed
            det = GAMMA_NU[i].det()
            assert (report.parity == 1) == (det == QuadNum(-1))

    def test_corrupted_word_detected(self):
        # drop the final move of sector 7's plan: the closure must fail loudly
        from octocf.octagon import _WordRun

        run = _WordRun(state=qprime(sector_midpoint(7)))
        for token in sector_raw_plan(7)[:-1]:
            run.execute_token(token)
        run.renormalize(7)
        assert run.state.wedge_vector_tuple() != QPRIME_VECTORS


class TestVerifyTheorem:
    def test_default_grid_passes(self):
        report = verify_theorem()
        assert report.passed
        assert len(report.sector_reports) == 21
        assert report.word_identities == {1: True, 4: True, 5: True, 6: True, 7: True}

    def test_single_sector_filter(self):
        report = verify_theorem(samples_per_sector=2, sectors=[4])
        assert report.passed
        assert all(r.sector == 4 for r in report.sector_reports)

    def test_json_shape(self):
        record = verify_theorem(samples_per_sector=1, sectors=[2]).to_json()
        assert record["passed"] is True
        assert record["sectors"][0]["sector"] == 2


class TestRunExpansion:
    def test_zero_steps_is_base_state(self):
        trace = run_expansion(sector_midpoint(2), 0)
        assert trace.steps == ()
        assert trace.initial.wedge_vector_tuple() == QPRIME_VECTORS

    def test_states_return_to_base_after_every_step(self):
        d = Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1)))
        trace = run_expansion(d, 12)
        assert trace.halted is None
        for step in trace.steps:
            assert step.state.wedge_vector_tuple() == QPRIME_VECTORS
            assert step.state.total_area() == OCTAGON_AREA

    def test_direction_stays_inside_transported_cones(self):
        rng = random.Random(3)
        d = random_clean_direction(rng, 12)
        trace = run_expansion(d, 12)
        for step in trace.steps:
            for cone in cones_of(step.original_wedges):
                left, right = cone
                assert d.vector.cross(left).sign() > 0 > d.vector.cross(right).sign()

    def test_transported_cones_nest(self):
        rng = random.Random(5)
        d = random_clean_direction(rng, 10)
        trace = run_expansion(d, 10)
        previous = cones_of(trace.initial_original_wedges())
        for step in trace.steps:
            current = cones_of(step.original_wedges)
            for cone in current:
                assert any(cone_contains_cone(p, cone) for p in previous)
            previous = current

    def test_pi_direction_runs_without_halting(self):
        trace = run_expansion(Direction(Vec2(-1, 0)), 6)
        assert trace.halted is None
        assert trace.expansion.entries == (7,) * 7

    def test_terminating_orbit_hits_singularity(self):
        # u = 2 reaches the boundary u = -1 after three steps and then the
        # vertical-fixing word meets a parallel diagonal
        trace = run_expansion(Direction(Vec2(2, 1)), 8)
        assert trace.halted == "hits_singularity"
        assert len(trace.steps) < 8

    def test_holonomies_are_upper_half_saddle_vectors(self):
        d = Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1)))
        trace = run_expansion(d, 10)
        hols = trace.holonomies()
        assert hols, "expected created sides"
        for v in hols:
            assert v.y.sign() > 0 or (v.y.sign() == 0 and v.x.sign() != 0)


def test_sector_move_states_counts():
    states = sector_move_states(1, sector_midpoint(1))
    assert len(states) == 3  # three staircase moves in the first sector's word
    states = sector_move_states(7, sector_midpoint(7))
    assert len(states) == 4


class TestConjugationConsistency:
    """A fixed-frame run with no renormalization reproduces the holonomies."""

    @pytest.mark.parametrize("seed", [11, 23, 47])
    def test_direct_run_matches_transported_records(self, seed):
        rng = random.Random(seed)
        d = random_clean_direction(rng, 8)
        n = 8
        trace = run_expansion(d, n)
        assert trace.halted is None

        s0 = trace.expansion.entries[0]
        direct = initial_quadrangulation(s0, d)
        swap = s0 % 2 == 0  # the opening map reverses orientation on even sectors
        assert direct.wedge_vector_tuple() == _maybe_swapped(
            trace.initial_original_wedges(), swap
        )
        created = []
        for k in range(1, n + 1):
            entry = trace.expansion.entries[k]
            for token in sector_raw_plan(entry):
                if isinstance(token, LetterToken):
                    side = token.side
                    if swap:
                        side = Side.PI_L if side is Side.PI_R else Side.PI_R
                    for cycle in _cycles_covering(direct.comb, side, token.marked):
                        move = StaircaseMove(
                            side, cycle, elementary_matrix(direct.comb, cycle, side)
                        )
                        direct = direct.apply(move)
                        pick = (lambda w: w.l) if side is Side.PI_R else (lambda w: w.r)
                        created.extend(
                            (i, pick(direct.wedges[i - 1])) for i in cycle
                        )
                elif isinstance(token, RelabelToken):
                    direct = direct.relabeled(token.sigma)
                elif isinstance(token, SymmetryToken):
                    comb = direct.comb.swapped() if swap else direct.comb
                    sigma = _closure_relabel(comb)
                    direct = direct.relabeled(sigma)
                    swap = not swap
        recorded = [
            (label, v)
            for step in trace.steps
            for rec in step.records
            for label, v in rec.new_sides
        ]
        assert created == recorded
        # and the final states agree after transporting slot order
        final = trace.steps[-1].original_wedges
        assert direct.wedge_vector_tuple() == _maybe_swapped(final, swap)


def _maybe_swapped(vectors, swap: bool):
    if not swap:
        return tuple(vectors)
    return tuple(vectors[2 * j + (1 - eps)] for j in range(3) for eps in (0, 1))


def _cycles_covering(comb, side, marked):
    chosen = [c for c in comb.cycles(side) if set(c) <= set(marked)]
    covered = set()
    for c in chosen:
        covered |= set(c)
    assert covered == set(marked)
    return chosen


class TestSpecExamples:
    def test_first_available_move_in_sector_one(self):
        # with the reference inside the first sector, the double staircase
        # along the pi_r cycle (2,3) is available as the first move
        state = qprime(sector_midpoint(1))
        moves = state.available_moves()
        assert any(m.side is Side.PI_R and m.cycle == (2, 3) for m in moves)

    def test_initial_quadrangulation_of_sector_zero_is_base(self):
        from octocf.octagon import Q0_COMB

        state = initial_quadrangulation(0)
        assert state.wedge_vector_tuple() == Q0_VECTORS
        assert state.comb == Q0_COMB

    def test_odd_sector_initial_data_has_swapped_combinatorics(self):
        state = initial_quadrangulation(3)
        assert state.comb == QPRIME_COMB


def test_trace_holonomies_are_saddle_connections_of_the_octagon():
    # cross-module check: wedge sides created by renormalized staircase runs,
    # transported back to the original frame, are validated by the exact
    # ray tracer as saddle connections of the surface
    from octocf.octagon import is_saddle_connection

    d = Direction(Vec2(QuadNum(Fraction(5, 2)), QuadNum(1)))
    trace = run_expansion(d, 4)
    assert trace.halted is None
    holonomies = set(trace.holonomies()) | set(trace.initial_original_wedges())
    assert holonomies
    for v in holonomies:
        assert is_saddle_connection(v), str(v)
