"""Octagon base data and the acceleration verifier."""

import copy
import dataclasses
import json
import math
import pickle
import random
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    built_as_qprime,
    check_value_type,
    cone_contains_cone,
    cones_of,
    derive_qprime_vectors_fixed_point,
    height_direction,
    initial_quadrangulation,
    matvec,
    pulled_back,
    random_clean_direction,
    reference_run_expansion,
    strictly_straddled,
    word_plan,
)
from octocf import farey, intmat, numerics, octagon
from octocf.diagch import (
    CombDatum,
    LabeledQuadrangulation,
    MoveNotAvailableError,
    QuadrangulationError,
    Side,
    StaircaseMove,
    TrainTrackError,
    Wedge,
    elementary_matrix,
    relabeling_matrix,
)
from octocf.farey import (
    GAMMA_NU,
    GAMMA_NU_INV,
    Direction,
    TiePolicy,
    _boundary_direction,
    _integral,
    _rational,
    classify,
    expand,
)
from octocf.h2moves import (
    LetterToken,
    RelabelToken,
    ResolvedWord,
    SectorWordError,
    SymmetryToken,
    _closure_relabel,
    _resolve,
    resolved_word,
    sector_matrix,
    sector_raw_plan,
    sector_word,
)
from octocf.numerics import Mat2, QuadNum, Vec2
from octocf.octagon import (
    OCTAGON_AREA,
    Q0_COMB,
    Q0_VECTORS,
    QPRIME_COMB,
    QPRIME_VECTORS,
    REFLECTION,
    MoveRecord,
    TraceStep,
    _EXPANDING_ARC,
    _sector_table,
    _SectorTable,
    _wedges,
    _WordRun,
    q_zero,
    qprime,
    run_expansion,
    sector_direction,
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
                assert strictly_straddled(qprime(d))

    @given(
        st.integers(0, 7),
        st.fractions(min_value=-1, max_value=2, max_denominator=10**6),
        st.fractions(min_value=-10, max_value=10**3, max_denominator=10**3),
        st.fractions(min_value=-1, max_value=1, max_denominator=100),
    )
    @example(1, Fraction(1, 10**6), Fraction(1, 10**3), Fraction(0))
    @example(6, Fraction(10**6 - 1, 10**6), Fraction(10**3), Fraction(0))
    @example(3, Fraction(0), Fraction(0), Fraction(0))
    @example(3, Fraction(1), Fraction(0), Fraction(0))
    @example(0, Fraction(1, 2), Fraction(0), Fraction(0))
    @example(7, Fraction(1, 2), Fraction(-1), Fraction(1))
    def test_sector_direction_is_strictly_inside_its_sector(self, j, t, f, s):
        # the parameters verify --random-samples draws, and those of the samples,
        # are accepted, irrational ones too; every accepted (j, f) is a direction
        # of the open sector j, and every other f is refused
        f = QuadNum(f if j in (0, 7) else t, s)
        inside = 0 < f < 1 or (j in (0, 7) and f > 0)
        try:
            d = sector_direction(j, f)
        except ValueError as exc:
            assert not inside and str(exc).endswith(f"is not strictly inside sector {j}")
        else:
            assert inside and classify(d) == (j,)

    def test_sample_grid_is_enumerated_level_by_level(self):
        # sectors 1..6: 1/2, then the odd numerators over 4, 8, 16, ... level by
        # level; sectors 0 and 7: the distances 1, 1/2, 2, 3, 4, ...
        dyadic = [Fraction(n, 2**k) for k in range(1, 14) for n in range(1, 2**k, 2)]
        steps = [Fraction(1), Fraction(1, 2)] + [Fraction(n) for n in range(2, 5000)]
        for j in range(8):
            grid = [sector_direction(j, f) for f in (steps if j in (0, 7) else dyadic)[:5000]]
            assert sector_sample_directions(j, 5000) == grid
            for count in (1, 2, 3, 4, 7, 8, 15, 16, 17):
                assert sector_sample_directions(j, count) == grid[:count]
        # the parameters come from closed forms, and each count takes a prefix
        for count in range(1, 400):
            got = octagon._midpoint_first_parameters(count)
            assert got == [QuadNum(f) for f in dyadic[:count]]
            assert octagon._steps(count) == [QuadNum(f) for f in steps[:count]]

    def test_sample_grid_budget(self):
        # verify --samples admits 10**6 samples per sector
        start = time.time()
        grid = sector_sample_directions(3, 50_000)
        elapsed = time.time() - start
        assert len(set(grid)) == 50_000
        assert elapsed < 5.0

    def test_initial_quadrangulations(self):
        for s0 in range(8):
            state = initial_quadrangulation(s0)
            assert state.total_area() == OCTAGON_AREA
            assert strictly_straddled(state)

    def test_initial_for_wrong_sector_rejected(self):
        with pytest.raises(ValueError):
            initial_quadrangulation(2, sector_midpoint(5))

    def test_q0_is_gamma_image_of_qprime(self):
        # written out apart from diagch: gamma reverses orientation, so each
        # wedge of Q0 is the gamma image of the wedge of Q' with l and r exchanged
        gamma = GAMMA_NU[0]
        want = tuple(
            gamma.apply(QPRIME_VECTORS[2 * i + 1 - eps]) for i in range(3) for eps in (0, 1)
        )
        assert Q0_VECTORS == want
        assert octagon.Q0_COMB == QPRIME_COMB.swapped() == CombDatum(3, (1, 3, 2), (2, 1, 3))
        for d in (sector_midpoint(3), sector_midpoint(7)):
            assert qprime(d).transformed(gamma).wedge_vector_tuple() == Q0_VECTORS


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

    def test_corrupted_word_detected(self, monkeypatch):
        # drop the final move of sector 7's word: the closure must fail loudly
        run = _WordRun(state=qprime(sector_midpoint(7)))
        for step in resolved_word(7).steps[:-1]:
            run.execute(step)
        run.renormalize(7)
        assert run.state.wedge_vector_tuple() != QPRIME_VECTORS
        # drop its first move instead: the report names the first bad step
        word = resolved_word(7)
        corrupted = ResolvedWord(word.steps[1:], word.matrix, word.parity)
        monkeypatch.setattr(octagon, "resolved_word", lambda i: corrupted)
        report = verify_sector(7, sector_midpoint(7))
        assert not report.passed and not report.moves_available
        assert report.failure == (
            "step 1 of sector 7: pi_l-cycle(1, 2) does not match the current gluing data"
        )

    def test_word_ending_off_qprime_is_reported(self, monkeypatch):
        # sector 1's first move alone: it runs, but ends away from Q', so the
        # renormalization refuses it, and the renderer raises the same text
        word = resolved_word(1)
        monkeypatch.setattr(
            octagon, "resolved_word", lambda i: ResolvedWord(word.steps[:1], word.matrix, 0)
        )
        failure = (
            "sector 1 word ends at CombDatum(k=3, pi_l=(2, 3, 1), pi_r=(1, 3, 2)), not at Q'"
        )
        report = verify_sector(1, sector_midpoint(1))
        assert not report.passed and not report.moves_available
        assert report.failure == failure
        with pytest.raises(SectorWordError) as got:
            sector_move_states(1, sector_midpoint(1))
        assert str(got.value) == failure

    def test_wrong_branch_is_reported_at_the_first_wedge(self, monkeypatch):
        # renormalizing sector 7 by the reflection instead of gamma*nu_7: the
        # wedges miss Q' and the image falls into the contracting sector 0
        branches = list(GAMMA_NU)
        branches[7] = octagon.REFLECTION
        monkeypatch.setattr(octagon, "GAMMA_NU", branches)
        run, report = octagon._checked_run(7, sector_midpoint(7))
        assert (report.passed, report.matrix_equal, report.closes_up) == (False, True, False)
        assert report.failure == (
            "first differing wedge entry at (1,l): (1+1/2*sqrt(2), 1/2*sqrt(2)) != (-1, 0)"
        )
        assert classify(run.state.ref_dir) == (0,)

    def test_image_outside_the_expanding_sectors_is_reported(self, monkeypatch):
        # with the interior check lifted, sector 1's word at its end pi/8 runs
        # and closes up, and only the image check refuses the direction
        monkeypatch.setattr(octagon, "_strictly_inside", lambda j, d: d)
        report = verify_sector(1, _boundary_direction(1))
        assert (report.passed, report.matrix_equal, report.closes_up) == (False, True, True)
        assert report.failure == "renormalized direction left the expanding sectors"


class TestResolvedWords:
    """Each sector word is resolved once; every move is checked on the live state."""

    @pytest.mark.parametrize("i", range(1, 8))
    def test_live_states_rebuild_the_resolved_matrix(self, i):
        word = resolved_word(i)
        for d in sector_sample_directions(i, 3):
            run = _WordRun(state=qprime(d))
            matrix = intmat.identity(6)
            for step in word.steps:
                if isinstance(step, StaircaseMove):
                    m = elementary_matrix(run.state.comb, step.cycle, step.side)
                else:
                    sigma, reflect = step
                    m = relabeling_matrix(sigma, reflect)
                matrix = intmat.matmul(m, matrix)
                run.execute(step)
            assert matrix == word.matrix == sector_matrix(i)
            run.renormalize(i)
            assert run.state.wedge_vector_tuple() == QPRIME_VECTORS

    @pytest.mark.parametrize("reflect", [False, True])
    @pytest.mark.parametrize("sigma", list(permutations((1, 2, 3))))
    def test_relabeling_matrix_moves_the_labels_of_the_state(self, sigma, reflect):
        # the matrix moves labels and the reflection moves vectors, so applied to
        # the (reflected) wedge vectors it gives those of the relabeled state
        m = relabeling_matrix(sigma, reflect)
        for d in (sector_midpoint(1), sector_midpoint(4), sector_midpoint(7)):
            state = qprime(d)
            vectors = state.wedge_vector_tuple()
            if reflect:
                state = state.transformed(REFLECTION)
                vectors = tuple(REFLECTION.apply(v) for v in vectors)
            assert matvec(m, vectors) == state.relabeled(sigma).wedge_vector_tuple()

    def test_renormalize_checks_the_gluing_data(self):
        run = _WordRun(state=qprime(sector_midpoint(1)).relabeled((2, 1, 3)))
        with pytest.raises(SectorWordError, match="not at Q'"):
            run.renormalize(1)

    @pytest.mark.parametrize("i", [1, 4, 5, 6, 7])
    def test_reduced_words_run_on_the_geometry(self, i):
        word, end = _resolve(word_plan(sector_word(i)), QPRIME_COMB)
        assert end == QPRIME_COMB
        for d in sector_sample_directions(i, 3):
            run = _WordRun(state=qprime(d))
            for step in word.steps:
                run.execute(step)
            run.renormalize(i)
            assert run.state.wedge_vector_tuple() == QPRIME_VECTORS
            assert run.state.comb == QPRIME_COMB
            assert 0 not in classify(run.state.ref_dir)

    def test_resolved_move_rejected_on_other_gluing_data(self):
        # relabeling 2<->3 keeps the pi_r cycle (2,3) but changes pi_l on it
        run = _WordRun(state=qprime(sector_midpoint(1)).relabeled((1, 3, 2)))
        with pytest.raises(MoveNotAvailableError, match="does not match"):
            run.execute(resolved_word(1).steps[0])


class TestVerifyTheorem:
    def test_default_grid_passes(self):
        report = verify_theorem()
        assert report.passed
        assert len(report.sector_reports) == 21
        assert report.word_identities == {1: True, 4: True, 5: True, 6: True, 7: True}

    def test_each_sample_runs_its_word_once(self, monkeypatch):
        # the midpoint sample reuses the run its sector's proof was recorded from
        calls = []
        real = octagon._checked_run

        def counting(i, direction):
            calls.append((i, direction))
            return real(i, direction)

        monkeypatch.setattr(octagon, "_checked_run", counting)
        _sector_table.cache_clear()
        report = verify_theorem()
        assert report.passed and len(calls) == len(set(calls)) == 21
        assert [(r.sector, r.direction) for r in report.sector_reports] == [
            (i, d) for i in range(1, 8) for d in sector_sample_directions(i, 3)
        ]

    def test_single_sector_filter(self):
        report = verify_theorem(samples_per_sector=2, sectors=[4])
        assert report.passed
        assert all(r.sector == 4 for r in report.sector_reports)

    @pytest.mark.parametrize("one_shot", [False, True])
    def test_sectors_are_read_once(self, one_shot):
        # a one-shot iterable gives both loops, proofs and word identities, its sectors
        report = verify_theorem(1, sectors=iter([1, 4]) if one_shot else [1, 4])
        assert report.word_identities == {1: True, 4: True}
        assert report.proved == {1: True, 4: True} and report.passed
        assert [r.sector for r in report.sector_reports] == [1, 4]

    @pytest.mark.parametrize("sectors", [[], (), range(1, 1), iter([])])
    def test_no_sector_is_refused(self, sectors):
        with pytest.raises(ValueError) as got:
            verify_theorem(3, sectors=sectors)
        assert type(got.value) is ValueError
        assert str(got.value) == "sectors names no sector to verify"

    def test_json_shape(self):
        record = verify_theorem(samples_per_sector=1, sectors=[2]).to_json()
        assert record["passed"] is True
        assert record["sectors"][0]["sector"] == 2


class TestRunExpansion:
    def test_zero_steps_is_base_state(self):
        trace = run_expansion(sector_midpoint(2), 0)
        assert trace.steps == ()
        assert trace.initial.wedge_vector_tuple() == QPRIME_VECTORS

    @pytest.mark.parametrize("n", [2.5, 3.0, None, True, False, "3"])
    def test_a_step_count_that_is_not_an_int_is_refused(self, n, monkeypatch):
        monkeypatch.setattr(octagon, "_expand_orbit", None)  # refused before the walk
        message = f"^step count n must be an int, got {type(n).__name__}$"
        with pytest.raises(TypeError, match=message):
            run_expansion(sector_midpoint(2), n)

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


class TestTableDrivenTraces:
    """``run_expansion`` replays sector tables; the staircase executor is the reference."""

    @staticmethod
    def _assert_same(d, n, policy=TiePolicy.LOW):
        got = run_expansion(d, n, policy)
        want = reference_run_expansion(d, n, policy)
        assert got == want
        assert got.to_json() == want.to_json()
        return got

    @settings(max_examples=25, deadline=None)
    @given(
        num=st.integers(-(10**6), 10**6),
        den=st.integers(1, 10**4),
        n=st.integers(0, 50),
    )
    def test_criterion_4_directions(self, num, den, n):
        d = Direction(Vec2(QuadNum(Fraction(num, den)), QuadNum(1)))
        probe = expand(d, n + 1)
        assume(not probe.boundary_hit and not probe.terminating)
        trace = self._assert_same(d, n)
        assert trace.halted is None and len(trace.steps) == n

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("u", ["19/7", "2", "5/3+1/7*sqrt2", "1/3+sqrt2"])
    def test_halting_directions(self, u, policy):
        trace = self._assert_same(Direction(Vec2(QuadNum.parse(u), QuadNum(1))), 50, policy)
        assert trace.halted == "hits_singularity"

    def test_theta_pi(self):
        self._assert_same(Direction(Vec2(-1, 0)), 50)

    @pytest.mark.parametrize("s0", range(8))
    def test_zero_steps(self, s0):
        self._assert_same(sector_midpoint(s0), 0)

    @pytest.mark.parametrize("i", range(1, 8))
    def test_second_entry_in_each_sector(self, i):
        d = Direction(GAMMA_NU[1].inverse().apply(sector_midpoint(i).vector))
        trace = self._assert_same(d, 6)
        assert trace.expansion.entries[:2] == (1, i)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("j", range(1, 9))
    def test_sector_bounds(self, j, policy):
        # the second iterate is the bound j*pi/8: with the LOW policy it is the
        # upper end of sector j-1, with HIGH the lower end of sector j
        bound = _boundary_direction(j).vector
        trace = self._assert_same(Direction(GAMMA_NU_INV[1].apply(bound)), 6, policy)
        if 1 < j < 8:
            assert trace.expansion.entries[1] == (j - 1 if policy is TiePolicy.LOW else j)

    @pytest.mark.usefixtures("default_digit_limit")  # to_json of 1024-bit states
    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("bits", [256, 1024])
    def test_tall_directions(self, bits, policy):
        rng = random.Random(bits)
        for _ in range(3):
            self._assert_same(height_direction(rng, bits), 40, policy)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 7),
        st.lists(
            st.one_of(
                st.tuples(st.integers(1, 7), st.integers(1, 3)),
                st.tuples(st.sampled_from([1, 7]), st.integers(1, 200)),
            ),
            min_size=1,
            max_size=3,
        ),
        st.one_of(
            st.integers(1, 7).map(sector_midpoint),
            st.integers(1, 8).map(_boundary_direction),  # the word ends on a sector bound
        ),
        st.sampled_from(list(TiePolicy)),
    )
    @example(3, [(1, 200)], _boundary_direction(4), TiePolicy.LOW)
    @example(0, [(2, 1), (7, 200)], _boundary_direction(6), TiePolicy.HIGH)
    @example(5, [(7, 120), (4, 2), (1, 200)], sector_midpoint(2), TiePolicy.LOW)
    def test_pulled_back_run_words(self, first, runs, end, policy):
        # long parabolic runs, whose frames are the unipotent powers of one branch
        runs = [(first, 1), *runs]
        self._assert_same(pulled_back(end.vector, runs), sum(n for _, n in runs) + 4, policy)

    @pytest.mark.parametrize("i", range(1, 8))
    def test_replay_at_the_identity_frame_is_the_table(self, i):
        table, _ = _sector_table(i)
        identity = Mat2.identity()
        records = table.replay(sector_midpoint(i), identity, _rational(_integral(identity)), False)
        run, _ = octagon._checked_run(i, sector_midpoint(i))
        assert records == tuple(run.records)
        # equal created sides are one vector, formed once
        made = {id(v) for rec in records for _, v in rec.new_sides}
        assert len(made) == len(table.holonomies) < sum(len(r.new_sides) for r in records)

    def test_frame_arithmetic_does_not_grow_with_the_steps(self, monkeypatch):
        # the frames and the created sides are formed on ints, so no field
        # product (numerics._dot2) and no Mat2.apply runs per step
        for i in range(1, 8):
            _sector_table(i)
        d = random_clean_direction(random.Random(11), 40)
        counts = Counter()
        dot2, apply = numerics._dot2, Mat2.apply
        monkeypatch.setattr(numerics, "_dot2", lambda *a: counts.update(["_dot2"]) or dot2(*a))
        monkeypatch.setattr(Mat2, "apply", lambda m, v: counts.update(["apply"]) or apply(m, v))
        seen = []
        for n in (5, 40):
            counts.clear()
            assert len(run_expansion(d, n).steps) == n
            seen.append(dict(counts))
        assert seen[0] == seen[1]

    def test_each_step_reduces_each_coordinate_once(self, monkeypatch):
        # per step, whatever its index: two gcds per distinct created holonomy but
        # the side (0, 1), which is the frame's second column; four for the frame's
        # entries, or two when the branch keeps the first column; and two for the
        # renormalized direction, or one inside a run that keeps y
        for i in range(1, 8):
            _sector_table(i)
        d = random_clean_direction(random.Random(12), 40)
        calls = []

        def counted(den, p, q):
            calls.append(den)
            return math.gcd(den, p, q)

        # every reduction goes through numerics._reduced, farey._images' included
        monkeypatch.setattr(numerics, "gcd", counted)

        def reductions(n):
            calls.clear()
            trace = run_expansion(d, n)
            assert len(trace.steps) == n
            return len(calls), trace

        base, _ = reductions(0)  # every trace moves Q' to its first reference alike
        for n in (5, 40):
            total, trace = reductions(n)
            entries = trace.expansion.entries  # step k takes entries[k + 1]
            per_step = [
                2 * (len(_sector_table(j)[0].holonomies) - 1)
                + (2 if j in farey._KEEPS_FIRST_COLUMN else 4)
                # the direction has no tie, so equal entries 7 are one run of the walk
                + (1 if j == 7 == before else 2)
                for before, j in zip(entries, entries[1:])
            ]
            assert total - base == sum(per_step)
        assert (7, 7) in zip(entries, entries[1:])  # the count covers a run that keeps y

    def test_slot_built_records_equal_constructor_built_ones(self):
        trace = run_expansion(random_clean_direction(random.Random(13), 6), 6)
        steps = trace.steps
        records = [rec for step in steps for rec in step.records]
        rebuilt = [MoveRecord(rec.side, rec.cycle, rec.new_sides) for rec in records]
        rebuilt_steps = [
            TraceStep(step.entry, step.records, step.state, step.to_original) for step in steps
        ]
        for got, want in zip([*records, *steps], [*rebuilt, *rebuilt_steps], strict=True):
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
            assert pickle.loads(pickle.dumps(got)) == want
            assert copy.copy(got) == want and copy.deepcopy(got) == want
            assert replace(got) == want
        check_value_type(records, ("side", "cycle", "new_sides"))
        check_value_type(steps, ("entry", "records", "state", "to_original"))
        # replace still builds through the constructor, so a changed field shows
        first = records[0]
        label, v = first.new_sides[0]
        bumped = replace(first, new_sides=((label, -v), *first.new_sides[1:]))
        assert bumped != first and bumped.new_sides[0] == (label, -v)
        assert replace(steps[0], entry=0).entry == 0 != steps[0].entry
        assert dataclasses.is_dataclass(MoveRecord) and dataclasses.is_dataclass(TraceStep)

    @pytest.mark.parametrize("i", range(1, 8))
    def test_replay_outside_its_sector_raises_like_the_executor(self, i):
        # A replay is defined on its closed sector only.  On the sector's own
        # endpoints it raises, or not, exactly like the staircase executor.
        ends = [_boundary_direction(i), _boundary_direction(i + 1)]
        identity = Mat2.identity()
        rational = _rational(_integral(identity))
        raised = 0
        for ref in ends + sector_sample_directions(i, 2):
            got = _outcome(lambda: _sector_table(i)[0].replay(ref, identity, rational, ref in ends))
            want = _outcome(lambda: _executor_records(resolved_word(i), ref))
            assert got == want, str(ref)
            raised += got[0] != "ok"
        assert raised > 0

    @pytest.mark.parametrize("i", range(1, 8))
    def test_table_checks_every_wedge_the_word_meets(self, i):
        # what the proof implies, checked on the executor's states: every
        # wedge the word meets holds both sector endpoints, so by linearity
        # the whole closed sector, and no cone check is needed per step
        run = _WordRun(state=qprime(sector_midpoint(i)))
        met = set(run.state.wedges)
        for step in resolved_word(i).steps:
            run.execute(step)
            frame = run.to_original
            for w in run.state.wedges:
                l, r = frame.apply(w.l), frame.apply(w.r)
                met.add(Wedge(l, r) if frame.det().sign() > 0 else Wedge(r, l))
        for end in (_boundary_direction(i), _boundary_direction(i + 1)):
            assert all(w.cone_contains(end) for w in met)

    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("i", range(1, 8))
    def test_corrupted_diagonal_fails_the_proof(self, i, zero):
        table, _ = _sector_table(i)
        moves = tuple(octagon._checked_run(i, sector_midpoint(i))[0].records)
        plain = (1,) * len(moves)  # the plain words reflect before no move
        assert _SectorTable.proved(i, moves, plain, GAMMA_NU_INV[i]) == table
        first = moves[0]
        (label, _), *rest = first.new_sides  # a move's created sides are its diagonals
        # the midpoint direction is left of one endpoint and right of the other;
        # the zero vector is parallel to both
        wrong = Vec2(0, 0) if zero else sector_midpoint(i).vector
        bad = replace(first, new_sides=((label, wrong), *rest))
        with pytest.raises(SectorWordError, match=f"diagonal {label}"):
            _SectorTable.proved(i, (bad, *moves[1:]), plain, GAMMA_NU_INV[i])

    def test_proof_checks_the_renormalizer(self):
        moves = tuple(octagon._checked_run(3, sector_midpoint(3))[0].records)
        flips = (1,) * len(moves)
        with pytest.raises(SectorWordError, match="gamma\\*nu_3"):
            _SectorTable.proved(3, moves, flips, GAMMA_NU_INV[4])

    def test_proof_checks_that_the_branch_carries_the_sector(self, monkeypatch):
        # the frame is gamma*nu_3's, but the branch is gamma*nu_4
        branches = list(GAMMA_NU)
        branches[3] = GAMMA_NU[4]
        monkeypatch.setattr(octagon, "GAMMA_NU", branches)
        moves = tuple(octagon._checked_run(3, sector_midpoint(3))[0].records)
        with pytest.raises(SectorWordError) as got:
            _SectorTable.proved(3, moves, (1,) * len(moves), GAMMA_NU_INV[3])
        assert str(got.value) == "gamma*nu_3 does not carry sector 3 onto [pi/8, pi]"

    def test_proof_checks_the_label_matrix(self, monkeypatch):
        # sector 3's word with A4 as its wanted matrix: every slant still
        # holds, so only the midpoint run's matrix check can refuse the proof
        monkeypatch.setattr(octagon, "sector_matrix", lambda j: sector_matrix(4))
        _sector_table.cache_clear()
        try:
            report = verify_sector(3, sector_midpoint(3))
            assert not report.matrix_equal
            assert report.failure == "first differing matrix entry at (1,3): 0 != 1"
            assert not octagon.prove_sector(3)
            assert not verify_theorem(1, sectors=[3]).proved[3]
        finally:
            _sector_table.cache_clear()

    @pytest.mark.parametrize("i", range(1, 8))
    def test_mirrored_word_replays_like_the_executor(self, i, monkeypatch):
        # the same word run in the mirror frame: every move comes after a reflection
        table, _ = _sector_table(i)
        mirrored = _mirrored_word(i)
        monkeypatch.setattr(octagon, "resolved_word", lambda j: mirrored)
        mirror_table, _ = _sector_table.__wrapped__(i)
        # the proof holds only with flip = -1 before every move
        run, _ = octagon._checked_run(i, sector_midpoint(i))
        moves, n = tuple(run.records), len(run.records)
        assert run.flips == [-1] * n
        mirrored_proof = _SectorTable.proved(i, moves, (-1,) * n, run.to_original)
        assert mirrored_proof == mirror_table
        with pytest.raises(SectorWordError, match="not well slanted"):
            _SectorTable.proved(i, moves, (1,) * n, run.to_original)
        assert (run.to_original, mirror_table.bounds) == (GAMMA_NU_INV[i], table.bounds)
        ends = [_boundary_direction(i), _boundary_direction(i + 1)]
        for ref in ends + sector_sample_directions(i, 2):
            frame = _rational(_integral(GAMMA_NU[2]))
            got = _outcome(lambda: mirror_table.replay(ref, GAMMA_NU[2], frame, ref in ends))
            want = _outcome(lambda: _executor_records(mirrored, ref, GAMMA_NU[2]))
            assert got == want, str(ref)
            if got[0] == "ok":
                plain = table.replay(ref, GAMMA_NU[2], frame, ref in ends)
                assert [r.new_sides for r in got[1]] == [r.new_sides for r in plain]


class TestReusedValues:
    """A trace step reuses exact values it already holds: the frame's second column
    is the image of the created side (0, 1), a branch that fixes (1, 0) keeps the
    frame's first column, and a run whose step vector has no y keeps its y."""

    @staticmethod
    def _assert_same(d, n, policy):
        got = run_expansion(d, n, policy)
        want = reference_run_expansion(d, n, policy)
        assert got == want
        assert [s.to_original for s in got.steps] == [s.to_original for s in want.steps]
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        # the reused values are shared objects, which a round trip must keep equal
        for copied in (pickle.loads(pickle.dumps(got)), copy.deepcopy(got)):
            assert copied == got and json.dumps(copied.to_json()) == json.dumps(want.to_json())
        return got

    @settings(max_examples=10, deadline=None)
    @given(
        num=st.integers(10**5, 10**8),
        den=st.integers(1, 100),
        sign=st.sampled_from([1, -1]),
        policy=st.sampled_from(list(TiePolicy)),
    )
    def test_runs_of_7(self, num, den, sign, policy):
        u = sign * max(Fraction(num, den), Fraction(10**5))
        trace = self._assert_same(Direction(Vec2(QuadNum(u), QuadNum(1))), 30, policy)
        assert trace.expansion.entries[1:] == (7,) * 30

    @settings(max_examples=10, deadline=None)
    @given(
        den=st.integers(20, 10**6),
        policy=st.sampled_from(list(TiePolicy)),
    )
    def test_runs_of_1(self, den, policy):
        # just past pi/8, the fixed ray of the branch of entry 1
        u = QuadNum(1, 1) - QuadNum(Fraction(1, den))
        trace = self._assert_same(Direction(Vec2(u, QuadNum(1))), 30, policy)
        assert trace.expansion.entries[:3] == (1, 1, 1)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize(
        "runs", [[(0, 1)], [(3, 1), (7, 3)], [(5, 1), (1, 4), (2, 1)], [(7, 2), (6, 1), (1, 2)]]
    )
    @pytest.mark.parametrize("ray", [1, 8])
    def test_terminating_directions(self, ray, runs, policy):
        # pulled back from pi/8 the tail is 1, from pi it is 7
        d = pulled_back(_boundary_direction(ray).vector, runs)
        trace = self._assert_same(d, 12, policy)
        assert trace.expansion.tail == (1 if ray == 1 else 7)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("j", range(9))
    def test_rays_j_pi_over_8(self, j, policy):
        self._assert_same(_boundary_direction(j), 12, policy)

    def test_the_facts_behind_the_reuse(self):
        # every sector word creates the side (0, 1), kept last of the table's sides
        column = farey._ints(Vec2(0, 1))
        for i in range(1, 8):
            table, _ = _sector_table(i)
            run, _ = octagon._checked_run(i, sector_midpoint(i))
            assert Vec2(0, 1) in {v for rec in run.records for _, v in rec.new_sides}
            assert table.holonomies[-1] == column and column not in table.holonomies[:-1]
            # a word that made no (0, 1) would have no table to replay
            moves = tuple(
                replace(rec, new_sides=tuple((j, v) for j, v in rec.new_sides if v != Vec2(0, 1)))
                for rec in run.records
            )
            with pytest.raises(SectorWordError, match="creates no side"):
                _SectorTable.proved(i, moves, tuple(run.flips), run.to_original)
        # exactly the branch of entry 7 fixes (1, 0)
        fixing = {j for j in range(8) if GAMMA_NU_INV[j].apply(Vec2(1, 0)) == Vec2(1, 0)}
        assert farey._KEEPS_FIRST_COLUMN == fixing == {7}
        # the walk's step vector w has no y on a run of 7s, and has one on a run of 1s
        seen = Counter()
        rng = random.Random(32)
        directions = [random_clean_direction(rng, 50) for _ in range(10)]
        directions += [pulled_back(Vec2(1, 2), [(s, 1), (j, 40)]) for s in (0, 3) for j in (1, 7)]
        for d in directions:
            steps = []
            farey._walk(d, 60, TiePolicy.LOW, steps)
            for j, _, _, _, w, n in steps:
                if n:
                    seen[j] += 1
                    assert (w[2] == w[3] == 0) == (j == 7), (j, w)
        assert seen[1] and seen[7]


def test_the_frames_are_composed_in_farey():
    # run_expansion takes its frames from farey._frames: octagon composes no
    # frame, makes none rational and reduces no entry of one
    kernel = {
        "_compose", "_INVERSE_BRANCHES", "_rational", "_matrix", "_KEEPS_FIRST_COLUMN", "_mat",
        "_reduced",
    }
    assert kernel.isdisjoint(vars(octagon))
    assert all(hasattr(farey, name) or hasattr(numerics, name) for name in kernel)


def _outcome(run):
    try:
        return "ok", run()
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)


def _executor_records(word, ref, to_original=None):
    run = _WordRun(state=qprime(ref), to_original=to_original or Mat2.identity())
    for step in word.steps:
        run.execute(step)
    return tuple(run.records)


#: (direction, steps) of the inputs that take each path of the first step:
#: the rays j*pi/8, iterates on a sector bound (a tie for the policy), long
#: tails of 1s and 7s, and zero steps, which read no table.
_FIRST_STEP_INPUTS = [
    *((_boundary_direction(j), 12) for j in range(9)),
    *((Direction(GAMMA_NU_INV[1].apply(_boundary_direction(j).vector)), 6) for j in range(1, 9)),
    *((pulled_back(sector_midpoint(3).vector, [(s, 1), (t, 150)]), 154)
      for s in (2, 6) for t in (1, 7)),
    *((sector_midpoint(s), 0) for s in range(8)),
]


class TestQPrimeCheckedOnce:
    """Q' is one checked state, ``octagon._QPRIME``, built at import; every Q' at
    a reference is that state moved by ``at``, which checks only the cones."""

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("d, n", _FIRST_STEP_INPUTS)
    def test_initial_is_the_checked_qprime(self, d, n, policy):
        trace = run_expansion(d, n, policy)
        first = qprime(Direction(GAMMA_NU[trace.expansion.entries[0]].apply(d.vector)))
        assert trace.initial == first
        assert json.dumps(trace.initial.to_json()) == json.dumps(first.to_json())
        want = reference_run_expansion(d, n, policy)
        assert trace == want and json.dumps(trace.to_json()) == json.dumps(want.to_json())

    def test_the_import_build_is_qprime_at_pi(self):
        assert built_as_qprime(QPRIME_VECTORS) == octagon._QPRIME
        assert octagon._QPRIME.ref_dir.is_theta_pi
        assert octagon._Q0 == octagon._QPRIME.transformed(octagon.GAMMA)

    def test_every_state_shares_the_wedges_of_qprime(self):
        wedges = octagon._QPRIME.wedges
        trace = run_expansion(sector_midpoint(4), 3)
        assert trace.initial.wedges is wedges
        assert all(step.state.wedges is wedges for step in trace.steps)
        refs = [*_EXPANDING_ARC, *(d for j in range(1, 8) for d in sector_sample_directions(j, 4))]
        for ref in refs:
            assert qprime(ref).wedges is wedges and qprime(ref).ref_dir is ref
        assert q_zero(sector_midpoint(0)).wedges is octagon._Q0.wedges

    @pytest.mark.parametrize("j", range(1, 8))
    def test_at_is_the_checked_state(self, j):
        # references in every cone of Q': the expanding arc's ends and samples of
        # each expanding sector
        refs = [*sector_sample_directions(j, 3), *_EXPANDING_ARC]
        for ref in refs:
            checked = LabeledQuadrangulation(QPRIME_COMB, _wedges(QPRIME_VECTORS), ref)
            assert qprime(ref) == checked
            assert json.dumps(qprime(ref).to_json()) == json.dumps(checked.to_json())

    def test_no_checked_state_is_built_per_call(self, monkeypatch):
        d = random_clean_direction(random.Random(52), 50)
        run_expansion(d, 50)  # proves the tables the trace replays
        built = Counter()
        post_init = LabeledQuadrangulation.__post_init__

        def counted(state):
            built.update(["checked"])
            post_init(state)

        monkeypatch.setattr(LabeledQuadrangulation, "__post_init__", counted)
        for ref in [*_EXPANDING_ARC, *map(sector_midpoint, range(1, 8))]:
            qprime(ref)
        q_zero(sector_midpoint(0))
        assert len(run_expansion(d, 50).steps) == 50
        assert not built
        LabeledQuadrangulation(QPRIME_COMB, _wedges(QPRIME_VECTORS), _EXPANDING_ARC[0])
        assert built == {"checked": 1}  # the counter sees a checked construction

    def test_broken_constant_fails_at_the_import_build(self):
        broken = list(QPRIME_VECTORS)
        broken[3] = Vec2(1, 1)  # violates the train-track relations
        with pytest.raises(TrainTrackError) as want:
            LabeledQuadrangulation(QPRIME_COMB, _wedges(broken), sector_midpoint(4))
        assert str(want.value).startswith("train-track relation fails at quadrilateral 1")
        with pytest.raises(TrainTrackError) as got:
            built_as_qprime(broken)
        assert str(got.value) == str(want.value)

    def test_the_import_build_checks_that_the_wedges_straddle_the_expanding_arc(self):
        # the wedges of Q0 straddle the near-horizontal sector 0, not [pi/8, pi]:
        # they hold pi/8, so the constructor passes, and moving to pi refuses them
        LabeledQuadrangulation(Q0_COMB, _wedges(Q0_VECTORS), _EXPANDING_ARC[0])
        with pytest.raises(QuadrangulationError) as got:
            built_as_qprime(Q0_VECTORS, Q0_COMB)
        assert type(got.value) is QuadrangulationError
        assert str(got.value) == "reference direction leaves the wedge cone of quadrilateral 1"

    @pytest.mark.parametrize("n", [1, 5])
    def test_scaled_constant_fails_the_proof(self, n, monkeypatch, unproved_sectors):
        # a scaled Q' is a valid quadrangulation of the wrong surface
        d = Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1)))
        run_expansion(d, 5)
        scaled = octagon._QPRIME.transformed(Mat2(2, 0, 0, 2))
        monkeypatch.setattr(octagon, "_QPRIME", scaled)
        _sector_table.cache_clear()
        with pytest.raises(SectorWordError) as got:
            run_expansion(d, n)
        assert str(got.value) == (
            "sector 1 word fails at its midpoint: base quadrangulation area "
            f"{OCTAGON_AREA * 4} != {OCTAGON_AREA}"
        )
        assert run_expansion(d, 0).initial.wedges is scaled.wedges

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_reference_outside_a_cone_fails_as_the_checked_constructor(self, n, monkeypatch):
        # no Farey image leaves [pi/8, pi], so the first reference is replaced
        outside = Direction(Vec2(4, 1))  # below pi/8
        real = octagon._expand_orbit

        def moved(direction, depth, policy):
            expansion, orbit = real(direction, depth, policy)
            entry, tie, _ = orbit[0]
            return expansion, [(entry, tie, outside), *orbit[1:]]

        monkeypatch.setattr(octagon, "_expand_orbit", moved)
        with pytest.raises(QuadrangulationError) as want:
            qprime(outside)
        assert "leaves the wedge cone" in str(want.value)
        d = Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1)))
        with pytest.raises(QuadrangulationError) as got:
            run_expansion(d, n)
        assert type(got.value) is QuadrangulationError and str(got.value) == str(want.value)


def _mirrored_word(i: int) -> ResolvedWord:
    """Sector i's word conjugated by the reflection: reflect, mirrored moves, reflect back.

    The matrix and parity are those of the plain word (renormalization reads
    only the parity).
    """
    mirror = ((1, 2, 3), True)
    run = _WordRun(state=qprime(sector_midpoint(i)))
    run.execute(mirror)
    steps = [mirror]
    for step in resolved_word(i).steps:
        if isinstance(step, StaircaseMove):
            side = Side.PI_L if step.side is Side.PI_R else Side.PI_R
            step = StaircaseMove(side, step.cycle, elementary_matrix(run.state.comb, step.cycle, side))
        run.execute(step)
        steps.append(step)
    steps.append(mirror)
    word = resolved_word(i)
    return ResolvedWord(tuple(steps), word.matrix, word.parity)


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
    from saddle_oracle import is_saddle_connection

    d = Direction(Vec2(QuadNum(Fraction(5, 2)), QuadNum(1)))
    trace = run_expansion(d, 4)
    assert trace.halted is None
    holonomies = set(trace.holonomies()) | set(trace.initial_original_wedges())
    assert holonomies
    for v in holonomies:
        assert is_saddle_connection(v), str(v)
