"""Acceptance suite: the eight exact criteria, one printed pass/fail line each.

Every check is an exact identity over Q(sqrt2) or the integers; the only
numeric quantity is the interval-width threshold of criterion 3, which is a
decimal reading of exactly computed endpoints.  Runtime budgets are asserted
alongside correctness.
"""

import random
import time
from fractions import Fraction

from helpers import cone_contains_cone, cones_of, error_cmp, int_det, moebius
from octocf.classical import (
    QuadraticIrrational,
    geometric_convergents,
    intermediate_convergents,
)
from octocf.diagch import CombDatum, LabeledQuadrangulation, Side, Wedge, elementary_matrix
from octocf.farey import (
    GAMMA,
    GAMMA_NU,
    SECTOR_BOUNDS,
    Direction,
    expand,
    reconstruct,
    theta_cmp,
)
from octocf.h2moves import (
    ReducedMove,
    compose_word,
    resolved_word,
    sector_matrix,
    sector_word,
)
from octocf.numerics import Mat2, QuadNum, Vec2, quad_floor
from octocf.octagon import (
    OCTAGON_AREA,
    _WordRun,
    qprime,
    run_expansion,
    sector_midpoint,
    sector_sample_directions,
    verify_sector,
)


def _report(number: int, title: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number} ({title}) [{elapsed:.2f}s]")


def test_criterion_1_acceleration_matrices():
    """Sector words executed through staircase moves reproduce A1..A7."""
    start = time.time()
    ok = True
    for i in range(1, 8):
        word = resolved_word(i)
        run = _WordRun(state=qprime(sector_midpoint(i)))
        for step in word.steps:
            run.execute(step)
        ok &= word.matrix == sector_matrix(i)
        assert word.matrix == sector_matrix(i), f"sector {i} word does not compose to A{i}"
    for i in (1, 4, 5, 6, 7):
        matrix, _, _ = compose_word(sector_word(i))
        ok &= matrix == sector_matrix(i)
        assert matrix == sector_matrix(i), f"reduced word {i} mismatch"
    elapsed = time.time() - start
    _report(1, "A-matrix identities", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_2_farey_structure():
    """Exact structural identities of the octagon Farey map."""
    start = time.time()
    assert GAMMA @ GAMMA == Mat2.identity()
    for j in range(7):
        shared = SECTOR_BOUNDS[j]
        assert moebius(GAMMA_NU[j], shared) == moebius(GAMMA_NU[j + 1], shared)
    # each branch maps its sector endpoints onto the endpoints of the union
    grid = [Direction(Vec2(1, 0))] + [
        Direction(Vec2(b, QuadNum(1))) for b in SECTOR_BOUNDS
    ] + [Direction(Vec2(-1, 0))]
    pi8 = Direction(Vec2(QuadNum(1, 1), QuadNum(1)))
    for j in range(8):
        images = {
            _endpoint_key(Direction(GAMMA_NU[j].apply(grid[j].vector)), pi8),
            _endpoint_key(Direction(GAMMA_NU[j].apply(grid[j + 1].vector)), pi8),
        }
        assert images == {"pi8", "pi"}, j
    # fixed point of the first branch and the 0 -> pi -> pi chain
    silver = QuadNum(1, 1)
    assert moebius(GAMMA_NU[1], silver) == silver
    e0 = expand(Direction(Vec2(1, 0)), 6)
    epi = expand(Direction(Vec2(-1, 0)), 6)
    assert e0.entries == (0, 7, 7, 7, 7, 7) and e0.tail == 7
    assert epi.entries == (7, 7, 7, 7, 7, 7) and epi.tail == 7
    elapsed = time.time() - start
    _report(2, "Farey map structure", True, elapsed)
    assert elapsed < 1.0


def _endpoint_key(d: Direction, pi8: Direction) -> str:
    if d.is_theta_pi:
        return "pi"
    if d.ray_eq(pi8):
        return "pi8"
    return str(d)


def test_criterion_3_dual_expansions():
    """Paired terminating sequences squeeze onto one direction."""
    start = time.time()
    rng = random.Random(20260811)
    depth = 200
    for trial in range(20):
        prefix = [rng.randint(1, 7)] + [rng.randint(1, 7) for _ in range(rng.randint(20, 35))]
        for junction, tail in ((rng.choice((2, 4, 6)), 1), (rng.choice((1, 3, 5)), 7)):
            seq_a = prefix + [junction] + [tail] * depth
            seq_b = prefix + [junction + 1] + [tail] * depth
            _check_dual_pair(seq_a, seq_b, depth)
    elapsed = time.time() - start
    _report(3, "dual expansions", True, elapsed)
    assert elapsed < 10.0


def _interval_from(matrix: Mat2, last_entry: int):
    ends = []
    for j in (last_entry, last_entry + 1):
        if j == 0:
            v = Vec2(1, 0)
        elif j == 8:
            v = Vec2(-1, 0)
        else:
            v = Vec2(SECTOR_BOUNDS[j - 1], QuadNum(1))
        ends.append(Direction(matrix.apply(v)))
    if theta_cmp(ends[0], ends[1]) <= 0:
        return ends[0], ends[1]
    return ends[1], ends[0]


def _check_dual_pair(seq_a, seq_b, depth):
    m_a = m_b = Mat2.identity()
    hull_prev = None
    first_below = None
    for k in range(1, depth + 1):
        lo_a, hi_a = _interval_from(m_a, seq_a[k - 1])
        lo_b, hi_b = _interval_from(m_b, seq_b[k - 1])
        m_a = m_a @ GAMMA_NU[seq_a[k - 1]].inverse()
        m_b = m_b @ GAMMA_NU[seq_b[k - 1]].inverse()
        # nonempty intersection at every depth
        assert theta_cmp(lo_a, hi_b) <= 0 and theta_cmp(lo_b, hi_a) <= 0, k
        hull = (
            lo_a if theta_cmp(lo_a, lo_b) <= 0 else lo_b,
            hi_a if theta_cmp(hi_a, hi_b) >= 0 else hi_b,
        )
        if hull_prev is not None:
            lo_in = theta_cmp(hull_prev[0], hull[0])
            hi_in = theta_cmp(hull[1], hull_prev[1])
            assert lo_in <= 0 and hi_in <= 0 and (lo_in < 0 or hi_in < 0), k
        hull_prev = hull
        if first_below is None:
            width = hull[1].theta_float() - hull[0].theta_float()
            if width < 1e-6:
                first_below = k
    assert first_below is not None and first_below <= depth
    # spot-check the incremental intervals against the public reconstruction
    probe = reconstruct(seq_a[: min(4, depth)])
    lo, hi = _interval_from_chain(seq_a[: min(4, depth)])
    assert theta_cmp(probe.lo, lo) == 0 and theta_cmp(probe.hi, hi) == 0


def _interval_from_chain(entries):
    m = Mat2.identity()
    for s in entries[:-1]:
        m = m @ GAMMA_NU[s].inverse()
    return _interval_from(m, entries[-1])


def test_criterion_4_dynamic_invariant_suite():
    """100 random interior directions, 50 renormalization steps, all exact."""
    start = time.time()
    rng = random.Random(99)
    directions = []
    attempts = 0
    while len(directions) < 100 and attempts < 5000:
        attempts += 1
        u = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**4))
        d = Direction(Vec2(QuadNum(u), QuadNum(1)))
        probe = expand(d, 51)
        if not probe.boundary_hit and not probe.terminating:
            directions.append(d)
    assert len(directions) == 100
    for d in directions:
        trace = run_expansion(d, 50)
        assert trace.halted is None and len(trace.steps) == 50
        previous = cones_of(trace.initial_original_wedges())
        for step in trace.steps:
            assert step.state.total_area() == OCTAGON_AREA
            for i in (1, 2, 3):
                step.state.diagonal(i)  # raises if train-track relations fail
            current = cones_of(step.original_wedges)
            for cone in current:
                left, right = cone
                assert d.vector.cross(left).sign() > 0 > d.vector.cross(right).sign()
                assert any(cone_contains_cone(p, cone) for p in previous)
            previous = current
    elapsed = time.time() - start
    _report(4, "dynamic invariant suite", True, elapsed)
    assert elapsed < 60.0


def test_criterion_5_renormalization_fixed_point():
    """The renormalizer maps post-word wedges exactly onto the base vectors."""
    start = time.time()
    for i in range(1, 8):
        det = GAMMA_NU[i].det()
        expected_parity = 1 if i % 2 == 0 else 0
        assert (det == QuadNum(-1)) == (expected_parity == 1)
        for d in sector_sample_directions(i, 3):
            report = verify_sector(i, d)
            assert report.passed, report.to_json()
            assert report.parity == expected_parity
            assert report.closes_up
    elapsed = time.time() - start
    _report(5, "renormalization fixed point", True, elapsed)
    assert elapsed < 1.0


def test_criterion_6_torus_baseline_oracle():
    """Geometric convergents against brute-force best approximations."""
    start = time.time()
    sqrt2 = QuadraticIrrational.sqrt_of(2)
    golden = QuadraticIrrational.golden_ratio()
    got = geometric_convergents(sqrt2, 4)
    assert got.vectors == ((1, 1), (3, 2), (7, 5), (17, 12))
    # The integer-part convergent is a best approximation only when the
    # fractional part is below 1/2: true for sqrt2, false for the golden
    # ratio, whose check therefore starts at the first full step.
    for alpha, start_index in ((sqrt2, 0), (golden, 1)):
        vectors = geometric_convergents(alpha, 25).vectors[start_index:]
        convergents = {q: p for p, q in vectors if q <= 10**4}
        best = None  # the (p, q) with the least |q*alpha - p| so far
        for q in range(1, 10**4 + 1):
            p = quad_floor(q * alpha.a, q * alpha.b, alpha.c, alpha.d)
            nearest = (p, q) if error_cmp(alpha, (p, q), (p + 1, q)) <= 0 else (p + 1, q)
            if q in convergents:
                conv = (convergents[q], q)
                # the convergent numerator is optimal
                assert error_cmp(alpha, conv, nearest) == 0, q
                assert best is None or error_cmp(alpha, conv, best) <= 0, q
            if best is None or error_cmp(alpha, nearest, best) < 0:
                best = nearest
    got = geometric_convergents(sqrt2, 30)
    vecs = ((0, 1), (1, 0)) + got.vectors
    for prev, cur in zip(vecs, vecs[1:]):
        assert abs(cur[0] * prev[1] - prev[0] * cur[1]) == 1
    elapsed = time.time() - start
    _report(6, "torus baseline oracle", True, elapsed)
    assert elapsed < 5.0


def test_criterion_7_k1_equivalence():
    """Torus diagonal changes reproduce the classical convergent stream."""
    start = time.time()
    alpha = QuadNum(0, 1)
    ref = Direction(Vec2(alpha, QuadNum(1)))
    state = LabeledQuadrangulation(
        CombDatum(1, (1,), (1,)), (Wedge(Vec2(0, 1), Vec2(1, 0)),), ref
    )
    produced = []
    for _ in range(15):
        move = state.available_moves()[0]
        state = state.apply(move)
        new = state.wedges[0].l if move.side is Side.PI_R else state.wedges[0].r
        produced.append((int(new.x.a), int(new.y.a)))
    result = geometric_convergents(QuadraticIrrational.sqrt_of(2), 10)
    interleaved = []
    for group, vec in zip(intermediate_convergents(QuadraticIrrational.sqrt_of(2), 10), result.vectors):
        interleaved.extend(group)
        interleaved.append(vec)
    assert produced == interleaved[:15]
    elapsed = time.time() - start
    _report(7, "k=1 equivalence", True, elapsed)
    assert elapsed < 1.0


def test_criterion_8_determinant_audit():
    """Unimodularity and nonnegativity of every move matrix."""
    start = time.time()
    for i in range(1, 8):
        assert abs(int_det(sector_matrix(i))) == 1
    for move in ReducedMove:
        m = move.matrix
        assert int_det(m) in (-1, 1)
        assert all(x >= 0 for row in m for x in row)
    seen = set()
    for i in range(1, 8):
        run = _WordRun(state=qprime(sector_midpoint(i)))
        for step in resolved_word(i).steps:
            comb = run.state.comb
            run.execute(step)
            seen.add((comb.pi_l, comb.pi_r))
    for pi_l, pi_r in seen:
        comb = CombDatum(3, pi_l, pi_r)
        for side in Side:
            for cycle in comb.cycles(side):
                m = elementary_matrix(comb, cycle, side)
                assert int_det(m) == 1
                assert all(x >= 0 for row in m for x in row)
    elapsed = time.time() - start
    _report(8, "determinant audit", True, elapsed)
    assert elapsed < 1.0
