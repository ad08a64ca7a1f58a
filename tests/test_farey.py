"""Octagon Farey map: sectors, folding, expansions, reconstruction, duals."""

import array
import enum
import itertools
import math
import pickle
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    check_value_type,
    classify_directions,
    farey_step,
    fold,
    height_direction,
    interior_directions,
    inverse_slope,
    moebius,
    nonzero_quadnums,
    pulled_back,
    reference_classify,
    reference_dual_expansion,
    reference_expand_orbit,
    reference_matmul,
    reference_quad,
    reference_reconstruct,
    reference_sectors,
    reference_theta_cmp,
)
from octocf import farey, numerics
from octocf.farey import (
    GAMMA,
    GAMMA_NU,
    GAMMA_NU_INV,
    NU,
    SECTOR_BOUNDS,
    Direction,
    FareyExpansion,
    InadmissiblePrefixError,
    RP1Interval,
    TiePolicy,
    WalkInvariantError,
    _RUN_EXIT,
    _expand_orbit,
    classify,
    dual_expansion,
    expand,
    reconstruct,
    theta_cmp,
)
from octocf.numerics import Mat2, QuadNum, Vec2


class TestDihedralElements:
    def test_nu1_is_involution(self):
        assert NU[1] @ NU[1] == Mat2.identity()

    def test_gamma_squared_is_identity(self):
        assert GAMMA @ GAMMA == Mat2.identity()

    def test_cached_branch_inverses(self):
        for g, inv in zip(GAMMA_NU, GAMMA_NU_INV, strict=True):
            assert inv @ g == Mat2.identity()

    def test_branch_inverse_is_the_stored_one(self):
        for g, inv in zip(GAMMA_NU, GAMMA_NU_INV, strict=True):
            assert g.inverse() is inv

    def test_determinants_alternate(self):
        for j, nu in enumerate(NU):
            expected = QuadNum(-1) if j % 2 else QuadNum(1)
            assert nu.det() == expected

    @pytest.mark.parametrize("j, ray", [(1, Vec2(QuadNum(1, 1), QuadNum(1))), (7, Vec2(-1, 0))])
    def test_parabolic_branches_are_unipotent(self, j, ray):
        # the run formulas M^n = I + n(M - I) of expand and reconstruct rest on these
        zero = Mat2(0, 0, 0, 0)
        for m in (GAMMA_NU[j], GAMMA_NU_INV[j]):
            n = Mat2(m.a - 1, m.b, m.c, m.d - 1)
            assert n @ n == zero
        assert GAMMA_NU[j].apply(ray) == ray
        # the run length of _expand_orbit is a floor, as c1 = cross((M - I)v, exit) has
        # one sign on the open sector: it is linear in v, zero only at the fixed ray
        xp, xq, yp, yq = _RUN_EXIT[j]
        exit_end = Vec2(QuadNum(xp, xq), QuadNum(yp, yq))
        for k in (j, j + 1):
            end = _grid_direction(k).vector
            c1 = (GAMMA_NU[j].apply(end) - end).cross(exit_end).sign()
            if Direction(end).ray_eq(Direction(ray)):
                assert c1 == 0 and end.cross(exit_end).sign() > 0  # the interior sign
            else:
                assert c1 < 0 and end.cross(exit_end).sign() == 0
        # the walk tests cross(x, exit) > 0 before it builds w, which is zero on the
        # fixed ray, so the ray must pass the test for the walk to stop on it
        assert ray.cross(exit_end) == {1: QuadNum(0, 1), 7: QuadNum(1)}[j]
        walked = expand(Direction(ray), 50, TiePolicy.HIGH)
        assert (walked.entries, walked.tail) == ((j,) * 50, j)

    def test_inverse_branches_reverse_orientation_exactly_for_even_entries(self):
        # the rule by which reconstruct orders the pulled-back sector ends
        signs = [GAMMA_NU_INV[j].det().sign() for j in range(8)]
        assert signs == [-1, 1, -1, 1, -1, 1, -1, 1]

    def test_integral_branches(self):
        # the walks step with sqrt2^k * M, integral over Z[sqrt2]; k = 1 for j = 1, 2, 5, 6
        vectors = [Vec2(3, 1), Vec2(QuadNum(Fraction(-5, 7), 2), QuadNum(1, 1)), Vec2(-1, 0)]
        tables = ((GAMMA_NU, farey._BRANCHES), (GAMMA_NU_INV, farey._INVERSE_BRANCHES))
        for branches, table in tables:
            for j, (m, (k, ints)) in enumerate(zip(branches, table, strict=True)):
                assert k == (j in (1, 2, 5, 6))
                for v in vectors:
                    v_ints, den = farey._ints(v)
                    (image,) = farey._images(farey._rational((k, ints)), [(v_ints, den)])
                    assert image == m.apply(v)

    @staticmethod
    def _check_blocks_of(n):
        # each block of n entries is its branches composed in turn, as stripped
        # ints and exponent and as the matrix product
        branches, blocks = farey._INVERSE_BRANCHES, farey._blocks()
        keys = [bytes(b) for b in itertools.product(range(8), repeat=n)]
        for block in keys:
            value = blocks[block]
            in_turn = branches[block[0]] if block else (0, farey._SCALARS[0])
            for j in block[1:]:
                in_turn = farey._compose(in_turn, branches[j])
            product = Mat2.identity()
            for j in block:
                product = product @ GAMMA_NU_INV[j]
            assert value == in_turn
            assert farey._matrix(farey._rational(value)) == product
        return len(keys)

    def test_block_table_is_the_composed_branches(self):
        # every block of 0 to 3 entries, 1 + 8 + 64 + 512 keys, b"" the identity
        blocks = farey._blocks()
        assert len(blocks) == 585
        keys = {bytes(b) for n in range(4) for b in itertools.product(range(8), repeat=n)}
        assert set(blocks) == keys
        assert self._check_blocks_of(0) == 1
        assert self._check_blocks_of(1) == 8

    def test_pair_table_is_the_composed_branches(self):
        assert self._check_blocks_of(2) == 64

    def test_triple_table_is_the_composed_branches(self):
        assert self._check_blocks_of(3) == 512

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 7), min_size=0, max_size=6),
        st.integers(0, 7),
        st.integers(1, 7),
    )
    def test_a_pair_composes_as_its_two_branches(self, head, s, t):
        # from any frame, the stripped product with the pair is the stripped
        # product with one branch and then the other, ints and exponent alike
        frame = (0, farey._SCALARS[0])
        for j in head:
            frame = farey._compose(frame, farey._INVERSE_BRANCHES[j])
        one_by_one = farey._compose(
            farey._compose(frame, farey._INVERSE_BRANCHES[s]), farey._INVERSE_BRANCHES[t]
        )
        assert farey._compose(frame, farey._blocks()[bytes((s, t))]) == one_by_one

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 7), min_size=0, max_size=6),
        st.integers(0, 7),
        st.integers(1, 7),
        st.integers(1, 7),
    )
    def test_a_triple_composes_as_its_three_branches(self, head, s, t, u):
        frame = (0, farey._SCALARS[0])
        for j in head:
            frame = farey._compose(frame, farey._INVERSE_BRANCHES[j])
        one_by_one = frame
        for j in (s, t, u):
            one_by_one = farey._compose(one_by_one, farey._INVERSE_BRANCHES[j])
        assert farey._compose(frame, farey._blocks()[bytes((s, t, u))]) == one_by_one

    @staticmethod
    def _check_swap_form(frame):
        # the invariant that lets _compose's strip skip d: the frame is (0, P) or
        # (1, P) with P = alpha*I + beta*S mod 2, S the swap, so a = d and b = c
        # mod 2 in both ints, and P is not divisible by sqrt2
        e, p = frame
        assert e in (0, 1)
        assert [(p[i] - p[j]) & 1 for i, j in ((0, 6), (1, 7), (2, 4), (3, 5))] == [0] * 4
        assert p[0] & 1 or p[2] & 1 or p[4] & 1

    def test_blocks_are_swap_forms_mod_2(self):
        for frame in farey._blocks().values():
            self._check_swap_form(frame)

    @pytest.mark.parametrize("j", farey._PARABOLIC)
    def test_parabolic_run_factors_are_swap_forms_mod_2(self, j):
        # reconstruct composes a run of n entries j as the one factor I + n(M - I)
        k, m = farey._INVERSE_BRANCHES[j]
        identity = (0, farey._SCALARS[0])
        for n in [*range(1, 40), 2**20, 3**40 + 1]:
            run = (k, tuple(i + n * (a - i) for i, a in zip(farey._SCALARS[k], m)))
            power = Mat2.identity()
            for _ in range(min(n, 39)):
                power = power @ GAMMA_NU_INV[j]
            for head in (identity, farey._INVERSE_BRANCHES[2], farey._blocks()[b"\5\6\3"]):
                frame = farey._compose(head, run)
                self._check_swap_form(frame)
                if n < 40 and head is identity:
                    assert farey._matrix(farey._rational(frame)) == power

    def test_random_words_are_swap_forms_mod_2(self):
        rng = random.Random(20261020)
        for word in range(1000):
            frame, product = (0, farey._SCALARS[0]), Mat2.identity()
            for j in rng.choices(range(8), k=rng.randint(1, 60)):
                frame = farey._compose(frame, farey._INVERSE_BRANCHES[j])
                self._check_swap_form(frame)
                if word < 50:
                    product = product @ GAMMA_NU_INV[j]
            if word < 50:
                assert farey._matrix(farey._rational(frame)) == product

    def test_sector_ends_are_the_grid_rays(self):
        assert len(farey._END_INTS) == 9
        for j, ints in enumerate(farey._END_INTS):
            assert farey._boundary_direction(j) == _grid_direction(j)
            assert farey._ints(_grid_direction(j).vector) == (ints, 1)

    @given(
        st.lists(st.integers(-(2**70), 2**70) | st.integers(-3, 3), min_size=8, max_size=8),
        st.integers(1, 12) | st.sampled_from([2**40, 6 * 2**33]),
        st.integers(-7, 7),
    )
    @example([0, 0, 6, -4, 5, 3, 0, 0], 1, -3)
    @example([-4, 2, 0, 0, 8, -6, 1, 1], 6, 5)
    @example([2, 0, 0, 2, -2, 4, 4, 8], 4, 0)
    def test_shared_exponent_builders_equal_each_coordinate(self, ints, den, e):
        # odd, even and negative e; den > 1; zero, negative and common-factor
        # coordinates: one shift for all coordinates is each coordinate's own value
        want = [reference_quad(ints[k], ints[k + 1], den, e) for k in (0, 2)]
        scalar = farey._rational((e, farey._SCALARS[0]))  # 1/sqrt2^e
        (got,) = farey._images(scalar, [(tuple(ints[:4]), den)])
        assert (got.x.ints, got.y.ints) == tuple(w.ints for w in want)
        assert got == Vec2(*want) and hash(got) == hash(Vec2(*want))
        m = farey._matrix(farey._rational((e, tuple(ints))))
        want = [reference_quad(ints[k], ints[k + 1], 1, e) for k in range(0, 8, 2)]
        assert [c.ints for c in (m.a, m.b, m.c, m.d)] == [w.ints for w in want]
        assert m == Mat2(*want) and hash(m) == hash(Mat2(*want))

    def test_branches_keep_the_upper_half_plane(self):
        # so the integral walks never negate: GAMMA_NU[j] maps the closed sector j, and
        # GAMMA_NU_INV[j] maps [pi/8, pi], into y >= 0, as both are linear
        for j in range(8):
            for end in (j, j + 1):
                assert GAMMA_NU[j].apply(_grid_direction(end).vector).y.sign() >= 0
            for end in (1, 8):
                assert GAMMA_NU_INV[j].apply(_grid_direction(end).vector).y.sign() >= 0

    def test_folding_maps_sector_onto_sector0(self):
        # endpoints of each sector land on the endpoints of sector 0
        for j in range(8):
            lo = _grid_direction(j)
            hi = _grid_direction(j + 1)
            images = {
                _canonical_u(Direction(NU[j].apply(lo.vector))),
                _canonical_u(Direction(NU[j].apply(hi.vector))),
            }
            assert images == {"inf-0", str(QuadNum(1, 1))}


def _grid_direction(j: int) -> Direction:
    if j == 0:
        return Direction(Vec2(1, 0))
    if j == 8:
        return Direction(Vec2(-1, 0))
    return Direction(Vec2(SECTOR_BOUNDS[j - 1], QuadNum(1)))


def _canonical_u(d: Direction) -> str:
    if d.is_theta_zero:
        return "inf-0"
    if d.is_theta_pi:
        return "inf-pi"
    return str(d.vector.x / d.vector.y)


class TestClassify:
    def test_shared_boundary(self):
        assert classify(Direction(Vec2(1, 1))) == (1, 2)

    def test_horizontal_rays(self):
        assert classify(Direction(Vec2(1, 0))) == (0,)
        assert classify(Direction(Vec2(-1, 0))) == (7,)

    def test_interior(self):
        assert classify(Direction(Vec2(2, 1))) == (1,)

    @given(interior_directions())
    def test_interior_is_unambiguous_or_boundary(self, d):
        sectors = classify(d)
        assert len(sectors) in (1, 2)
        if len(sectors) == 2:
            assert sectors[1] == sectors[0] + 1


    @settings(max_examples=300, deadline=None)
    @given(classify_directions())
    def test_matches_the_dividing_reference(self, d):
        assert classify(d) == reference_classify(d)

    @pytest.mark.parametrize("scale", [(1, 0), (3, 0), (0, 1), (5, -3), (2**80 + 1, 2**79)])
    def test_search_matches_the_linear_scan_on_every_bound(self, scale):
        # (p + q*sqrt2) * end for a positive p + q*sqrt2: each bound is a tie
        cp, cq = scale
        assert numerics.quad_sign(cp, cq, 2) > 0
        for j, (xp, xq, yp, yq) in enumerate(farey._END_INTS):
            v = (cp * xp + 2 * cq * xq, cp * xq + cq * xp, cp * yp + 2 * cq * yq, cp * yq + cq * yp)
            want = (0,) if j == 0 else (7,) if j == 8 else (j - 1, j)
            assert farey._sectors(*v) == reference_sectors(v) == want

    @pytest.mark.parametrize("xp, xq", [(1, 0), (-1, 0), (7, -4), (-7, 5), (0, 3), (0, -1)])
    def test_search_matches_the_linear_scan_on_the_horizontals(self, xp, xq):
        v = (xp, xq, 0, 0)
        want = (0,) if numerics.quad_sign(xp, xq, 2) > 0 else (7,)
        assert farey._sectors(*v) == reference_sectors(v) == want

    @settings(max_examples=400, deadline=None)
    @given(st.tuples(*[st.integers(-(2**64), 2**64) | st.integers(-9, 9)] * 4))
    def test_search_matches_the_linear_scan(self, v):
        xp, xq, yp, yq = v
        if numerics.quad_sign(yp, yq, 2) < 0:
            v = (-xp, -xq, -yp, -yq)
        if any(v):
            assert farey._sectors(*v) == reference_sectors(v)


def _times(c, v):
    """(cp + cq*sqrt2) * v on the ints (p, q, ...) of a number or a vector."""
    cp, cq = c
    return tuple(
        i for p, q in zip(v[::2], v[1::2]) for i in (cp * p + 2 * cq * q, cp * q + cq * p)
    )


def _leaf_cases():
    """One vector per leaf of ``_sectors``' tree, with the sectors it must give."""
    ends = farey._END_INTS
    for j in range(8):  # the sum of a sector's two ends lies strictly inside it
        inside = tuple(a + b for a, b in zip(ends[j], ends[j + 1]))
        yield pytest.param(inside, (j,), id=f"inside-{j}")
    for j in range(1, 8):
        yield pytest.param(ends[j], (j - 1, j), id=f"tie-{j - 1}-{j}")
    yield pytest.param(ends[0], (0,), id="theta-0")
    yield pytest.param(ends[8], (7,), id="theta-pi")


class TestSectorTree:
    """``_sectors``' fixed tree of three sign tests, leaf by leaf and just off each bound."""

    @pytest.mark.parametrize("v, want", _leaf_cases())
    def test_leaf(self, v, want):
        # at positive scales p + q*sqrt2, as the walk's iterates come
        for c in [(1, 0), (3, 0), (0, 1), (5, -3), (2**80 + 1, 2**79), (2**64 - 1, -(2**63))]:
            assert numerics.quad_sign(*c, 2) > 0
            w = _times(c, v)
            assert farey._sectors(*w) == reference_sectors(w) == want

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 7),
        st.tuples(st.integers(-(2**64), 2**64), st.integers(-(2**64), 2**64)).filter(any),
        st.integers(1, 2**64),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @example(1, (1, 0), 2**64, (1, 0))
    @example(7, (2**64, -(2**63)), 2**64, (0, -1))
    def test_just_off_each_bound(self, j, y, n, r):
        # x = (n*b_j + r)*y and the vector (x, n*y): u = b_j + r/n, the bound for r = 0
        if numerics.quad_sign(*y, 2) < 0:
            y = (-y[0], -y[1])
        bp, bq = farey._END_INTS[j][:2]
        v = (*_times((n * bp + r[0], n * bq + r[1]), y), n * y[0], n * y[1])
        assert farey._sectors(*v) == reference_sectors(v)


def _power_of_root2(e: int) -> QuadNum:
    """sqrt2^e by repeated products of sqrt2 or of 1/sqrt2 = sqrt2/2."""
    factor = QuadNum(0, 1) if e > 0 else QuadNum(0, Fraction(1, 2))
    power = QuadNum(1)
    for _ in range(abs(e)):
        power = power * factor
    return power


@pytest.mark.parametrize("e", [-5, -2, -1, 0, 1, 4])
@settings(max_examples=40, deadline=None)
@given(
    st.tuples(*[st.integers(-(10**40), 10**40)] * 4).filter(any),
    st.integers(1, 10**30),
)
def test_direction_from_ints_is_the_fraction_built_one(e, v, den):
    # the walks' vector v/(den*sqrt2^e), built once per coordinate, is the exact vector
    xp, xq, yp, yq = v
    scale = _power_of_root2(-e)
    x = QuadNum(Fraction(xp, den), Fraction(xq, den)) * scale
    y = QuadNum(Fraction(yp, den), Fraction(yq, den)) * scale
    (image,) = farey._images(farey._rational((e, farey._SCALARS[0])), [(v, den)])
    assert Direction(image) == Direction(Vec2(x, y))


def _reference_directions(x, w, n, den, e):
    """Each (x + t*w)/(den*sqrt2^e), t = 0..n, by the field operators and the
    validating constructor."""
    vectors = [[c + t * dc for c, dc in zip(x, w)] if t else x for t in range(n + 1)]
    return [
        Direction(Vec2(reference_quad(xp, xq, den, e), reference_quad(yp, yq, den, e)))
        for xp, xq, yp, yq in vectors
    ]


def _upper(p, q):
    """(p, q) or (-p, -q), whichever has p + q*sqrt2 >= 0."""
    return (p, q) if numerics.quad_sign(p, q, 2) >= 0 else (-p, -q)


class TestBuilders:
    """The builders of the walk's vectors and of a trace's frames, against the
    field operators and the validating constructors."""

    @staticmethod
    def _assert_directions(x, w, n, den, e):
        got = farey._directions(x, w, n, den, e)
        want = _reference_directions(x, w, n, den, e)
        assert len(got) == len(want) == n + 1
        for g, v in zip(got, want):
            assert type(g) is Direction and g == v and hash(g) == hash(v)
            assert (g.vector.x.ints, g.vector.y.ints) == (v.vector.x.ints, v.vector.y.ints)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-(2**40), 2**40) | st.integers(-3, 3), min_size=4, max_size=4),
        st.lists(st.integers(-(2**20), 2**20) | st.integers(-2, 2), min_size=4, max_size=4),
        st.booleans(),
        st.integers(0, 5),
        st.integers(1, 12) | st.sampled_from([2**40, 6 * 2**33]),
        st.integers(-7, 7),
    )
    @example([3, 1, 1, 0], [2, 2, 5, 7], False, 4, 1, 3)
    @example([3, 1, 1, 0], [2, 2, 5, 7], True, 4, 6, -2)
    @example([-4, 2, 6, -4], [0, 0, 0, 0], True, 0, 4, 0)
    def test_directions_are_the_validated_directions(self, x, w, y_step, n, den, e):
        # even, odd and negative e; n = 0; runs with a y step, as runs of 1s
        # have, and without one, as runs of 7s have; y >= 0 all along the run
        x = (x[0], x[1], *_upper(x[2], x[3]))
        w = (w[0], w[1], *_upper(w[2], w[3])) if y_step else (w[0], w[1], 0, 0)
        assume(all(any(c + t * dc for c, dc in zip(x, w)) for t in range(n + 1)))
        self._assert_directions(x, w, n, den, e)
        if not n:
            assert farey._directions(x, None, 0, den, e) == farey._directions(x, w, 0, den, e)

    @pytest.mark.parametrize("e", [-3, -2, -1, 0, 1, 2, 3])
    def test_directions_of_the_rays_j_pi_over_8(self, e):
        for ints in farey._END_INTS:
            self._assert_directions(ints, None, 0, 1, e)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_directions_of_the_walk_steps(self, policy):
        # runs of 1s and of 7s, and the fixed rays, whose run is one image
        directions = [pulled_back(Vec2(1, 2), [(s, 1), (j, 40)]) for s in (0, 3) for j in (1, 7)]
        directions += [farey._boundary_direction(j) for j in range(9)]
        runs = Counter()
        for d in directions:
            den, _, steps = farey._walk(d, 60, policy)
            for j, _, x, e, w, n in steps:
                self._assert_directions(x, w, n, den, e)
                runs[j] += n > 0
        assert runs[1] and runs[7]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 7),
        st.lists(
            st.tuples(st.sampled_from([1, 7]) | st.integers(1, 7), st.integers(1, 6)),
            max_size=8,
        ),
    )
    @example(0, [(1, 5), (7, 6), (3, 1), (1, 2)])
    @example(0, [])
    def test_frames_are_the_running_products(self, first, runs):
        entries = [first] + [j for j, n in runs for _ in range(n)]
        frames = farey._frames(entries)
        assert len(frames) == len(entries)
        assert frames[0][0] is GAMMA_NU_INV[first]
        want = GAMMA_NU_INV[first]
        for k, (matrix, (den, ints)) in enumerate(frames):
            if k:
                want = reference_matmul(want, GAMMA_NU_INV[entries[k]])
            cells = [want.a, want.b, want.c, want.d]
            assert matrix == want and hash(matrix) == hash(want)
            assert [c.ints for c in (matrix.a, matrix.b, matrix.c, matrix.d)] == [
                c.ints for c in cells
            ]
            # the rational form P'/den, den a power of 2, is the same matrix
            assert den > 0 and den & (den - 1) == 0
            pairs = zip(ints[0::2], ints[1::2])
            assert [QuadNum(Fraction(p, den), Fraction(q, den)) for p, q in pairs] == cells


def _assert_orbit_is_the_reference(d, depth, policy):
    expansion, orbit = _expand_orbit(d, depth, policy)
    reference, reference_orbit = reference_expand_orbit(d, depth, policy)
    assert expansion == reference
    assert orbit == reference_orbit
    return expansion


_HORIZONTALS_AND_PI8 = (Vec2(1, 0), Vec2(-1, 0), Vec2(QuadNum(1, 1), QuadNum(1)))


class TestOrbit:
    """The one Farey pass behind ``expand`` and ``run_expansion``.

    Parabolic runs are crossed in one step; every entry, tie flag and image
    must equal the step-by-step reference.
    """

    @settings(max_examples=60, deadline=None)
    @given(classify_directions(), st.integers(1, 30), st.sampled_from(list(TiePolicy)))
    def test_orbit_matches_expand(self, d, depth, policy):
        expansion, orbit = _expand_orbit(d, depth, policy)
        assert expansion == expand(d, depth, policy)
        _assert_orbit_is_the_reference(d, depth, policy)
        assert tuple(j for j, _, _ in orbit) == expansion.entries
        assert any(tie for _, tie, _ in orbit) == expansion.boundary_hit
        cur = d
        for j, tie, image in orbit:
            sectors = reference_classify(cur)
            assert j in sectors
            assert tie == (len(sectors) > 1)
            assert image == Direction(GAMMA_NU[j].apply(cur.vector))
            cur = image

    @settings(max_examples=60, deadline=None)
    @given(classify_directions(), st.sampled_from(list(TiePolicy)), st.integers(0, 5))
    def test_the_walk_to_the_fixed_ray_flattens_to_expand(self, d, policy, extra):
        # with no depth the walk ends on its first step on a fixed ray, whose
        # entry is the tail; expand past it repeats that entry
        den, tail, steps = farey._walk(d, None, policy)
        j, _, _, _, w, n = steps[-1]
        assert tail in (1, 7) and j == tail and n == 0 and not any(w)
        entries = [j for j, _, _, _, _, n in steps for _ in range(n + 1)]
        depth = len(entries) + extra
        want = expand(d, depth, policy)
        assert want.entries == (*entries, *[tail] * extra) and want.tail == tail
        assert want.boundary_hit == any(tie for _, tie, *_ in steps)
        assert farey._walk(d, depth, policy) == (den, tail, steps)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 500])
    @pytest.mark.parametrize("j", [1, 7])
    def test_long_parabolic_runs(self, j, n, policy):
        tall = height_direction(random.Random(1024), 1024).vector
        for v in (Vec2(-3, 1), Vec2(QuadNum(Fraction(-5, 7), 2), QuadNum(1, 1)), tall):
            e = _assert_orbit_is_the_reference(pulled_back(v, [(j, n)]), n + 12, policy)
            assert e.entries[:n] == (j,) * n

    @pytest.mark.parametrize("j", [1, 7])
    def test_a_run_is_crossed_without_classifying(self, j, monkeypatch):
        # only the step into the run and the step out of it choose a sector
        calls = []
        sectors = farey._sectors
        monkeypatch.setattr(farey, "_sectors", lambda *args: calls.append(args) or sectors(*args))
        d = pulled_back(Vec2(QuadNum(Fraction(1, 2)), QuadNum(1)), [(j, 500)])
        assert expand(d, 501).entries == (j,) * 500 + (2,)
        assert len(calls) == 2

    def test_expand_builds_no_object_per_step(self, monkeypatch):
        counts = Counter()
        init = Direction.__init__

        def counting_init(self, vector):
            counts["Direction"] += 1
            init(self, vector)

        monkeypatch.setattr(Direction, "__init__", counting_init)
        monkeypatch.setattr(numerics, "gcd", lambda *a: counts.update(["gcd"]) or math.gcd(*a))
        d = height_direction(random.Random(7), 256)
        built = []
        for depth in (10, 1000):
            counts.clear()
            assert len(expand(d, depth).entries) == depth
            built.append(dict(counts))
        assert built[0] == built[1]
        assert "Direction" not in built[1]

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            classify_directions(),
            st.builds(height_direction, st.randoms(use_true_random=False), st.integers(256, 1024)),
        ),
        st.one_of(
            st.sampled_from([QuadNum(0, 1), QuadNum(1, 1), QuadNum(0, 2), QuadNum(4)]),
            st.builds(
                lambda n, m: QuadNum(Fraction(n, m)), st.integers(1, 10**40), st.integers(1, 10**40)
            ),
            nonzero_quadnums().map(abs),
        ),
        st.integers(1, 60),
        st.sampled_from(list(TiePolicy)),
    )
    def test_scaling_the_vector_keeps_the_expansion(self, d, c, depth, policy):
        # a direction is a ray: c*v has the expansion of v, and, the branches being
        # linear, the images c times those of v; this checks the sqrt2 content stripping
        scaled = Direction(d.vector.scale(c))
        expansion, orbit = _expand_orbit(scaled, depth, policy)
        assert expand(scaled, depth, policy) == expansion == expand(d, depth, policy)
        for (j, tie, image), (j0, tie0, image0) in zip(orbit, _expand_orbit(d, depth, policy)[1]):
            assert (j, tie, image) == (j0, tie0, Direction(image0.vector.scale(c)))

    @settings(max_examples=40, deadline=None)
    @given(
        st.one_of(
            classify_directions(),
            st.builds(height_direction, st.randoms(use_true_random=False), st.integers(256, 1024)),
        ),
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 120)), max_size=4),
        st.integers(1, 20),
        st.sampled_from(list(TiePolicy)),
    )
    def test_run_length_words(self, base, runs, extra, policy):
        d = pulled_back(base.vector, runs)
        _assert_orbit_is_the_reference(d, sum(n for _, n in runs) + extra, policy)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("n", [1, 4, 60])
    @pytest.mark.parametrize("j", [1, 7])
    def test_runs_exiting_on_a_sector_boundary(self, j, n, policy):
        # each run of n entries j ends on the angle b*pi/8; there the policy decides
        for b in range(1, 8):
            d = pulled_back(_grid_direction(b).vector, [(j, n)])
            e = _assert_orbit_is_the_reference(d, n + 8, policy)
            assert e.boundary_hit

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("depth", [1, 2, 50])
    def test_horizontals_and_pi8_at_step_0(self, depth, policy):
        for v in _HORIZONTALS_AND_PI8:
            assert _assert_orbit_is_the_reference(Direction(v), depth, policy).terminating

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("seed", range(6))
    def test_terminating_far_past_the_lock(self, seed, policy):
        rng = random.Random(seed)
        prefix = [(rng.randint(1, 7), rng.choice((1, 1, 2, 40))) for _ in range(rng.randint(1, 8))]
        for ray in _HORIZONTALS_AND_PI8[1:]:
            d = pulled_back(ray, prefix)
            depth = sum(n for _, n in prefix) + 300
            e = _assert_orbit_is_the_reference(d, depth, policy)
            assert e.terminating and e.entries[-250:] == (e.tail,) * 250

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            # the criterion-4 directions: 50 steps with no sector bound and no tail
            st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**4))
            .map(lambda u: Direction(Vec2(QuadNum(u), QuadNum(1))))
            .filter(lambda d: not (e := expand(d, 51)).boundary_hit and not e.terminating),
            st.builds(
                lambda ray, first, runs: pulled_back(ray, [(first, 1), *runs]),
                st.sampled_from(_HORIZONTALS_AND_PI8[1:]),  # tails of 7 and of 1
                st.integers(0, 7),
                st.lists(st.tuples(st.integers(1, 7), st.integers(1, 3)), max_size=3),
            ),
            st.integers(0, 8).map(farey._boundary_direction),  # the rays j*pi/8
        ),
        st.integers(1, 60),
        st.sampled_from(list(TiePolicy)),
    )
    @example(pulled_back(_HORIZONTALS_AND_PI8[1], [(4, 1), (2, 2)]), 20, TiePolicy.HIGH)
    @example(pulled_back(_HORIZONTALS_AND_PI8[2], [(6, 1), (3, 1)]), 20, TiePolicy.LOW)
    def test_images_are_the_validated_directions(self, d, depth, policy):
        # the orbit builds its images with no zero or sign test; each must be the
        # Direction that the validating constructor makes of the same vector
        _, orbit = _expand_orbit(d, depth, policy)
        _, reference = reference_expand_orbit(d, depth, policy)
        for (j, tie, image), (j0, tie0, want) in zip(orbit, reference, strict=True):
            assert (j, tie) == (j0, tie0)
            assert type(image) is Direction and Direction(image.vector) == image
            assert image == want and hash(image) == hash(want)
            copy = pickle.loads(pickle.dumps(image))
            assert copy == want and hash(copy) == hash(want)


#: A direction on which a wrong b_0 = 1 + sqrt2 test in ``_sectors`` (its 2*yq
#: term written with a plus) made the walk run away: its first iterate went to
#: sector 0 instead of 1, the next to sector 1 instead of 0, with run length -7,
#: and the one after that, below the horizontal, into sector 7 with run length
#: -1, which steps back onto the same iterate for ever.
_RUNAWAY = Direction(Vec2(QuadNum.parse("62/3-40/3*sqrt2"), QuadNum.parse("-10+23/3*sqrt2")))

#: That last iterate, (-102 + 72*sqrt2, 483 - 342*sqrt2); only the trusted
#: constructor holds it, as Direction would negate it.
_STALLED = numerics._direction(Vec2(QuadNum(-102, 72), QuadNum(483, -342)))


def _wrong_b0(xp, xq, yp, yq, _sectors=farey._sectors):
    """``farey._sectors`` with the wrong b_0 test."""
    if numerics._sign(xp, xq, 2) > 0 and numerics._sign(xp - yp, xq - yq, 2) > 0:
        s = numerics._sign(xp - yp + 2 * yq, xq - yq - yp, 2)
        return (0,) if s > 0 else (1,) if s else (0, 1)
    return _sectors(xp, xq, yp, yq)


class TestWalkInvariant:
    """A wrong sector decision stops the walk with a named error at the first
    negative run length, where the walk would stall; each patched decision
    fails the test after 100 calls instead of hanging."""

    @pytest.fixture
    def decide(self, monkeypatch):
        def patch(sectors):
            calls = itertools.count(1)

            def capped(*v):
                assert next(calls) <= 100, "the walk makes no progress"
                return sectors(*v)

            monkeypatch.setattr(farey, "_sectors", capped)

        return patch

    @pytest.mark.parametrize("policy", list(TiePolicy))
    def test_a_wrong_b0_test_stops_the_walk(self, decide, policy):
        decide(_wrong_b0)
        with pytest.raises(WalkInvariantError) as raised:
            expand(_RUNAWAY, 27, policy)
        assert str(raised.value) == "negative parabolic run length -7 at entry 1, step 1"

    def test_stalled_iterate_sent_into_sector_7(self, decide):
        real = farey._sectors
        decide(lambda *v: (7,) if v == (-102, 72, 483, -342) else real(*v))
        with pytest.raises(WalkInvariantError) as raised:
            _expand_orbit(_STALLED, 27, TiePolicy.HIGH)
        assert str(raised.value) == "negative parabolic run length -1 at entry 7, step 0"

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("runs, step", [([(3, 1)], 1), ([(1, 5)], 5), ([(7, 2), (4, 1)], 3)])
    def test_a_later_entry_0_stops_the_walk(self, decide, runs, step, policy):
        # each run is one sector decision; the one after them says sector 0
        real, calls = farey._sectors, itertools.count()
        decide(lambda *v: real(*v) if next(calls) < len(runs) else (0,))
        with pytest.raises(WalkInvariantError) as raised:
            farey._walk(pulled_back(Vec2(QuadNum(Fraction(1, 2)), QuadNum(1)), runs), 40, policy)
        assert str(raised.value) == f"entry 0 at step {step}"

    def test_the_true_kernel_walks_on(self):
        assert expand(_RUNAWAY, 27, TiePolicy.HIGH).entries == (
            (1,) * 5 + (6, 1) + (7,) * 4 + (4, 6) + (7,) * 14
        )


class TestFoldAndStep:
    def test_identity_on_sector0(self):
        d = Direction(Vec2(3, 1))
        j, image = fold(d)
        assert j == 0 and image.ray_eq(d)

    def test_vertical_low_policy(self):
        j, image = fold(Direction(Vec2(0, 1)))
        assert j == 3
        assert image.vector == Vec2(1, 0)

    def test_three_quarters_low_policy(self):
        j, image = fold(Direction(Vec2(-1, 1)))
        assert j == 5
        assert image.is_theta_zero

    def test_pi_is_fixed(self):
        j, image = farey_step(Direction(Vec2(-1, 0)))
        assert j == 7 and image.is_theta_pi

    def test_zero_maps_to_pi(self):
        j, image = farey_step(Direction(Vec2(1, 0)))
        assert j == 0 and image.is_theta_pi

    def test_parabolic_fixed_point_of_first_branch(self):
        u = QuadNum(1, 1)
        assert moebius(GAMMA_NU[1], u) == u

    def test_continuity_at_interior_boundaries(self):
        for j in range(7):
            shared = SECTOR_BOUNDS[j]
            assert moebius(GAMMA_NU[j], shared) == moebius(GAMMA_NU[j + 1], shared)

    def test_branches_map_onto_expanding_union(self):
        # each sector's endpoints map onto {pi/8 boundary, pi} in some order
        targets = {"inf-pi", str(QuadNum(1, 1))}
        for j in range(8):
            images = {
                _canonical_u(Direction(GAMMA_NU[j].apply(_grid_direction(j).vector))),
                _canonical_u(Direction(GAMMA_NU[j].apply(_grid_direction(j + 1).vector))),
            }
            assert images == targets, j


class TestExpand:
    def test_pi_expansion(self):
        e = expand(Direction(Vec2(-1, 0)), 4)
        assert e.entries == (7, 7, 7, 7)
        assert e.terminating and e.tail == 7 and not e.boundary_hit

    def test_zero_expansion(self):
        e = expand(Direction(Vec2(1, 0)), 4)
        assert e.entries == (0, 7, 7, 7)
        assert e.terminating and e.tail == 7

    def test_boundary_fixed_ray_both_policies(self):
        d = Direction(Vec2(QuadNum(1, 1), QuadNum(1)))
        low = expand(d, 4)
        high = expand(d, 4, TiePolicy.HIGH)
        assert low.entries == (0, 1, 1, 1) and low.boundary_hit and low.tail == 1
        assert high.entries == (1, 1, 1, 1) and high.boundary_hit and high.tail == 1
        assert dual_expansion(low).entries == high.entries

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 8).map(farey._boundary_direction),  # the rays j*pi/8
        st.integers(0, 7),
        st.lists(st.integers(1, 7), max_size=29),
        st.integers(1, 30),
    )
    def test_the_high_tie_rule_gives_the_dual_expansion(self, ray, first, later, depth):
        # a direction whose orbit meets a sector bound within the depth has a
        # tail, and there the high tie rule takes the other expansion
        d = pulled_back(ray.vector, [(j, 1) for j in (first, *later)])
        low = expand(d, depth)
        want = low if low.tail is None else dual_expansion(low)
        assert expand(d, depth, TiePolicy.HIGH) == want

    @pytest.mark.parametrize("depth", [3.0, 2.5, None, True, False, "3"])
    def test_a_depth_that_is_not_an_int_is_refused(self, depth, monkeypatch):
        # None once walked to the tail before it failed on the arithmetic
        monkeypatch.setattr(farey, "_walk", None)  # refused before the walk
        message = f"^depth must be an int, got {type(depth).__name__}$"
        with pytest.raises(TypeError, match=message):
            expand(Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1))), depth)

    def test_first_entry_of_u2(self):
        e = expand(Direction(Vec2(2, 1)), 1)
        assert e.entries == (1,)

    @given(interior_directions(), st.integers(min_value=2, max_value=10))
    @settings(max_examples=60)
    def test_shift_property(self, d, depth):
        e = expand(d, depth)
        if e.boundary_hit:
            return
        _, image = farey_step(d)
        assert expand(image, depth - 1).entries == e.entries[1:]

    @given(interior_directions())
    @settings(max_examples=60)
    def test_vector_and_moebius_actions_commute(self, d):
        j, image = farey_step(d)
        assert moebius(GAMMA_NU[j], inverse_slope(d)) == inverse_slope(image)

    def test_only_first_entry_may_be_zero(self):
        with pytest.raises(InadmissiblePrefixError):
            FareyExpansion((1, 0, 2))

    def test_terminating_is_having_a_tail(self):
        e = FareyExpansion((2, 1, 1), tail=1)
        assert e.terminating and not FareyExpansion((2, 1, 1)).terminating
        assert e.to_json() == {
            "entries": [2, 1, 1], "boundary_hit": False, "terminating": True, "tail": 1
        }
        assert str(e) == "[2;1,1,1,1,...]"
        assert repr(e) == "FareyExpansion(entries=(2, 1, 1), boundary_hit=False, tail=1)"
        with pytest.raises(TypeError):
            FareyExpansion((2, 1, 1), terminating=True)

    @pytest.mark.parametrize(
        "e, text",
        [
            (FareyExpansion((2, 1, 1), tail=1), "[2;1,1,1,1,...]"),
            (FareyExpansion((0,), False, 1), "[0;1,1,...]"),
            (expand(Direction(Vec2(-1, 0)), 1), "[7;7,7,...]"),
            (expand(Direction(Vec2(1, 0)), 2), "[0;7,7,7,...]"),
            (FareyExpansion((2,)), "[2;]"),
            (FareyExpansion((2, 3, 4)), "[2;3,4]"),
        ],
    )
    def test_text(self, e, text):
        assert str(e) == text

    @pytest.mark.parametrize("tail", [5, 0, 2, 8, True, 1.0, "7"])
    def test_tail_is_the_int_1_or_7(self, tail):
        # True == 1 and 1.0 == 1, so only the type refuses them
        for build in (
            lambda: FareyExpansion((1, 2), tail=tail),
            lambda: replace(FareyExpansion((1, 1), tail=1), tail=tail),
        ):
            with pytest.raises(ValueError) as raised:
                build()
            assert (type(raised.value), str(raised.value)) == (
                ValueError, f"a tail must be the int 1 or 7, got {tail!r}"
            )

    def test_replace_keeps_the_entry_checks(self):
        e = expand(Direction(Vec2(QuadNum.parse("19/7"), QuadNum(1))), 40)
        for entries in [(1.0,) + e.entries[1:], e.entries[:1] + (True,), (2, 0)]:
            with pytest.raises(InadmissiblePrefixError):
                replace(e, entries=entries)


    def test_checked_builds_refuse_true_floats_and_a_later_0(self):
        # on the caller's input and on expansions that expand and dual_expansion built
        walked = expand(Direction(Vec2(QuadNum.parse("19/7"), QuadNum(1))), 40)
        dual = dual_expansion(expand(pulled_back(Vec2(-1, 0), [(3, 1), (5, 2)]), 30))
        assert dual.terminating
        for entries in [(True,), (1.0,), (8,), (2, True), (2, 1.0), (2, 8), (True, 1), (2, 0), (3, 1, 2, 0)]:
            with pytest.raises(InadmissiblePrefixError):
                FareyExpansion(entries)
            for e in (walked, dual):
                with pytest.raises(InadmissiblePrefixError):
                    replace(e, entries=entries)


class TestReconstruct:
    def test_depth_one_is_the_sector(self):
        interval = reconstruct([7])
        assert interval.lo.ray_eq(_grid_direction(7))
        assert interval.hi.is_theta_pi

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 7),
        st.lists(
            st.one_of(
                st.tuples(st.integers(1, 7), st.integers(1, 3)),
                st.tuples(st.sampled_from([1, 7]), st.integers(1, 40)),
            ),
            max_size=10,
        ),
    )
    @example(2, [])
    @example(0, [(3, 1)])
    @example(3, [(5, 1)])
    @example(4, [(4, 3), (7, 5)])
    def test_end_order_is_the_parity_of_even_entries(self, first, runs):
        # lo is the pull-back of the sector's lower end exactly when the earlier
        # entries hold an even number of even entries
        entries = (first,) + tuple(j for j, n in runs for _ in range(n))
        body = entries[:-1]
        lower = pulled_back(_grid_direction(entries[-1]).vector, [(j, 1) for j in body])
        even = sum(j % 2 == 0 for j in body) % 2 == 0
        interval = reconstruct(entries)
        assert (interval.lo == lower) == even
        assert (interval.hi == lower) != even

    @given(interior_directions(), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40)
    def test_membership_and_nesting(self, d, depth):
        e = expand(d, depth)
        previous = None
        for k in range(1, depth + 1):
            interval = reconstruct(e.entries[:k])
            assert interval.contains(d)
            if previous is not None:
                assert previous.contains(interval.lo) and previous.contains(interval.hi)
            previous = interval

    def test_nesting_is_strict(self):
        e = expand(Direction(Vec2(QuadNum(Fraction(7, 3)), QuadNum(1))), 6)
        intervals = [reconstruct(e.entries[:k]) for k in range(1, 7)]
        for outer, inner in zip(intervals, intervals[1:]):
            assert outer.contains(inner.lo) and outer.contains(inner.hi)
            assert theta_cmp(outer.lo, inner.lo) < 0 or theta_cmp(inner.hi, outer.hi) < 0

    @pytest.mark.parametrize(
        "entries",
        [
            (1,) * 300 + (3, 2),
            (7,) * 250 + (4,),
            (2,) + (7,) * 250 + (5, 6),
            (5, 6, 2) + (1,) * 200,
            (3,) + (1,) * 120 + (7,) * 130 + (1,) * 2 + (7,),
            (0,) + (7,) * 100 + (1,) * 100,
            (0,) + (1,) * 150,
            (0, 7),
            (0,),
            (4, 4, 4, 1, 1, 6, 6, 7, 7, 7),
            # the shape of a criterion-3 pair: a prefix, a junction, a 200-entry tail
            (3, 7, 1, 1, 5, 2, 6, 4, 7, 3, 3, 2, 1, 6, 5, 7, 2, 4, 1, 3, 6) + (2,) + (1,) * 200,
            (5, 2, 7, 7, 1, 4, 3, 6, 2, 5, 1, 1, 1, 4, 7, 6, 3, 2, 5, 4, 6) + (3,) + (1,) * 200,
            (0, 4, 6, 2, 7, 1, 3, 5, 5, 2, 4, 7, 6, 1, 3, 2, 7, 4, 4, 6, 1, 5, 3, 2, 6, 7, 2)
            + (3, 1, 4, 6, 5, 2, 7, 1, 3)
            + (1,)
            + (7,) * 200,
            (6, 1, 2, 3, 4, 5, 6, 7, 7, 1, 2, 4, 3, 5, 6, 2, 2, 7, 1, 6, 4, 3, 5, 1, 7, 2, 6, 3)
            + (2,)
            + (7,) * 200,
        ],
    )
    def test_runs_match_the_step_by_step_reference(self, entries):
        assert reconstruct(entries) == reference_reconstruct(entries)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([0, 1, 2, 3, 4, 5, 6, 7]),
        st.lists(
            st.one_of(
                st.tuples(st.integers(1, 7), st.integers(1, 150)),
                st.tuples(st.sampled_from([1, 7]), st.integers(1, 500)),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_run_length_prefixes_match_the_reference(self, first, runs):
        entries = (first,) + tuple(j for j, n in runs for _ in range(n))
        assert reconstruct(entries) == reference_reconstruct(entries)

    @pytest.mark.parametrize(
        "entries, zero_end, pi_end",
        [
            ((0,), True, False),
            ((7,), False, True),
            ((7,) * 60, False, True),
            ((0, 7), True, False),
            ((0,) + (7,) * 60, True, False),
            ((3,) + (7,) * 60, False, False),
            ((5, 1) + (7,) * 9, False, False),
            ((2,) + (7,) * 3 + (1,) * 5 + (7,), False, False),
        ],
    )
    def test_endpoints_on_and_through_the_horizontals(self, entries, zero_end, pi_end):
        # the ray pi is fixed by the 7s and goes to theta = 0 through entry 0 or to an
        # interior ray through the others; theta = 0 and pi share the slope u = inf
        interval = reconstruct(entries)
        assert interval == reference_reconstruct(entries)
        assert (interval.lo.is_theta_zero, interval.hi.is_theta_pi) == (zero_end, pi_end)

    @pytest.mark.parametrize(
        "entries",
        [
            (3, 5, 2, 6),  # pairs only
            (3, 5, 2, 6, 4),  # a single left at the end
            (0, 2, 4, 6, 5, 3, 1),
            (4, 4, 4, 4, 6),  # a run of a plain entry: pairs of equal entries
            (4, 4, 4, 6),
            (2, 1, 1, 3),  # a single waiting before a parabolic run
            (2, 6, 1, 1, 3),  # pairs, then a run
            (5, 7, 7, 7, 2),  # a single before the run, none after
            (5, 7, 7, 7, 2, 4, 6),  # a single before the run and after it
            (1, 7, 1, 7, 1, 7),  # single parabolic entries pair up
            (7, 7, 1, 1, 7, 7, 3),  # runs next to runs
            (0, 1, 2, 2, 2, 7, 7, 3, 3, 1),
        ],
    )
    def test_pairs_and_singles_around_runs_match_the_reference(self, entries):
        for k in range(1, len(entries) + 1):
            assert reconstruct(entries[:k]) == reference_reconstruct(entries[:k])

    def test_every_prefix_up_to_three_entries_matches_the_reference(self):
        prefixes = [(a,) for a in range(8)]
        prefixes += [(a, b) for a in range(8) for b in range(1, 8)]
        prefixes += [(a, b, c) for a in range(8) for b in range(1, 8) for c in range(1, 8)]
        for entries in prefixes:
            assert reconstruct(entries) == reference_reconstruct(entries), entries

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 7),
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 4)), max_size=12),
    )
    def test_short_runs_match_the_reference(self, first, runs):
        # runs of one to four equal entries, odd and even lengths of each
        entries = (first,) + tuple(j for j, n in runs for _ in range(n))
        assert reconstruct(entries) == reference_reconstruct(entries)

    @pytest.mark.parametrize("j", [1, 7])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("length", range(8))
    def test_plain_stretches_between_runs_match_the_reference(self, length, n, j):
        # stretches of every length mod 3 between runs of both parabolic entries;
        # the prefixes end inside and right after each run as well
        rng = random.Random(100 * length + 10 * n + j)
        plain = tuple(rng.randint(2, 6) for _ in range(length))
        entries = (4,) + (j,) * n + plain + (8 - j,) * n + plain + (j,) * (n + 1) + (3,)
        for k in range(1, len(entries) + 1):
            assert reconstruct(entries[:k]) == reference_reconstruct(entries[:k]), entries[:k]

    @pytest.mark.parametrize("j", [1, 7])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 40])
    def test_runs_at_the_start_and_at_the_end_match_the_reference(self, j, n):
        plain = (2, 5, 3, 6, 4)
        for entries in [
            (j,) * n + plain,  # the first entry opens a run
            (j,) * n + (3,),
            (j,) * n + plain + (8 - j,) * n,
            (j,) * (n + 1),  # one run, the last entry included
            plain + (j,) * n,  # the earlier entries end on a run of n - 1
            plain + (j,) * (n + 1),
            plain + (j,) * n + (2,),
            (6,) + (j,) * n,
        ]:
            assert reconstruct(entries) == reference_reconstruct(entries), entries

    @pytest.mark.parametrize(
        "entries",
        [
            (2, 1, 7, 7, 7, 3),
            (2, 7, 7, 7, 1, 3),
            (1, 7, 7, 4),
            (5, 7, 7, 1, 7, 7, 1, 6),
            (3, 7, 1, 7, 7, 7, 1, 7),
            (4, 1, 1, 7, 1, 1, 7, 7, 2),
            (6, 7, 1, 1, 1, 7, 5),
        ],
    )
    def test_a_lone_parabolic_entry_next_to_a_run_of_the_other(self, entries):
        for k in range(1, len(entries) + 1):
            assert reconstruct(entries[:k]) == reference_reconstruct(entries[:k])

    @pytest.mark.parametrize(
        "rest",
        [(), (1,), (1, 1), (1, 1, 1, 4), (7, 7, 2), (2,), (2, 3), (2, 3, 4), (2, 3, 4, 5),
         (4, 1, 1, 1, 5, 6, 7, 7), (3, 6, 2, 7, 7, 7, 7)],
    )
    def test_entry_0_first_matches_the_reference(self, rest):
        # 0 opens the first plain stretch and enters the tables as their first index
        entries = (0,) + rest
        assert reconstruct(entries) == reference_reconstruct(entries)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_3000_entry_prefixes_match_the_reference(self, seed):
        rng = random.Random(seed)
        entries = [rng.randint(0, 7)]
        while len(entries) < 3000:
            entries += [rng.randint(1, 7)] * rng.choice((1, 1, 1, 2, 3, rng.randint(2, 40)))
        entries = tuple(entries[:3000])
        assert reconstruct(entries) == reference_reconstruct(entries)

    def test_inadmissible_prefix(self):
        with pytest.raises(InadmissiblePrefixError):
            reconstruct([2, 0, 1])

    @pytest.mark.parametrize("entries", [[1.5], ["1"], [2, 1.5], [2, "1"], [8], [3, -1]])
    def test_non_sector_entries_are_inadmissible(self, entries):
        with pytest.raises(InadmissiblePrefixError):
            reconstruct(entries)
        with pytest.raises(InadmissiblePrefixError):
            FareyExpansion(tuple(entries))

    @pytest.mark.parametrize(
        "entries", [[1.0], [True], [2.0], [2, 1.0], [2, True], [True, 1], [3, 1, 2.0, 1]]
    )
    def test_entries_must_be_ints(self, entries):
        # each entry equals a sector index, so only the type refuses it
        with pytest.raises(InadmissiblePrefixError, match="inadmissible prefix"):
            reconstruct(entries)
        with pytest.raises(InadmissiblePrefixError, match="inadmissible entries"):
            FareyExpansion(tuple(entries))

    def test_even_dual_tails_squeeze_to_common_point(self):
        # the two representations across an even entry shrink onto one direction
        widths = []
        for depth in (6, 12, 25, 50):
            a = reconstruct([2] + [1] * (depth - 1))
            b = reconstruct([3] + [1] * (depth - 1))
            assert a.contains(b.lo) or b.contains(a.lo)  # they intersect
            lo = a.lo if theta_cmp(a.lo, b.lo) <= 0 else b.lo
            hi = a.hi if theta_cmp(a.hi, b.hi) >= 0 else b.hi
            widths.append(RP1Interval(lo, hi).theta_width())  # the width of their hull
        assert all(w2 < w1 for w1, w2 in zip(widths, widths[1:]))


class _Entry(enum.IntEnum):
    ONE = 1


class _Index:
    """Not an int, though bytes() and range checks take it as 1."""

    def __index__(self):
        return 1

    def __repr__(self):
        return "_Index()"


#: Refused entries: past a byte, an int subclass or an __index__ object, a bool
#: or a float equal to a sector, a later 0; each first and later.
_REFUSED = [
    pytest.param(entries, id=name)
    for name, entries in [
        ("256", (256,)), ("later-256", (2, 256)), ("2**70", (2**70,)), ("later-2**70", (3, 2**70)),
        ("8", (8,)), ("later-8", (2, 8)), ("-1", (-1,)), ("later--1", (3, -1)),
        ("intenum", (_Entry.ONE,)), ("later-intenum", (2, _Entry.ONE)),
        ("index", (_Index(),)), ("later-index", (2, _Index())),
        ("True", (True,)), ("later-True", (2, True)), ("1.0", (1.0,)), ("later-1.0", (2, 1.0)),
        ("later-0", (2, 0)), ("0-0", (0, 0)), ("later-0-late", (3, 1, 2, 0)),
    ]
]


class TestAdmissibility:
    """What ``reconstruct`` and ``FareyExpansion`` refuse, with each exception's
    type and message, and what ``reconstruct`` takes alike."""

    @pytest.mark.parametrize("entries", _REFUSED)
    def test_reconstruct_refuses(self, entries):
        for prefix in (entries, list(entries)):
            with pytest.raises(InadmissiblePrefixError) as raised:
                reconstruct(prefix)
            assert type(raised.value) is InadmissiblePrefixError
            assert str(raised.value) == f"inadmissible prefix {entries}"

    @pytest.mark.parametrize("entries", _REFUSED)
    def test_expansion_refuses(self, entries):
        for given in (entries, list(entries)):
            with pytest.raises(InadmissiblePrefixError) as raised:
                FareyExpansion(given)
            assert type(raised.value) is InadmissiblePrefixError
            assert str(raised.value) == f"inadmissible entries {given}"

    @pytest.mark.parametrize("entries", [(0,), (1, 2), (5, 1, 1, 7), (2,) + (1,) * 40])
    def test_expansion_keeps_a_tuple(self, entries):
        for given in (entries, list(entries), bytes(entries), array.array("b", entries)):
            e = FareyExpansion(given, tail=1 if entries[-1] == 1 else None)
            assert type(e.entries) is tuple and e.entries == entries
            assert e == FareyExpansion(entries, tail=e.tail)
            assert hash(e) == hash(FareyExpansion(entries, tail=e.tail))
        assert replace(FareyExpansion(entries), entries=list(entries)).entries == entries

    @pytest.mark.parametrize(
        "entries, name",
        [({1, 3}, "set"), (frozenset({2}), "frozenset"), (iter((1, 2)), "tuple_iterator")],
    )
    def test_expansion_entries_must_be_a_sequence(self, entries, name):
        with pytest.raises(TypeError) as raised:
            FareyExpansion(entries)
        assert str(raised.value) == f"'{name}' object is not subscriptable"

    def test_empty_entries(self):
        with pytest.raises(InadmissiblePrefixError) as raised:
            reconstruct([])
        assert (type(raised.value), str(raised.value)) == (InadmissiblePrefixError, "empty prefix")
        with pytest.raises(ValueError) as raised:
            FareyExpansion(())
        assert (type(raised.value), str(raised.value)) == (
            ValueError, "an expansion needs at least one entry"
        )

    @pytest.mark.parametrize(
        "entries", [(0,), (7,), (0, 1, 7), (5, 1, 1, 1, 2, 7, 7, 3), (2,) + (1,) * 40 + (6,)]
    )
    def test_every_container_reconstructs_alike(self, entries):
        want = reconstruct(entries)
        for prefix in (list(entries), bytes(entries), FareyExpansion(entries)):
            assert reconstruct(prefix) == want


class TestValueTypes:
    def test_directions_are_frozen_values(self):
        values = [
            Direction(Vec2(1, 2)),
            Direction(Vec2(-1, -2)),
            Direction(Vec2(2, 4)),
            Direction(Vec2(-1, QuadNum(Fraction(-1, 2), 1))),
            Direction(Vec2(1, 0)),
            Direction(vector=Vec2(-1, 0)),
        ]
        check_value_type(values, ("vector",))
        assert values[1] == values[0] and values[1].vector == Vec2(1, 2)  # y < 0 is negated
        assert values[2] != values[0]  # the same ray, another vector
        assert repr(values[3]) == (
            "Direction(vector=Vec2(x=QuadNum(Fraction(-1, 1), Fraction(0, 1)), "
            "y=QuadNum(Fraction(-1, 2), Fraction(1, 1))))"
        )
        with pytest.raises(ValueError, match="zero vector"):
            Direction(Vec2(0, 0))

    def test_direction_and_angle_order_are_those_of_numerics(self):
        assert farey.Direction is numerics.Direction
        assert farey.theta_cmp is numerics.theta_cmp
        d = Direction(Vec2(QuadNum(1, 1), 1))
        data = pickle.dumps(d, protocol=2)  # names the class as module and name text
        assert pickle.loads(data) == d and b"coctocf.numerics\nDirection\n" in data
        # farey re-exports the class, so a pickle that names it there still loads
        legacy = data.replace(b"coctocf.numerics\nDirection\n", b"coctocf.farey\nDirection\n")
        assert legacy != data and pickle.loads(legacy) == d

    def test_intervals_are_frozen_values(self):
        lo, hi = Direction(Vec2(1, 1)), Direction(Vec2(-1, 1))
        values = [
            reconstruct([2, 1]),
            reconstruct([2, 1, 3]),
            RP1Interval(lo, hi),
            RP1Interval(lo=lo, hi=lo),
            RP1Interval(Direction(Vec2(2, 2)), hi),
        ]
        check_value_type(values, ("lo", "hi"))
        assert values[0] == reconstruct((2, 1))
        assert repr(values[0]) == (
            "RP1Interval(lo=Direction(vector=Vec2(x=QuadNum(Fraction(2, 1), Fraction(0, 1)), "
            "y=QuadNum(Fraction(2, 1), Fraction(1, 1)))), "
            "hi=Direction(vector=Vec2(x=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
            "y=QuadNum(Fraction(1, 1), Fraction(1, 1)))))"
        )

    def test_reversed_endpoints_are_refused(self):
        lo, hi = Direction(Vec2(1, 1)), Direction(Vec2(-1, 1))
        with pytest.raises(ValueError, match="out of order"):
            RP1Interval(hi, lo)
        with pytest.raises(ValueError, match="out of order"):
            RP1Interval(Direction(Vec2(-1, 0)), Direction(Vec2(1, 0)))


class TestDualExpansion:
    def test_even_rule(self):
        e = FareyExpansion((2, 1, 1, 1), tail=1)
        assert dual_expansion(e).entries == (3, 1, 1, 1)

    def test_odd_rule(self):
        e = FareyExpansion((1, 7, 7), tail=7)
        assert dual_expansion(e).entries == (2, 7, 7)

    def test_zero_ray_is_self_dual(self):
        e = FareyExpansion((0, 7, 7), tail=7)
        assert dual_expansion(e).entries == (0, 7, 7)

    def test_pi_ray_is_self_dual(self):
        e = FareyExpansion((7, 7), tail=7)
        assert dual_expansion(e).entries == (7, 7)

    def test_requires_terminating(self):
        with pytest.raises(ValueError):
            dual_expansion(FareyExpansion((1, 2, 3)))

    def test_involution(self):
        for entries, tail in [((2, 1, 1), 1), ((5, 4, 7, 7), 7), ((1, 3, 1, 1), 1)]:
            e = FareyExpansion(entries, tail=tail)
            assert dual_expansion(dual_expansion(e)).entries == e.entries

    def test_dual_pair_reconstructs_to_touching_intervals(self):
        e = FareyExpansion((4, 2, 1, 1, 1, 1), tail=1)
        d = dual_expansion(e)
        a, b = reconstruct(e.entries), reconstruct(d.entries)
        assert a.contains(b.lo) or b.contains(a.lo)  # they intersect
        assert theta_cmp(a.hi, b.lo) == 0 or theta_cmp(b.hi, a.lo) == 0


    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    def test_all_tail_windows(self, n):
        # tail 1 gives [0;1,1,...]; the ray pi, all 7s, is self-dual
        ones, sevens = FareyExpansion((1,) * n, tail=1), FareyExpansion((7,) * n, True, 7)
        want = FareyExpansion((0,) + (1,) * (n - 1), tail=1)
        assert dual_expansion(ones) == reference_dual_expansion(ones) == want
        assert dual_expansion(sevens) == reference_dual_expansion(sevens) == sevens

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_the_theta_0_ray_is_self_dual(self, n, policy):
        e = expand(Direction(Vec2(1, 0)), n, policy)
        assert e == FareyExpansion((0,) + (7,) * (n - 1), tail=7)
        assert dual_expansion(e) == reference_dual_expansion(e) == e

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 7),
        st.lists(st.integers(1, 7), max_size=40),
        st.sampled_from([1, 7]),
        st.integers(0, 200),
        st.booleans(),
    )
    def test_terminating_windows_match_the_reference(self, first, later, tail, n, hit):
        e = FareyExpansion((first, *later) + (tail,) * n, hit, tail)
        assert dual_expansion(e) == reference_dual_expansion(e)


def _assert_as_checked(e: FareyExpansion) -> None:
    """``e`` is the expansion that the checked constructor builds of its fields."""
    rebuilt = FareyExpansion(e.entries, e.boundary_hit, e.tail)
    assert e == rebuilt and hash(e) == hash(rebuilt) and repr(e) == repr(rebuilt)
    assert str(e) == str(rebuilt)
    assert type(e.entries) is tuple and {type(s) for s in e.entries} == {int}


def _assert_builds_are_checked(d: Direction, depth: int, policy: TiePolicy) -> FareyExpansion:
    """What ``expand``, ``_expand_orbit`` and ``dual_expansion`` build, unchecked, for
    ``d`` equals its checked construction; returns the expansion."""
    walked = expand(d, depth, policy)
    results = [walked, _expand_orbit(d, depth, policy)[0]]
    if walked.terminating:
        results.append(dual_expansion(walked))
        assert results[-1] == reference_dual_expansion(walked)
    for e in results:
        _assert_as_checked(e)
    assert results[1] == walked
    return walked


def _run_pulled_back(v: Vec2, j: int, n: int) -> Vec2:
    """``v`` pulled back through n entries j = 1 or 7 at once: the inverse
    branch M is unipotent, so M^n = I + n(M - I)."""
    return v + (GAMMA_NU_INV[j].apply(v) - v).scale(n)


#: Directions whose coordinates have a common denominator other than 1.
_FRACTIONAL_DIRECTIONS = st.builds(
    lambda a, b, c, den: Direction(Vec2(QuadNum(Fraction(a, den), b), QuadNum(Fraction(c, den), 1))),
    st.integers(-(10**6), 10**6),
    st.integers(-50, 50),
    st.integers(-(10**6), 10**6),
    st.integers(2, 10**4),
).filter(lambda d: farey._ints(d.vector)[1] != 1)


class TestUncheckedBuilds:
    """The walk and the dual rule build their expansions through the unchecked
    ``farey._expansion``; each must equal what the checked constructor builds."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            classify_directions(),
            _FRACTIONAL_DIRECTIONS,
            st.builds(
                pulled_back,
                st.sampled_from(_HORIZONTALS_AND_PI8),
                st.lists(st.tuples(st.integers(1, 7), st.integers(1, 5)), max_size=8),
            ),
        ),
        st.integers(1, 60),
        st.sampled_from(list(TiePolicy)),
    )
    def test_walk_and_dual_results_equal_their_checked_rebuild(self, d, depth, policy):
        _assert_builds_are_checked(d, depth, policy)

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("j", range(9))
    def test_ties_on_the_rays_j_pi_over_8(self, j, policy):
        d = farey._boundary_direction(j)
        for depth in (1, 2, 30):
            want = reference_expand_orbit(d, depth, policy)[0]
            assert _assert_builds_are_checked(d, depth, policy) == want and want.terminating

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("ray, tail", [(_HORIZONTALS_AND_PI8[2], 1), (Vec2(-1, 0), 7)])
    def test_pull_backs_with_a_tail(self, ray, tail, policy):
        rng = random.Random(tail)
        for _ in range(10):
            runs = [(rng.randint(1, 7), rng.choice((1, 2, 5))) for _ in range(rng.randint(1, 6))]
            e = _assert_builds_are_checked(pulled_back(ray, runs), 60, policy)
            assert e.tail == tail

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("j", [1, 7])
    def test_runs_of_10_to_the_5_entries(self, j, policy):
        n = 10**5
        for ray, tail in ((_HORIZONTALS_AND_PI8[2], 1), (Vec2(-1, 0), 7)):
            # the fixed ray pulled back through 3 j^n has two expansions
            d = Direction(GAMMA_NU_INV[3].apply(_run_pulled_back(ray, j, n)))
            e = _assert_builds_are_checked(d, n + 12, policy)
            assert e.tail == tail and e.entries.count(j) >= n - 1
            assert (3, j) in (e.entries[:2], dual_expansion(e).entries[:2])
        d = Direction(_run_pulled_back(Vec2(QuadNum(Fraction(1, 2)), QuadNum(1)), j, n))
        e = _assert_builds_are_checked(d, n + 2, policy)
        assert e.entries == (j,) * n + (2, 1) and e.tail is None

    @pytest.mark.parametrize("policy", list(TiePolicy))
    @pytest.mark.parametrize("n", [1, 2, 3, 200, 10**5])
    def test_windows_of_the_tail_alone(self, n, policy):
        assert _assert_builds_are_checked(Direction(Vec2(-1, 0)), n, policy).entries == (7,) * n
        pi8 = _assert_builds_are_checked(Direction(_HORIZONTALS_AND_PI8[2]), n, policy)
        assert pi8.entries == ((1,) if policy is TiePolicy.HIGH else (0,)) + (1,) * (n - 1)
        for e in (FareyExpansion((1,) * n, tail=1), FareyExpansion((7,) * n, True, 7)):
            _assert_as_checked(dual_expansion(e))


class TestIntervalOrdering:
    def test_theta_cmp_endpoints(self):
        zero = Direction(Vec2(1, 0))
        pi = Direction(Vec2(-1, 0))
        mid = Direction(Vec2(0, 1))
        assert theta_cmp(zero, mid) < 0 < theta_cmp(pi, mid)
        assert theta_cmp(zero, pi) < 0
        assert theta_cmp(mid, mid) == 0

    def test_theta_cmp_horizontals_and_antisymmetry(self):
        zero, pi = Direction(Vec2(1, 0)), Direction(Vec2(-1, 0))
        assert theta_cmp(pi, zero) > 0
        assert theta_cmp(Direction(Vec2(QuadNum(3, 1), 0)), zero) == 0
        assert theta_cmp(pi, Direction(Vec2(Fraction(-1, 7), 0))) == 0
        rays = [zero, pi, Direction(Vec2(0, 1)), Direction(Vec2(QuadNum(1, 1), 1))]
        rays += [Direction(Vec2(-2, 3)), Direction(Vec2(-4, 6)), Direction(Vec2(5, -1))]
        for a in rays:
            for b in rays:
                assert theta_cmp(a, b) == -theta_cmp(b, a)
        assert theta_cmp(rays[4], rays[5]) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.builds(Vec2, nonzero_quadnums(), nonzero_quadnums() | st.just(QuadNum(0))),
        st.builds(Vec2, nonzero_quadnums() | st.just(QuadNum(0)), nonzero_quadnums()),
        st.integers(-3, 3),
    )
    def test_sign_kernel_is_the_sign_of_the_cross_product(self, v, w, c):
        # unequal and equal denominators, parallel vectors included
        assert numerics._cross_sign(v, w) == v.cross(w).sign()
        assert numerics._cross_sign(w, v) == w.cross(v).sign()
        assert numerics._cross_sign(v, v.scale(c)) == 0
        assert numerics._cross_sign(v, v.scale(Fraction(c, 7))) == 0

    @settings(max_examples=200, deadline=None)
    @given(classify_directions(), classify_directions())
    def test_theta_cmp_and_ray_eq_match_the_reference(self, a, b):
        zero, pi = Direction(Vec2(1, 0)), Direction(Vec2(-1, 0))
        for d1 in (a, b, zero, pi):
            for d2 in (a, b, zero, pi):
                assert theta_cmp(d1, d2) == reference_theta_cmp(d1, d2)
                assert d1.ray_eq(d2) == (reference_theta_cmp(d1, d2) == 0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            RP1Interval(Direction(Vec2(0, 1)), Direction(Vec2(1, 0)))
