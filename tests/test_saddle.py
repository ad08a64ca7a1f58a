"""The exact saddle-connection test ``octocf.saddle.is_saddle_connection``.

It decides a vector through the Farey walk of its direction.  The ray tracer
of ``saddle_oracle``, which knows only the glued octagon, checks it on the
short vectors; pull-backs of the fixed rays' connections check it on long
ones, where the tracer runs out of crossings.
"""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import saddle_oracle
from helpers import height_direction, pulled_back
from octocf import saddle
from octocf.farey import (
    GAMMA_NU,
    GAMMA_NU_INV,
    Direction,
    TiePolicy,
    _boundary_direction,
    expand,
)
from octocf.numerics import Mat2, QuadNum, Vec2, quad_floor
from octocf.octagon import QPRIME_VECTORS, run_expansion
from octocf.saddle import is_saddle_connection


def test_agrees_with_the_ray_tracer_on_the_candidate_ball():
    ball = saddle_oracle.candidate_vectors(QuadNum(40))
    traced = {w for w in ball if saddle_oracle.is_saddle_connection(w)}
    assert (len(ball), len(traced)) == (752, 128)
    assert {w for w in ball if is_saddle_connection(w)} == traced


def _pulled_back_side(entries, side: Vec2) -> Vec2:
    """M^-1 * side for the frame M of ``entries``; it keeps y >= 0, so the
    Direction's vector is the pulled-back vector itself."""
    return pulled_back(side, [(j, 1) for j in entries]).vector


def _assert_accepted_but_not_rescaled(w: Vec2):
    assert is_saddle_connection(w) and is_saddle_connection(-w), str(w)
    assert not is_saddle_connection(w.scale(2)), str(w)
    assert not is_saddle_connection(w.scale(QuadNum(1) / 2)), str(w)


#: An admissible entry sequence of 2 to 401 entries, drawn entry by entry from
#: a seeded generator, so that long sequences are as likely as short ones.
_ENTRIES = st.tuples(st.integers(0, 7), st.integers(1, 400), st.randoms()).map(
    lambda t: (t[0], *(t[2].randint(1, 7) for _ in range(t[1])))
)


@settings(max_examples=40, deadline=None)
@given(entries=_ENTRIES, side=st.sampled_from(QPRIME_VECTORS))
@example(entries=(5, *[2, 3, 4, 5, 6] * 80), side=QPRIME_VECTORS[5])
@example(entries=(0, *[7] * 399, 3), side=QPRIME_VECTORS[0])
@example(entries=(3, *[1] * 200, *[6] * 200), side=QPRIME_VECTORS[1])
def test_pulled_back_sides_are_connections(entries, side):
    # M carries connections onto connections, so M^-1 * b is one for each
    # connection b on a fixed ray, at any height; 2w and w/2 never are
    _assert_accepted_but_not_rescaled(_pulled_back_side(entries, side))


@pytest.mark.parametrize("side", sorted(set(QPRIME_VECTORS), key=str))
def test_pulled_back_sides_past_1000_bits(side):
    rng = random.Random(600)
    entries = (rng.randint(0, 7), *(rng.randint(1, 7) for _ in range(599)))
    w = _pulled_back_side(entries, side)
    assert max(abs(i).bit_length() for c in (w.x, w.y) for i in c.ints) > 1000
    _assert_accepted_but_not_rescaled(w)


@pytest.mark.parametrize("side", [QPRIME_VECTORS[0], QPRIME_VECTORS[1]])
@pytest.mark.parametrize("length", [64, 128])
def test_the_walk_meets_its_ray_on_the_last_entry_of_a_depth(length, side):
    # expand reads the tail from the last iterate: at the depth whose last
    # step reaches the fixed ray it is set, though no step along the ray is
    # taken; the saddle test walks on to that step, with no depth
    entries = (3, *([2, 5, 4, 6] * 32)[: length - 2], 5)
    w = _pulled_back_side(entries, side)
    d = Direction(w)
    assert expand(d, length - 1).tail is None and expand(d, length).tail is not None
    _assert_accepted_but_not_rescaled(w)


def _power(m: Mat2, n: int, v: Vec2) -> Vec2:
    """m^n * v for a unipotent m, as v + n*(m - I)v, with no loop over n."""
    return v + (m.apply(v) - v).scale(n)


#: Each side of Q' pulled back through a run of 10^30 entries 1 or 7 whose
#: fixed ray it is not on; a long run is crossed in one step of the walk.
_LONG_RUNS = [
    (j, side)
    for side in sorted(set(QPRIME_VECTORS), key=str)
    for j in (1, 7)
    if side.y.is_zero() == (j == 1)
]


@pytest.mark.parametrize("j, side", _LONG_RUNS)
def test_sides_pulled_back_through_a_run_of_10_to_the_30(j, side):
    w = _power(GAMMA_NU_INV[j], 10**30, side)
    assert max(abs(i) for c in (w.x, w.y) for i in c.ints) > 10**29
    _assert_accepted_but_not_rescaled(w)


def test_a_run_of_10_to_the_30_sevens_is_decided():
    # the twist GAMMA_NU[7] = [[1, 2+2sqrt2], [0, 1]] is the derivative of an
    # affine symmetry, so a power of it that brings w near the y axis keeps
    # the answer, and the ray tracer decides the short vector
    w = Vec2(-(10**30), 1)
    k = quad_floor(-(10**30), 10**30, 2, 2)  # floor(10^30/(2 + 2sqrt2))
    short = _power(GAMMA_NU[7], k, w)
    assert short.y == QuadNum(1) and -5 <= short.x.floor() <= 0
    answer = is_saddle_connection(w)
    assert answer is saddle_oracle.is_saddle_connection(short) is is_saddle_connection(-w)


def test_one_walk_decides_a_vector(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    walk = saddle._walk
    monkeypatch.setattr(saddle, "_walk", counted)
    long_runs = [_power(GAMMA_NU_INV[j], 10**30, side) for j, side in _LONG_RUNS]
    deep = _pulled_back_side((3, *([2, 5, 4, 6] * 32)), QPRIME_VECTORS[1])
    for w in [*long_runs, deep, Vec2(-(10**30), 1), Vec2(1000, 1), Vec2(-2, 0)]:
        calls.clear()
        is_saddle_connection(w)
        assert len(calls) == 1 and calls[0][1:3] == (None, TiePolicy.LOW), str(w)


@pytest.mark.parametrize(
    "w",
    [Vec2(0, 0), Vec2(-2, 0), Vec2(QuadNum(Fraction(1, 3)), QuadNum(Fraction(1, 7)))],
    ids=["zero", "doubled side", "generic"],
)
def test_rejects(w):
    assert is_saddle_connection(w) is False


def test_accepts_the_octagon_sides_and_the_qprime_sides():
    verts = saddle_oracle.octagon_vertices()
    sides = [verts[(i + 1) % 8] - verts[i] for i in range(8)]
    for v in sides + [s for v in QPRIME_VECTORS for s in (v, -v)]:
        assert is_saddle_connection(v), str(v)


def test_answers_where_the_ray_tracer_spends_its_budget(monkeypatch):
    w = Vec2(1000, 1)
    with pytest.raises(saddle_oracle.CrossingBudgetExhausted):
        saddle_oracle.is_saddle_connection(w)
    assert is_saddle_connection(w) is False
    monkeypatch.setattr(saddle_oracle, "MAX_CROSSINGS", 20000)
    assert saddle_oracle.is_saddle_connection(w) is False


_COEFFICIENT = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT, _COEFFICIENT))
def test_always_answers(c):
    # every nonzero vector of Q(sqrt2)^2 is decided, with -w; w and 2w are
    # never both connections, as the middle of 2w is a corner
    w = Vec2(QuadNum(c[0], c[1]), QuadNum(c[2], c[3]))
    if w.is_zero():
        return
    answer = is_saddle_connection(w)
    assert answer in (True, False) and is_saddle_connection(-w) is answer
    assert not (answer and is_saddle_connection(w.scale(2)))


def _assert_trace_sides_are_connections(trace):
    sides = set(trace.holonomies()) | set(trace.initial_original_wedges())
    assert sides
    for v in sides:
        assert is_saddle_connection(v), str(v)


@settings(max_examples=20, deadline=None)
@given(
    num=st.integers(-(10**6), 10**6),
    den=st.integers(1, 10**4),
    n=st.integers(1, 30),
    policy=st.sampled_from(list(TiePolicy)),
)
def test_trace_sides_are_connections(num, den, n, policy):
    d = Direction(Vec2(QuadNum(Fraction(num, den)), QuadNum(1)))
    _assert_trace_sides_are_connections(run_expansion(d, n, policy))


@settings(max_examples=40, deadline=None)
@given(
    first=st.integers(0, 7),
    rest=st.lists(st.integers(1, 7), min_size=1, max_size=11),
    side=st.sampled_from(QPRIME_VECTORS),
    policy=st.sampled_from(list(TiePolicy)),
)
@example(first=0, rest=[7, 2], side=QPRIME_VECTORS[0], policy=TiePolicy.LOW)
def test_terminating_traces_halt_before_the_tail_on_connections(first, rest, side, policy):
    # a direction on a connection, off the rays j*pi/8, halts with
    # hits_singularity two steps before its expansion's tail begins
    entries = (first, *rest)
    d = Direction(_pulled_back_side(entries, side))
    assume(not any(d.ray_eq(_boundary_direction(j)) for j in range(9)))
    trace = run_expansion(d, len(entries) + 6, policy)
    expansion = trace.expansion
    tail_start = len(bytes(expansion.entries).rstrip(bytes((expansion.tail,))))
    assert trace.halted == "hits_singularity"
    assert len(trace.steps) == tail_start - 2
    _assert_trace_sides_are_connections(trace)


def test_the_walk_to_the_tail_holds_one_record():
    # the walk keeps only the last step's record, so its memory does not grow
    # with its step count: a list of every record peaks at 15 MB here
    w = height_direction(random.Random(3), 1024).vector
    tracemalloc.start()
    try:
        is_saddle_connection(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak
