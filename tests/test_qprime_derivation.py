"""Dual derivation oracles for the frozen base-quadrangulation vectors.

Oracle (a) enumerates short saddle connections of the octagon with the exact
ray tracer of ``saddle_oracle`` and searches for wedge data with the right gluing pattern, straddle
windows, and area; oracle (b) solves the joint renormalization fixed-point
system (``helpers.derive_qprime_vectors_fixed_point``).  Both must land on
the frozen constants.
"""

from fractions import Fraction

import pytest

from helpers import built_as_qprime, derive_qprime_vectors_fixed_point
from octocf.diagch import LabeledQuadrangulation, QuadrangulationError, Wedge
from octocf.numerics import QuadNum, Vec2
from octocf.octagon import (
    OCTAGON_AREA,
    QPRIME_COMB,
    QPRIME_VECTORS,
    sector_midpoint,
    verify_sector,
)
from saddle_oracle import (
    MAX_CROSSINGS,
    CrossingBudgetExhausted,
    enumerate_saddle_connections,
    is_saddle_connection,
    octagon_vertices,
)

_D_PI8 = Vec2(QuadNum(1, 1), QuadNum(1))  # boundary ray of the straddle windows
_D_PI = Vec2(-1, 0)


def _left_window(v: Vec2) -> bool:
    """Strictly left of every direction with angle in (pi/8, pi)."""
    return _D_PI8.cross(v).sign() >= 0 and _D_PI.cross(v).sign() >= 0


def _right_window(v: Vec2) -> bool:
    return _D_PI8.cross(v).sign() <= 0 and _D_PI.cross(v).sign() <= 0


class TestRayTracer:
    def test_octagon_sides_are_saddle_connections(self):
        verts = octagon_vertices()
        for i in range(8):
            side = verts[(i + 1) % 8] - verts[i]
            assert is_saddle_connection(side)

    def test_frozen_vectors_are_saddle_connections(self):
        for v in set(QPRIME_VECTORS):
            assert is_saddle_connection(v)
            assert is_saddle_connection(-v)

    def test_doubled_side_hits_the_cone_point(self):
        assert not is_saddle_connection(Vec2(-2, 0))

    def test_generic_vector_is_not_a_saddle_connection(self):
        assert not is_saddle_connection(Vec2(QuadNum(Fraction(1, 3)), QuadNum(Fraction(1, 7))))

    def test_exhausted_budget_is_unknown_not_false(self):
        # long and nearly horizontal: no corner decides it within the budget
        with pytest.raises(CrossingBudgetExhausted, match=str(MAX_CROSSINGS)):
            is_saddle_connection(Vec2(1000, 1))


def test_fixed_point_oracle_matches_frozen():
    assert derive_qprime_vectors_fixed_point() == QPRIME_VECTORS


@pytest.mark.slow
def test_geometric_search_agrees_with_fixed_point():
    connections = enumerate_saddle_connections(QuadNum(8))
    lefts = [v for v in connections if _left_window(v)]
    rights = [v for v in connections if _right_window(v)]
    assert set(QPRIME_VECTORS) <= set(lefts) | set(rights)

    probes = [sector_midpoint(j) for j in (1, 4, 7)]
    candidates = []
    for a in lefts:
        for r in rights:
            for l2 in lefts:
                for b in rights:
                    vecs = (a, r, l2, r, l2, b)
                    wedges = tuple(Wedge(vecs[2 * i], vecs[2 * i + 1]) for i in range(3))
                    try:
                        states = [
                            LabeledQuadrangulation(QPRIME_COMB, wedges, p) for p in probes
                        ]
                    except (QuadrangulationError, ValueError):
                        continue
                    if states[0].total_area() != OCTAGON_AREA:
                        continue
                    candidates.append(vecs)
    assert tuple(QPRIME_VECTORS) in candidates
    # the fixed-point identity singles out the frozen tuple among the
    # geometrically admissible ones
    surviving = [
        vecs for vecs in candidates if _passes_all_sectors(vecs)
    ]
    assert surviving == [tuple(QPRIME_VECTORS)]


def _passes_all_sectors(vecs) -> bool:
    import octocf.octagon as octagon_module

    if tuple(vecs) == QPRIME_VECTORS:
        return all(verify_sector(i, sector_midpoint(i)).passed for i in range(1, 8))
    # run the verifier against a temporarily substituted Q', built as at import
    try:
        candidate = built_as_qprime(vecs)
    except ValueError:  # QuadrangulationError and TrainTrackError included
        return False
    original = octagon_module._QPRIME, octagon_module.QPRIME_VECTORS
    octagon_module._QPRIME, octagon_module.QPRIME_VECTORS = candidate, tuple(vecs)
    try:
        return all(
            octagon_module.verify_sector(i, sector_midpoint(i)).passed for i in range(1, 8)
        )
    finally:
        octagon_module._QPRIME, octagon_module.QPRIME_VECTORS = original


def test_octagon_model_identifications():
    from saddle_oracle import OctagonModel

    model = OctagonModel.unit()
    assert model.area == OCTAGON_AREA
    for i in range(8):
        a, b = model.side(i)
        t = model.gluing_translation(i)
        a2, b2 = model.side(i + 4)
        assert {a + t, b + t} == {a2, b2}
        assert (b - a).dot(b - a) == QuadNum(1)  # unit side length


def test_saddle_connection_set_is_dihedrally_symmetric():
    # the octagon's symmetry group permutes saddle connections and preserves
    # length, so the traced set must be closed under every folding element
    from octocf.farey import NU

    connections = set(enumerate_saddle_connections(QuadNum(4)))
    assert connections
    for nu in NU:
        for w in connections:
            assert nu.apply(w) in connections, (str(w), str(nu))
