"""The exact saddle-connection ray tracer of the regular-octagon surface.

An oracle independent of the renormalization machinery: it knows only the
unit-side octagon and its opposite-side gluings, and decides by exact ray
tracing whether a vector is the holonomy of a saddle connection.  The tests
use it to derive the Q' wedge vectors a second way, to check that trace
holonomies are saddle connections, and to check ``octocf.saddle``'s exact
test, which decides through the Farey walk instead.  It imports only
``octocf.numerics``.  A long vector can spend the crossing budget
``MAX_CROSSINGS`` undecided; the answer is then unknown, and
:class:`CrossingBudgetExhausted` is raised instead of a ``False``.
"""

from __future__ import annotations

from fractions import Fraction

from octocf.numerics import QuadNum, Vec2, _FrozenValue, _cross_sign

__all__ = [
    "OctagonModel",
    "octagon_vertices",
    "is_saddle_connection",
    "CrossingBudgetExhausted",
    "MAX_CROSSINGS",
    "candidate_vectors",
    "enumerate_saddle_connections",
]

_H = Fraction(1, 2)


def octagon_vertices() -> tuple[Vec2, ...]:
    """Vertices of the unit-side regular octagon, counterclockwise, flat bottom."""
    h = QuadNum(_H)
    g = QuadNum(_H, _H)  # (1+sqrt2)/2, the apothem
    return (
        Vec2(-h, -g),
        Vec2(h, -g),
        Vec2(g, -h),
        Vec2(g, h),
        Vec2(h, g),
        Vec2(-h, g),
        Vec2(-g, h),
        Vec2(-g, -h),
    )


_VERTICES = octagon_vertices()

#: Translation carrying side i onto side i+4 (mod 8); the octagon is
#: centrally symmetric, so one formula serves all eight sides.
_SIDE_TRANSLATIONS = tuple(_VERTICES[(i + 4) % 8] - _VERTICES[(i + 1) % 8] for i in range(8))


class OctagonModel(_FrozenValue):
    """The unit-side regular octagon with its opposite-side identifications.

    Side i runs from vertex i to vertex i+1 (mod 8) of ``vertices`` and is
    glued to side i+4 by the stored translation; all eight corners become one
    cone point.  ``area`` is the octagon's area.
    """

    __slots__ = ("vertices", "area")

    @staticmethod
    def unit() -> "OctagonModel":
        edges = zip(_VERTICES, _VERTICES[1:] + _VERTICES[:1])
        area = sum((a.cross(b) for a, b in edges), QuadNum(0)) * _H  # the shoelace formula
        return OctagonModel(_VERTICES, area)

    def side(self, i: int) -> tuple[Vec2, Vec2]:
        return self.vertices[i % 8], self.vertices[(i + 1) % 8]

    def gluing_translation(self, i: int) -> Vec2:
        """Translation identifying side i with side i+4."""
        return _SIDE_TRANSLATIONS[i % 8]


def _segment_hits(p: Vec2, w: Vec2, a: Vec2, b: Vec2):
    """Parameters (t, s) with p + t*w = a + s*(b-a), or None if parallel."""
    e = b - a
    den = w.cross(e)
    if den.sign() == 0:
        return None
    diff = a - p
    t = diff.cross(e) / den
    s = diff.cross(w) / den
    return t, s


#: Side crossings followed from each corner by :func:`is_saddle_connection`.
MAX_CROSSINGS = 200


class CrossingBudgetExhausted(RuntimeError):
    """No corner proved a saddle connection and some ran out of crossings."""


def is_saddle_connection(w: Vec2) -> bool:
    """Exact test that ``w`` is the holonomy of a saddle connection.

    Develops the segment from each corner of the octagon in turn, jumping
    copies across glued sides; the segment must end exactly at a corner and
    meet no corner on the way.  When no corner proves one and some corner
    is still undecided after ``MAX_CROSSINGS``, the answer is unknown and
    :class:`CrossingBudgetExhausted` is raised.
    """
    if w.is_zero():
        return False
    undecided = False
    for corner in _VERTICES:
        found = _trace(corner, w)
        if found:
            return True
        undecided |= found is None
    if undecided:
        raise CrossingBudgetExhausted(f"{w}: undecided after {MAX_CROSSINGS} crossings")
    return False


def _trace(p0: Vec2, w: Vec2) -> bool | None:
    """True/False once the segment from ``p0`` is decided, None if undecided."""
    verts = _VERTICES
    one = QuadNum(1)
    tau = Vec2(0, 0)
    lam = QuadNum(0)
    for _ in range(MAX_CROSSINGS):
        # find the exit of the ray x(t) = p0 + t*w from the copy O + tau
        best_t = None
        exit_side = None
        exit_point = None
        base = Vec2(p0.x - tau.x, p0.y - tau.y)
        for i in range(8):
            a, b = verts[i], verts[(i + 1) % 8]
            hit = _segment_hits(base, w, a, b)
            if hit is None:
                # the ray is parallel to side i; collinear means it runs along it
                if _cross_sign(a - base, w) == 0:
                    for endpoint in (a, b):
                        delta = endpoint - base
                        t = (delta.x / w.x) if w.x.sign() != 0 else (delta.y / w.y)
                        if t.sign() > 0 and (lam - t).sign() < 0:
                            if best_t is None or t < best_t:
                                best_t, exit_side, exit_point = t, None, endpoint
                continue
            t, s = hit
            if (t - lam).sign() <= 0:
                continue
            if s.sign() < 0 or (s - one).sign() > 0:
                continue
            if best_t is None or t < best_t:
                best_t, exit_side, exit_point = t, i, base + w.scale(t)
        if best_t is None:
            return False
        if (best_t - one).sign() > 0:
            return False  # the endpoint would be interior to this copy
        at_vertex = any(exit_point == v for v in verts)
        if (best_t - one).sign() == 0:
            return at_vertex
        if at_vertex:
            return False  # a cone point in the interior of the segment
        lam = best_t
        tau = tau - _SIDE_TRANSLATIONS[exit_side]
    return None


def candidate_vectors(norm2_bound: QuadNum) -> list[Vec2]:
    """The distinct nonzero differences of developed corners over a ball of
    gluing translations, with squared length at most the bound."""
    verts = _VERTICES
    ts = _SIDE_TRANSLATIONS
    seen = set()
    out = []
    span = range(-2, 3)
    for n0 in span:
        for n1 in span:
            for n2 in span:
                for n3 in span:
                    shift = (
                        ts[0].scale(n0) + ts[1].scale(n1) + ts[2].scale(n2) + ts[3].scale(n3)
                    )
                    for va in verts:
                        for vb in verts:
                            w = vb + shift - va
                            if w.is_zero() or w in seen:
                                continue
                            seen.add(w)
                            if (w.dot(w) - norm2_bound).sign() <= 0:
                                out.append(w)
    return out


def enumerate_saddle_connections(norm2_bound: QuadNum) -> list[Vec2]:
    """All saddle-connection holonomies with squared length at most the bound.

    The candidates of :func:`candidate_vectors` are validated by exact ray
    tracing.  The bound must stay small (single digits) for the candidate
    ball to be exhaustive.
    """
    return [w for w in candidate_vectors(norm2_bound) if is_saddle_connection(w)]
