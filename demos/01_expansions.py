"""Octagon Farey expansions: itineraries, tie policies, duals, reconstruction.

Run with: python3 demos/01_expansions.py
"""

from fractions import Fraction

from octocf.farey import Direction, TiePolicy, dual_expansion, expand, reconstruct
from octocf.numerics import QuadNum, Vec2, to_decimal

# The two horizontal rays are the protagonists of the symbolic endgame:
# angle 0 expands as [0;7,7,...] and angle pi as the fixed point [7;7,...].
for label, vec in (("angle 0", Vec2(1, 0)), ("angle pi", Vec2(-1, 0))):
    e = expand(Direction(vec), 8)
    print(f"{label:8s} -> {e}")

# A boundary direction carries two expansions; the tie policy picks one and
# the dual-expansion rule produces the other.
boundary = Direction(Vec2(QuadNum(1, 1), QuadNum(1)))  # angle pi/8
low = expand(boundary, 6)
high = expand(boundary, 6, TiePolicy.HIGH)
print(f"\nangle pi/8, low policy : {low}")
print(f"angle pi/8, high policy: {high}")
print(f"dual of the low itinerary: {dual_expansion(low)}")

# Generic directions have a unique expansion; prefixes of the itinerary
# reconstruct to nested exact intervals squeezing onto the direction.
d = Direction(Vec2(QuadNum(Fraction(7, 3)), QuadNum(1)))
e = expand(d, 10)
print(f"\nu = 7/3 expands as {e}")
for depth in (2, 4, 6, 8, 10):
    interval = reconstruct(e.entries[:depth])
    width = interval.theta_width()
    lo, hi = interval.lo.u_text(), interval.hi.u_text()
    assert interval.contains(d)
    print(f"  depth {depth:2d}: u in [{hi}, {lo}]  angle width ~ {width:.2e}")

# Endpoints are exact elements of Q(sqrt2); decimals are display only.
interval = reconstruct(e.entries[:6])
hi = interval.hi.vector
print(
    "\nexact lower endpoint u =",
    interval.hi.u_text(),
    "=",
    to_decimal(hi.x / hi.y, 12),
)
