"""The exact saddle-connection test of the regular-octagon surface.

A vector of Q(sqrt2)^2 is decided by one Farey walk of its direction to a
fixed ray, whose saddle connections are sides of Q'.  The ray tracer of
``tests/saddle_oracle.py`` checks it; no command loads this module.
"""

from __future__ import annotations

from collections import deque

from .farey import TiePolicy, _directions, _walk
from .numerics import Direction, Vec2
from .octagon import QPRIME_VECTORS

__all__ = ["is_saddle_connection"]

#: The saddle connections on each fixed ray, by tail, oriented along the ray:
#: the horizontal sides of Q' on the ray pi (tail 7), its other sides on the
#: ray pi/8 (tail 1).
_TAIL_CONNECTIONS = {
    7: frozenset(v for v in QPRIME_VECTORS if v.y.is_zero()),
    1: frozenset(v for v in QPRIME_VECTORS if not v.y.is_zero()),
}


def is_saddle_connection(w: Vec2) -> bool:
    """Whether ``w`` is the holonomy of a saddle connection; exact, and always answered.

    Each branch gamma*nu_j is the derivative of an affine symmetry of the
    surface (nu_j a symmetry of the octagon, gamma the reflection (x, y) ->
    (-x, y) followed by the horizontal twist), so the walk's frame M carries
    saddle connections onto saddle connections: w is one exactly when M*w
    is.  One walk under ``TiePolicy.LOW``, with no depth, runs to the first
    step on a fixed ray, whose connections are two sides of Q'; M*w is that
    step's image x, and the walk keeps no other step's record.
    """
    if w.is_zero():
        return False
    steps = deque(maxlen=1)  # the last step's record, not one per step
    den, tail = _walk(Direction(w), None, TiePolicy.LOW, steps)
    _, _, x, e, _, _ = steps[-1]
    return _directions(x, None, 0, den, e)[0].vector in _TAIL_CONNECTIONS[tail]
