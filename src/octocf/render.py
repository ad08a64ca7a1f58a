"""Deterministic SVG rendering of quadrangulations and move traces.

Each quadrilateral is drawn from its base singularity as the polygon
0 -> w_r -> diagonal -> w_l with the diagonal dashed; the quadrilaterals of
one state sit side by side in a panel, and a trace renders one panel per
state, left to right, top to bottom.  All coordinates go through the exact
decimal renderer, element order is fixed, and no randomness is involved, so
identical inputs give byte-identical files.
"""

from __future__ import annotations

from .diagch import LabeledQuadrangulation
from .numerics import Direction, QuadNum, Vec2, _FrozenValue, _is_fraction, to_decimal

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["RenderSpec", "render_states", "render_state", "trace_panels"]

_DIGITS = 12
_PANELS_PER_ROW = 4


class RenderSpec(_FrozenValue):
    """Rendering options: ``scale`` factor (a positive int or Fraction),
    ``show_labels``, and an optional ``direction_overlay``."""

    __slots__ = ("scale", "show_labels", "direction_overlay")
    _defaults = (60, True, None)

    def __post_init__(self):
        if type(self.scale) is not int and not _is_fraction(self.scale):  # True is an int too
            raise TypeError(f"scale must be an int or a Fraction, got {type(self.scale).__name__}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        overlay = self.direction_overlay
        if overlay is not None and not isinstance(overlay, Direction):
            kind = type(overlay).__name__
            raise TypeError(f"direction_overlay must be a Direction or None, got {kind}")


def _fmt(q: QuadNum, scale: int | Fraction) -> str:
    return to_decimal(q * scale, _DIGITS)


def _quad_corners(state: LabeledQuadrangulation, i: int) -> tuple[Vec2, Vec2, Vec2, Vec2]:
    w = state.wedges[i - 1]
    return Vec2(0, 0), w.r, state.diagonal(i), w.l


def _state_bounds(state: LabeledQuadrangulation):
    xs, ys = [], []
    for i in range(1, state.comb.k + 1):
        for corner in _quad_corners(state, i):
            xs.append(corner.x)
            ys.append(corner.y)
    return min(xs), max(xs), min(ys), max(ys)


def render_states(states, spec: RenderSpec = RenderSpec()) -> str:
    """Render a sequence of quadrangulation states as one SVG document."""
    states = list(states)
    if not states:
        raise ValueError("nothing to render")
    pad = QuadNum(1) / 2
    panels = []
    bounds = [_state_bounds(state) for state in states]
    cell_w = max(hi_x - lo_x for lo_x, hi_x, _, _ in bounds) + pad + pad
    cell_h = max(hi_y - lo_y for _, _, lo_y, hi_y in bounds) + pad + pad
    rows = (len(states) + _PANELS_PER_ROW - 1) // _PANELS_PER_ROW
    cols = min(len(states), _PANELS_PER_ROW)
    for idx, (state, (lo_x, _, _, hi_y)) in enumerate(zip(states, bounds)):
        row, col = divmod(idx, _PANELS_PER_ROW)
        origin = Vec2(cell_w * QuadNum(col) + pad - lo_x, cell_h * QuadNum(row) + pad + hi_y)
        panels.append(_render_panel(state, origin, spec, idx))
    width = _fmt(cell_w * QuadNum(cols), spec.scale)
    height = _fmt(cell_h * QuadNum(rows), spec.scale)
    body = "\n".join(panels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def render_state(state: LabeledQuadrangulation, spec: RenderSpec = RenderSpec()) -> str:
    return render_states([state], spec)


def _svg_xy(origin: Vec2, v: Vec2, scale: int | Fraction) -> tuple[str, str]:
    """The SVG coordinates of ``v`` in the panel whose origin is ``origin``; the
    SVG y axis points down, so y flips within the panel."""
    return _fmt(origin.x + v.x, scale), _fmt(origin.y - v.y, scale)


def _render_panel(
    state: LabeledQuadrangulation, origin: Vec2, spec: RenderSpec, index: int
) -> str:
    parts = [f'<g id="panel-{index}">']
    for i in range(1, state.comb.k + 1):
        corners = _quad_corners(state, i)
        xy = [_svg_xy(origin, v, spec.scale) for v in corners]
        points = " ".join(f"{x},{y}" for x, y in xy)
        parts.append(
            f'<polygon points="{points}" fill="#dce9f5" stroke="#23435f" stroke-width="1"/>'
        )
        (x1, y1), (x2, y2) = xy[0], xy[2]  # the diagonal, from the base to the top
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#a04040" stroke-width="1" stroke-dasharray="4,3"/>'
        )
        if spec.show_labels:
            center = Vec2(sum(v.x for v in corners) / 4, sum(v.y for v in corners) / 4)
            x, y = _svg_xy(origin, center, spec.scale)
            parts.append(
                f'<text x="{x}" y="{y}" font-size="12" text-anchor="middle" fill="#23435f">'
                f"{i}</text>"
            )
    ray = _normalized_ray(spec.direction_overlay or state.ref_dir)
    (x1, y1), (x2, y2) = _svg_xy(origin, Vec2(0, 0), spec.scale), _svg_xy(origin, ray, spec.scale)
    parts.append(
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#2f8f2f" stroke-width="1.5"/>'
    )
    parts.append("</g>")
    return "\n".join(parts)


def _normalized_ray(d: Direction) -> Vec2:
    # scale the direction vector to unit sup-norm, exactly
    v = d.vector
    ax, ay = abs(v.x), abs(v.y)
    m = ax if (ax - ay).sign() >= 0 else ay
    return v.scale(m.inverse())


def trace_panels(trace_json: dict) -> list[LabeledQuadrangulation]:
    """Extract the drawable state sequence from trace or quadrangulation JSON."""
    if "steps" in trace_json:
        states = [LabeledQuadrangulation.from_json(trace_json["initial"])]
        states.extend(LabeledQuadrangulation.from_json(s["state"]) for s in trace_json["steps"])
        if len(states) > 1:
            states = states[1:]  # one panel per executed step
        return states
    return [LabeledQuadrangulation.from_json(trace_json)]
