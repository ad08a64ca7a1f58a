"""Deterministic SVG rendering of quadrangulations and move traces.

Each quadrilateral is drawn from its base singularity as the polygon
0 -> w_r -> diagonal -> w_l with the diagonal dashed; the quadrilaterals of
one state sit side by side in a panel, and a trace renders one panel per
state, left to right, top to bottom.  All coordinates go through the exact
decimal renderer, element order is fixed, and no randomness is involved, so
identical inputs give byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction

from .diagch import LabeledQuadrangulation
from .numerics import Direction, QuadNum, Vec2, _FrozenValue, to_decimal

__all__ = ["RenderSpec", "render_states", "render_state", "trace_panels"]

_DIGITS = 12
_PANELS_PER_ROW = 4


class RenderSpec(_FrozenValue):
    """Rendering options: ``scale`` factor, ``show_labels``, and an optional
    ``direction_overlay``."""

    __slots__ = ("scale", "show_labels", "direction_overlay")
    _defaults = (Fraction(60), True, None)

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def _fmt(q: QuadNum, scale: Fraction) -> str:
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
    pad = QuadNum(Fraction(1, 2))
    panels = []
    bounds = [_state_bounds(state) for state in states]
    cell_w = max(hi_x - lo_x for lo_x, hi_x, _, _ in bounds) + pad + pad
    cell_h = max(hi_y - lo_y for _, _, lo_y, hi_y in bounds) + pad + pad
    rows = (len(states) + _PANELS_PER_ROW - 1) // _PANELS_PER_ROW
    cols = min(len(states), _PANELS_PER_ROW)
    for idx, (state, (lo_x, _, _, hi_y)) in enumerate(zip(states, bounds)):
        row, col = divmod(idx, _PANELS_PER_ROW)
        # SVG y axis points down: flip within the panel
        origin_x = cell_w * QuadNum(col) + pad - lo_x
        origin_y = cell_h * QuadNum(row) + pad + hi_y
        panels.append(_render_panel(state, origin_x, origin_y, spec, idx))
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


def _point(origin_x: QuadNum, origin_y: QuadNum, v: Vec2, scale: Fraction) -> str:
    return f"{_fmt(origin_x + v.x, scale)},{_fmt(origin_y - v.y, scale)}"


def _render_panel(
    state: LabeledQuadrangulation,
    origin_x: QuadNum,
    origin_y: QuadNum,
    spec: RenderSpec,
    index: int,
) -> str:
    parts = [f'<g id="panel-{index}">']
    for i in range(1, state.comb.k + 1):
        base, right, top, left = _quad_corners(state, i)
        points = " ".join(
            _point(origin_x, origin_y, v, spec.scale) for v in (base, right, top, left)
        )
        parts.append(
            f'<polygon points="{points}" fill="#dce9f5" stroke="#23435f" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_fmt(origin_x + base.x, spec.scale)}" '
            f'y1="{_fmt(origin_y - base.y, spec.scale)}" '
            f'x2="{_fmt(origin_x + top.x, spec.scale)}" '
            f'y2="{_fmt(origin_y - top.y, spec.scale)}" '
            f'stroke="#a04040" stroke-width="1" stroke-dasharray="4,3"/>'
        )
        if spec.show_labels:
            center_x = (base.x + right.x + top.x + left.x) * QuadNum(Fraction(1, 4))
            center_y = (base.y + right.y + top.y + left.y) * QuadNum(Fraction(1, 4))
            parts.append(
                f'<text x="{_fmt(origin_x + center_x, spec.scale)}" '
                f'y="{_fmt(origin_y - center_y, spec.scale)}" '
                f'font-size="12" text-anchor="middle" fill="#23435f">{i}</text>'
            )
    overlay = spec.direction_overlay or state.ref_dir
    ray = _normalized_ray(overlay)
    parts.append(
        f'<line x1="{_fmt(origin_x, spec.scale)}" y1="{_fmt(origin_y, spec.scale)}" '
        f'x2="{_fmt(origin_x + ray.x, spec.scale)}" y2="{_fmt(origin_y - ray.y, spec.scale)}" '
        f'stroke="#2f8f2f" stroke-width="1.5"/>'
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
