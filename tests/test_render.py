"""SVG rendering: determinism, panel counts, basic structure."""

from fractions import Fraction
from pathlib import Path

import pytest

from octocf.diagch import CombDatum, LabeledQuadrangulation, Wedge
from octocf.farey import Direction
from octocf.numerics import QuadNum, Vec2
from octocf.octagon import qprime, run_expansion, sector_midpoint, sector_move_states
from octocf.render import RenderSpec, render_state, render_states, trace_panels


FIGURES = Path(__file__).resolve().parent.parent / "demos" / "out"


def _committed(name: str) -> str:
    # the figures written by demos/04_render_figures.py pin the decimal
    # formatting of exact coordinates
    return (FIGURES / name).read_text(encoding="utf-8")


def test_base_figure_matches_committed():
    assert render_state(qprime(sector_midpoint(4))) == _committed("base_quadrangulation.svg")


@pytest.mark.parametrize("i", range(1, 8))
def test_sector_figures_match_committed(i):
    svg = render_states(sector_move_states(i, sector_midpoint(i)))
    assert svg == _committed(f"sector_{i}_moves.svg")


def test_byte_identical_for_identical_input():
    state = qprime(sector_midpoint(4))
    a = render_state(state)
    b = render_state(state)
    assert a == b


def test_qprime_panel_has_three_quads_and_labels():
    svg = render_state(qprime(sector_midpoint(4)))
    assert svg.count("<polygon") == 3
    for label in ("1", "2", "3"):
        assert f">{label}</text>" in svg


def test_sector_word_renders_one_panel_per_move():
    states = sector_move_states(1, sector_midpoint(1))
    svg = render_states(states)
    assert svg.count("<g id=") == 3


def test_no_labels_option():
    svg = render_state(qprime(sector_midpoint(4)), RenderSpec(show_labels=False))
    assert "<text" not in svg


def test_no_states_are_refused():
    with pytest.raises(ValueError, match="^nothing to render$"):
        render_states([])
    with pytest.raises(ValueError, match="^nothing to render$"):
        render_states(iter(()))


def test_scale_validation():
    with pytest.raises(ValueError, match="^scale must be positive$"):
        RenderSpec(scale=Fraction(0))
    with pytest.raises(ValueError, match="^scale must be positive$"):
        RenderSpec(scale=-1)


@pytest.mark.parametrize("scale", [1.5, None, True, "60"])
def test_a_scale_that_is_not_an_int_or_fraction_is_refused(scale):
    # a float once drew inexact coordinates, and None or "60" failed in the comparison
    message = f"^scale must be an int or a Fraction, got {type(scale).__name__}$"
    with pytest.raises(TypeError, match=message):
        RenderSpec(scale=scale)


@pytest.mark.parametrize("overlay", ["x", Vec2(1, 1), (1, 1)], ids=["str", "vec2", "tuple"])
def test_a_direction_overlay_that_is_not_a_direction_is_refused(overlay):
    # "x" once built a spec that render_state failed on with an AttributeError
    message = f"^direction_overlay must be a Direction or None, got {type(overlay).__name__}$"
    with pytest.raises(TypeError, match=message):
        RenderSpec(direction_overlay=overlay)


def test_an_int_scale_and_its_fraction_draw_the_same_svg():
    state = qprime(sector_midpoint(4))
    svg = render_state(state, RenderSpec(scale=60))
    assert render_state(state, RenderSpec(scale=Fraction(60))) == svg == render_state(state)


def test_trace_panels_from_expansion_trace_json():
    d = Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1)))
    trace = run_expansion(d, 3).to_json()
    states = trace_panels(trace)
    assert len(states) == 3
    svg = render_states(states)
    assert svg.count("<g id=") == 3


def test_trace_panels_single_quadrangulation():
    state = qprime(sector_midpoint(3))
    panels = trace_panels(state.to_json())
    assert len(panels) == 1
    assert panels[0] == state


def test_empty_trace_renders_single_panel():
    d = Direction(Vec2(QuadNum(Fraction(19, 7)), QuadNum(1)))
    trace = run_expansion(d, 0).to_json()
    states = trace_panels(trace)
    assert len(states) == 1
    assert render_states(states).count("<g id=") == 1


def test_cell_fits_the_widest_panel_in_either_order():
    # the two panel widths round to the same float; only the exact max tells them apart
    def torus(width):
        wedge = Wedge(Vec2(0, 1), Vec2(width, 0))
        return LabeledQuadrangulation(CombDatum(1, (1,), (1,)), (wedge,), Direction(Vec2(1, 1)))

    narrow, wide = torus(10**20), torus(10**20 + 1)
    for states in ([narrow, wide], [wide, narrow]):
        # two cells of width 10**20 + 2 (panel plus padding) at scale 60
        assert 'width="12000000000000000000240.000000000000"' in render_states(states)
