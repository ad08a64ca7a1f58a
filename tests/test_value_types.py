"""The slotted value types of the staircase layer, which were frozen dataclasses.

Each keeps its constructor (positional and keyword fields, the same
defaults), its checks, ``==``, hash and the dataclass ``repr``; pickling and
``copy`` go through the constructor, and assignment raises AttributeError.
Only the four types that are edited with ``dataclasses.replace`` elsewhere
stay dataclasses, so that no command builds a dataclass it does not need.
"""

import ast
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import check_value_type
import octocf
from octocf import octagon
from octocf.classical import QuadraticIrrational, geometric_convergents
from octocf.diagch import (
    CombDatum,
    LabeledQuadrangulation,
    QuadrangulationError,
    Side,
    StaircaseMove,
    Wedge,
)
from octocf.farey import GAMMA_NU_INV, Direction, reconstruct
from octocf.h2moves import (
    QPRIME_COMB,
    LetterToken,
    MoveWord,
    NodeId,
    RelabelToken,
    ResolvedWord,
    SymmetryToken,
    _resolve,
    resolved_word,
    sector_word,
)
from octocf.numerics import Mat2, QuadNum, Vec2, _FrozenValue
from octocf.octagon import (
    Q0_COMB,
    SectorReport,
    TheoremReport,
    _SectorTable,
    _sector_table,
    _WordRun,
    qprime,
    run_expansion,
    sector_midpoint,
    verify_sector,
)
from octocf.render import RenderSpec
from octocf.saddle import OctagonModel

SRC = Path(__file__).resolve().parents[1] / "src" / "octocf"

#: The dataclasses left in ``src/``: ``perfbench`` rebuilds them with ``dataclasses.replace``.
DATACLASSES = {
    ("farey", "FareyExpansion"),
    ("octagon", "MoveRecord"),
    ("octagon", "TraceStep"),
    ("octagon", "ExpansionTrace"),
}


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def test_only_the_replaced_types_are_dataclasses():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(d) for d in node.decorator_list
            ):
                found.add((path.stem, node.name))
    assert found == DATACLASSES


def _torus(ref=Vec2(1, 2)) -> LabeledQuadrangulation:
    wedge = Wedge(Vec2(0, 1), Vec2(1, 0))
    return LabeledQuadrangulation(CombDatum(1, (1,), (1,)), (wedge,), Direction(ref))


def _values():
    """(type, values, fields): values with equal and unequal members."""
    torus, base = _torus(), qprime(sector_midpoint(4))
    table, midpoint = _sector_table(1)
    r, l = Side.PI_R, Side.PI_L
    report = ("sector", "direction", "passed", "moves_available", "matrix_equal", "closes_up")
    return [
        (CombDatum, [QPRIME_COMB, CombDatum(3, (2, 1, 3), (1, 3, 2)), Q0_COMB],
         ("k", "pi_l", "pi_r")),
        (Wedge, [*base.wedges, *torus.wedges, Wedge(Vec2(0, 1), Vec2(1, 0))], ("l", "r")),
        (
            StaircaseMove,
            [*base.available_moves(), *torus.available_moves(), *base.available_moves()],
            ("side", "cycle", "matrix"),
        ),
        (
            LabeledQuadrangulation,
            [torus, _torus(), _torus(Vec2(1, 3)), base],
            ("comb", "wedges", "ref_dir"),
        ),
        (MoveWord, [sector_word(1), sector_word(4), sector_word(1)], ("start", "moves")),
        (LetterToken, [LetterToken(r, (2, 3)), LetterToken(l, (2, 3)), LetterToken(r, (2, 3))],
         ("side", "marked")),
        (SymmetryToken, [SymmetryToken(), SymmetryToken(False), SymmetryToken(True)], ("printed",)),
        (RelabelToken, [RelabelToken((2, 1, 3)), RelabelToken((1, 3, 2)), RelabelToken((2, 1, 3))],
         ("sigma",)),
        (ResolvedWord, [resolved_word(1), resolved_word(2), resolved_word(1)],
         ("steps", "matrix", "parity")),
        (
            SectorReport,
            [verify_sector(2, sector_midpoint(2)), verify_sector(1, sector_midpoint(1)),
             midpoint],
            (*report, "parity", "failure"),
        ),
        (
            _SectorTable,
            [table, _sector_table(2)[0], _SectorTable(*(getattr(table, f) for f in table.__slots__))],
            ("bounds", "holonomies", "layout", "wedges"),
        ),
        (
            RenderSpec,
            [RenderSpec(), RenderSpec(show_labels=False), RenderSpec(Fraction(60))],
            ("scale", "show_labels", "direction_overlay"),
        ),
        (OctagonModel, [OctagonModel.unit(), OctagonModel.unit()], ("vertices", "area")),
    ]


VALUES = _values()


@pytest.mark.parametrize("cls, values, fields", VALUES, ids=[cls.__name__ for cls, *_ in VALUES])
def test_value_semantics(cls, values, fields):
    assert cls.__slots__ == fields
    assert all(type(v) is cls for v in values)
    check_value_type(values, fields)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _instances():
    """The first value of each table above, and one value of each other type."""
    inverted = Mat2(1, 1, 0, 1)
    inverted.inverse()  # fills _Invertible's slot too
    step = run_expansion(Direction(Vec2(Fraction(-16489, 1091), 1)), 1).steps[0]
    return [values[0] for _, values, _ in VALUES] + [
        Vec2(1, QuadNum(0, 1)),
        inverted,
        Direction(Vec2(1, 2)),
        reconstruct((2, 1)),
        QuadraticIrrational(1, 1, 2, 5),
        geometric_convergents(Fraction(3, 2), 5),
        step.records[0],
        step,
        TheoremReport((), {3: True}, {3: True}, True),
    ]


def test_every_value_type_reads_and_writes_its_slots_in_order():
    for module in pkgutil.iter_modules(octocf.__path__, "octocf."):
        importlib.import_module(module.name)
    types = [cls for cls in _subclasses(_FrozenValue) if cls.__module__.startswith("octocf.")]
    assert {Vec2, Mat2, CombDatum, octagon.MoveRecord, octagon.TraceStep} < set(types)
    instances = _instances()
    for cls in types:
        value = next(v for v in instances if isinstance(v, cls))
        names = cls.__slots__
        assert cls._fields(value) == tuple(getattr(value, name) for name in names), cls
        blank, marks = object.__new__(cls), [object() for _ in names]
        for setter, mark in zip(cls._setters, marks, strict=True):
            setter(blank, mark)
        assert all(getattr(blank, name) is mark for name, mark in zip(names, marks)), cls


def test_theorem_report_holds_dicts_so_it_has_no_hash():
    report = octagon.verify_theorem(1, sectors=[2])
    identities, proved = dict(report.word_identities), dict(report.proved)
    same = TheoremReport(report.sector_reports, identities, proved, True)
    assert report == same and copy.copy(report) == report
    assert pickle.loads(pickle.dumps(report)) == report
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(AttributeError):
        report.passed = False


#: Each ``repr`` as the dataclass printed it, except that ``_SectorTable`` no
#: longer ends with ``midpoint=None``: the midpoint report left its fields.
REPRS = [
    (lambda: QPRIME_COMB, "CombDatum(k=3, pi_l=(2, 1, 3), pi_r=(1, 3, 2))"),
    (
        lambda: _torus().wedges[0],
        "Wedge(l=Vec2(x=QuadNum(Fraction(0, 1), Fraction(0, 1)), y=QuadNum(Fraction(1, 1), "
        "Fraction(0, 1))), r=Vec2(x=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
        "y=QuadNum(Fraction(0, 1), Fraction(0, 1))))",
    ),
    (
        lambda: _torus().available_moves()[0],
        "StaircaseMove(side=<Side.PI_L: 'pi_l'>, cycle=(1,), matrix=((1, 0), (1, 1)))",
    ),
    (
        lambda: _torus(),
        "LabeledQuadrangulation(comb=CombDatum(k=1, pi_l=(1,), pi_r=(1,)), "
        "wedges=(Wedge(l=Vec2(x=QuadNum(Fraction(0, 1), Fraction(0, 1)), "
        "y=QuadNum(Fraction(1, 1), Fraction(0, 1))), r=Vec2(x=QuadNum(Fraction(1, 1), "
        "Fraction(0, 1)), y=QuadNum(Fraction(0, 1), Fraction(0, 1)))),), "
        "ref_dir=Direction(vector=Vec2(x=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
        "y=QuadNum(Fraction(2, 1), Fraction(0, 1)))))",
    ),
    (
        lambda: sector_word(4),
        "MoveWord(start=<NodeId.LEFT: 'left'>, moves=(<ReducedMove.SYM_RELABEL: 'sym_relabel'>, "
        "<ReducedMove.RDOT: 'rdot'>, <ReducedMove.SYM_RELABEL: 'sym_relabel'>, "
        "<ReducedMove.RR_L_TO_R: 'rr_left_to_right'>, <ReducedMove.RR_R_TO_L: 'rr_right_to_left'>, "
        "<ReducedMove.SYM_RELABEL: 'sym_relabel'>, <ReducedMove.RR_L_TO_R: 'rr_left_to_right'>, "
        "<ReducedMove.RR_R_TO_L: 'rr_right_to_left'>, <ReducedMove.SYM_RELABEL: 'sym_relabel'>, "
        "<ReducedMove.RDOT: 'rdot'>, <ReducedMove.SYM_RELABEL: 'sym_relabel'>))",
    ),
    (
        lambda: LetterToken(Side.PI_R, (2, 3)),
        "LetterToken(side=<Side.PI_R: 'pi_r'>, marked=(2, 3))",
    ),
    (lambda: SymmetryToken(), "SymmetryToken(printed=True)"),
    (lambda: RelabelToken((2, 1, 3)), "RelabelToken(sigma=(2, 1, 3))"),
    (
        lambda: _resolve((LetterToken(Side.PI_L, (1,)),), CombDatum(1, (1,), (1,)))[0],
        "ResolvedWord(steps=(StaircaseMove(side=<Side.PI_L: 'pi_l'>, cycle=(1,), "
        "matrix=((1, 0), (1, 1))),), matrix=((1, 0), (1, 1)), parity=0)",
    ),
    (
        lambda: verify_sector(2, sector_midpoint(2)),
        "SectorReport(sector=2, direction=Direction(vector=Vec2(x=QuadNum(Fraction(0, 1), "
        "Fraction(1, 2)), y=QuadNum(Fraction(1, 1), Fraction(0, 1)))), passed=True, "
        "moves_available=True, matrix_equal=True, closes_up=True, parity=1, failure=None)",
    ),
    (
        lambda: TheoremReport((), {3: True}, {3: True}, True),
        "TheoremReport(sector_reports=(), word_identities={3: True}, proved={3: True}, "
        "passed=True)",
    ),
    (
        lambda: _SectorTable(
            ((Vec2(1, 0), None), (Vec2(QuadNum(0, 1), 1), 2)),
            (((1, 0, 0, 2), 3),),
            ((Side.PI_R, (1,), ((1, 0),)),),
            (),
        ),
        "_SectorTable(bounds=((Vec2(x=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
        "y=QuadNum(Fraction(0, 1), Fraction(0, 1))), None), (Vec2(x=QuadNum(Fraction(0, 1), "
        "Fraction(1, 1)), y=QuadNum(Fraction(1, 1), Fraction(0, 1))), 2)), "
        "holonomies=(((1, 0, 0, 2), 3),), layout=((<Side.PI_R: 'pi_r'>, (1,), ((1, 0),)),), "
        "wedges=())",
    ),
    (
        lambda: RenderSpec(),
        "RenderSpec(scale=60, show_labels=True, direction_overlay=None)",
    ),
    (
        lambda: OctagonModel((Vec2(1, 0),), QuadNum(1, 1)),
        "OctagonModel(vertices=(Vec2(x=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
        "y=QuadNum(Fraction(0, 1), Fraction(0, 1))),), "
        "area=QuadNum(Fraction(1, 1), Fraction(1, 1)))",
    ),
]


@pytest.mark.parametrize("build, text", REPRS, ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_is_the_dataclass_form(build, text):
    assert repr(build()) == text


class TestConstruction:
    def test_fields_by_keyword(self):
        token = LetterToken(side=Side.PI_R, marked=(2, 3))
        assert token == LetterToken(Side.PI_R, marked=(2, 3)) == LetterToken(Side.PI_R, (2, 3))
        state = _torus()
        assert LabeledQuadrangulation(
            ref_dir=state.ref_dir, comb=state.comb, wedges=state.wedges
        ) == state
        assert MoveWord(NodeId.LEFT, moves=()).end() is NodeId.LEFT

    def test_defaults(self):
        assert SymmetryToken().printed is True
        assert SymmetryToken(printed=False).printed is False
        spec = RenderSpec(show_labels=False)
        assert (spec.scale, spec.show_labels, spec.direction_overlay) == (Fraction(60), False, None)
        report = SectorReport(1, sector_midpoint(1), True, True, True, True, 0)
        assert report.failure is None
        full = SectorReport(1, sector_midpoint(1), True, True, True, True, parity=0, failure=None)
        assert report == full

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((Side.PI_R,), {}),  # a field missing
            ((Side.PI_R, (1,), 0), {}),  # one too many
            ((Side.PI_R, (1,)), {"side": Side.PI_L}),  # a field given twice
            ((Side.PI_R,), {"marked": (1,), "extra": 0}),  # not a field
        ],
    )
    def test_wrong_fields_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError, match="LetterToken takes the fields side, marked"):
            LetterToken(*args, **kwargs)
        with pytest.raises(TypeError):
            SymmetryToken(True, printed=True)

    def test_checks_run_on_every_path(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            RenderSpec(scale=Fraction(0))
        with pytest.raises(ValueError, match="scale must be positive"):
            RenderSpec(Fraction(-1), False)
        with pytest.raises(ValueError, match="permutation length must equal k"):
            CombDatum(k=2, pi_l=(1,), pi_r=(1,))
        with pytest.raises(ValueError, match="not available"):
            MoveWord(start=NodeId.RIGHT, moves=sector_word(1).moves)
        state = _torus()
        with pytest.raises(QuadrangulationError, match="one wedge per quadrilateral"):
            LabeledQuadrangulation(state.comb, state.wedges * 2, ref_dir=state.ref_dir)

    def test_word_run_is_mutable_with_its_own_lists(self):
        first = _WordRun(state=qprime(sector_midpoint(1)))
        second = _WordRun(state=first.state, to_original=GAMMA_NU_INV[1])
        assert first.to_original == Mat2.identity()
        assert second.to_original == GAMMA_NU_INV[1]
        first.records.append(None)
        assert (first.records, second.records, second.flips, second.states) == ([None], [], [], [])
        first.state = None
        with pytest.raises(AttributeError):
            first.extra = 0


def test_a_checked_state_runs_its_checks_once(monkeypatch):
    # counted as perfbench's layer tracer counts diagch.states_built: by
    # wrapping the __post_init__ in LabeledQuadrangulation's own __dict__
    for i in range(1, 8):
        _sector_table(i)
    calls = []
    checks = LabeledQuadrangulation.__dict__["__post_init__"]

    def counted(state):
        calls.append(state)
        return checks(state)

    monkeypatch.setattr(LabeledQuadrangulation, "__post_init__", counted)
    state = _torus()
    assert calls == [state]
    calls.clear()
    copy.copy(state)  # copies are built by the checked constructor
    assert len(calls) == 1
    calls.clear()
    trace = run_expansion(Direction(Vec2(Fraction(-16489, 1091), 1)), 20)
    assert len(trace.steps) == 20
    # the initial state and the replayed steps are built unchecked: Q' was
    # checked when the tables were proved, and its cones are tested per call
    assert calls == []
