"""The slotted value types, which were frozen dataclasses.

Each keeps its constructor (positional and keyword fields, the same
defaults), its checks, ``==``, hash and the dataclass ``repr``; pickling and
``copy`` go through the constructor, and assignment raises AttributeError.
No class in ``src/`` is a dataclass, so that no command builds one; the
dataclass protocol (``dataclasses.replace``, ``fields``, ``asdict``,
``copy.replace`` and positional ``match`` patterns) still takes every type.
"""

import ast
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import pprint
import sys
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
from octocf.farey import GAMMA_NU_INV, Direction, FareyExpansion, reconstruct
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
    ExpansionTrace,
    MoveRecord,
    SectorReport,
    TheoremReport,
    TraceStep,
    _SectorTable,
    _sector_table,
    _WordRun,
    qprime,
    run_expansion,
    sector_midpoint,
    verify_sector,
)
from octocf.render import RenderSpec
from saddle_oracle import OctagonModel

SRC = Path(__file__).resolve().parents[1] / "src" / "octocf"


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def test_no_class_in_src_is_a_dataclass():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                _is_dataclass_decorator(d) for d in node.decorator_list
            ):
                found.add((path.stem, node.name))
    assert found == set()


def test_only_the_defining_module_writes_the_slots_of_a_value_type():
    # a value's fields are checked by its constructor or by an unchecked builder
    # of its own module, which states why the fields hold: every slot setter and
    # every bare instance in src/ names a class of the same module (or self, cls)
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_setters":
                named = node.value
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_object_new":
                (named,) = node.args
            else:
                continue
            if not (isinstance(named, ast.Name) and named.id in own | {"self", "cls"}):
                found.add((path.stem, ast.unparse(named)))
    assert found == set()


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
            ("bounds", "holonomies", "layout"),
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
    trace = run_expansion(Direction(Vec2(Fraction(-16489, 1091), 1)), 1)
    step = trace.steps[0]
    return [values[0] for _, values, _ in VALUES] + [
        Vec2(1, QuadNum(0, 1)),
        inverted,
        Direction(Vec2(1, 2)),
        reconstruct((2, 1)),
        QuadraticIrrational(1, 1, 2, 5),
        geometric_convergents(Fraction(3, 2), 5),
        step.records[0],
        step,
        trace.expansion,
        trace,
        TheoremReport((), {3: True}, {3: True}, True),
    ]


def test_every_value_type_reads_and_writes_its_slots_in_order():
    for module in pkgutil.iter_modules(octocf.__path__, "octocf."):
        importlib.import_module(module.name)
    types = [cls for cls in _subclasses(_FrozenValue) if cls.__module__.startswith("octocf.")]
    assert {Vec2, Mat2, CombDatum, MoveRecord, TraceStep, ExpansionTrace, FareyExpansion} < set(
        types
    )
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
        ),
        "_SectorTable(bounds=((Vec2(x=QuadNum(Fraction(1, 1), Fraction(0, 1)), "
        "y=QuadNum(Fraction(0, 1), Fraction(0, 1))), None), (Vec2(x=QuadNum(Fraction(0, 1), "
        "Fraction(1, 1)), y=QuadNum(Fraction(1, 1), Fraction(0, 1))), 2)), "
        "holonomies=(((1, 0, 0, 2), 3),), layout=((<Side.PI_R: 'pi_r'>, (1,), ((1, 0),)),))",
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


# -- the dataclass protocol ------------------------------------------------------

#: The four types that were dataclasses last, with their fields and defaults.
PROTOCOL = [
    (FareyExpansion, ("entries", "boundary_hit", "tail"), {"boundary_hit": False, "tail": None}),
    (MoveRecord, ("side", "cycle", "new_sides"), {}),
    (TraceStep, ("entry", "records", "state", "to_original"), {}),
    (ExpansionTrace, ("direction", "expansion", "initial", "steps", "halted"), {}),
]


def _pairs() -> dict:
    """Two unequal values of each type in PROTOCOL, from two traces."""
    trace = run_expansion(Direction(Vec2(Fraction(-16489, 1091), 1)), 2)
    other = run_expansion(Direction(Vec2(QuadNum(1, 1), 1)), 2)
    first, second = trace.steps
    return {
        FareyExpansion: (trace.expansion, FareyExpansion((2, 1), True)),
        MoveRecord: (first.records[0], second.records[0]),
        TraceStep: (first, second),
        ExpansionTrace: (trace, other),
    }


@pytest.mark.parametrize("cls, names, defaults", PROTOCOL, ids=[c.__name__ for c, *_ in PROTOCOL])
def test_the_dataclass_protocol_takes_the_former_dataclasses(cls, names, defaults):
    value, other = _pairs()[cls]
    assert value != other
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert tuple(f.name for f in dataclasses.fields(value)) == names
    assert dataclasses.fields(cls) == dataclasses.fields(value)
    given = {f.name: f.default for f in dataclasses.fields(cls)}
    assert {k: v for k, v in given.items() if v is not dataclasses.MISSING} == defaults
    assert tuple(dataclasses.asdict(value)) == names
    assert dataclasses.replace(value) == value
    for name in names:
        changed = dataclasses.replace(value, **{name: getattr(other, name)})
        assert changed == cls(**{n: getattr(other if n == name else value, n) for n in names})
    with pytest.raises(TypeError):
        dataclasses.replace(value, extra=0)
    # pprint reads the dataclass parameters of a value whose repr is too wide
    assert pprint.pformat(value, width=20) == repr(value)


def test_the_dataclass_fields_are_built_per_class():
    assert dataclasses.fields(_FrozenValue) == ()
    assert [f.name for f in dataclasses.fields(Mat2)] == ["a", "b", "c", "d"]
    spec = RenderSpec()
    assert dataclasses.asdict(spec) == {"scale": 60, "show_labels": True, "direction_overlay": None}
    assert dataclasses.replace(spec, scale=30) == RenderSpec(30)
    with pytest.raises(ValueError, match="scale must be positive"):
        dataclasses.replace(spec, scale=0)


def test_replace_runs_the_checks():
    expansion = FareyExpansion((2, 1, 7))
    with pytest.raises(ValueError, match="a tail must be the int 1 or 7"):
        dataclasses.replace(expansion, tail=2)
    with pytest.raises(ValueError, match="a tail must be the int 1 or 7"):
        expansion.__replace__(tail=2)
    # the checked constructor keeps the entries as a tuple
    assert expansion.__replace__(entries=[2, 1]) == FareyExpansion((2, 1))
    assert expansion.__replace__() == expansion


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace_builds_through_the_constructor():
    expansion = FareyExpansion((2, 1, 7))
    assert copy.replace(expansion, tail=7) == FareyExpansion((2, 1, 7), tail=7)
    with pytest.raises(ValueError, match="a tail must be the int 1 or 7"):
        copy.replace(expansion, tail=2)
    assert copy.replace(Vec2(1, 2), y=3) == Vec2(1, 3)


def test_positional_match_patterns_take_the_fields():
    match FareyExpansion((2, 1), True):
        case FareyExpansion(entries, hit, tail):
            assert (entries, hit, tail) == ((2, 1), True, None)
        case _:
            pytest.fail("no match")
    record = _pairs()[MoveRecord][0]
    match record:
        case MoveRecord(side, cycle, new_sides):
            assert (side, cycle, new_sides) == (record.side, record.cycle, record.new_sides)
        case _:
            pytest.fail("no match")
    match Vec2(1, 2):
        case Vec2(x, y):
            assert (x, y) == (QuadNum(1), QuadNum(2))
        case _:
            pytest.fail("no match")
    assert Mat2.__match_args__ == ("a", "b", "c", "d")

