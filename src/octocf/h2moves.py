"""The reduced move system for quadrangulations with three quadrilaterals.

Up to relabeling and an orientation-reversing symmetry, the diagonal-changes
induction on three quadrilaterals visits only two gluing data:

    LEFT:   pi_l = (1,2)(3)   pi_r = (2,3)(1)
    RIGHT:  pi_l = (1,2,3)    pi_r = (2,3)(1)

Five moves connect them: the double right-staircase move toggling the nodes
in both directions, the single right-staircase self-loop, the full left
move combined with a cyclic relabeling (self-loop at RIGHT), and the
left/right symmetry combined with the relabeling 1<->3 (self-loop at LEFT).
Each move is a token plan from its source node; resolving it over the node's
gluing data gives its target and its 6x6 integer matrix on the wedge vectors,
built by :mod:`octocf.diagch` in its wedge basis.

Composing the stored per-sector move words yields the seven acceleration
matrices A1..A7: one octagon Farey step equals one such word of staircase
moves.  Matrices compose with later moves on the left (column vectors);
parity counts symmetry moves, matching the orientation behavior of the
renormalizing element of each sector.

One resolver walks every token plan over gluing data: :func:`resolved_word`
resolves each sector's raw plan once from the base gluing data, and
:func:`compose_word` composes the resolutions of a reduced word's moves, each
resolved once at its node.  The octagon
executor only runs the resolved steps on the geometry, where every staircase
move is checked against the live gluing data.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import permutations

from . import intmat
from .diagch import CombDatum, Side, StaircaseMove, elementary_matrix, relabeling_matrix
from .numerics import _FrozenValue, _int_arg

__all__ = [
    "NodeId",
    "ReducedMove",
    "MoveWord",
    "RawToken",
    "LetterToken",
    "SymmetryToken",
    "RelabelToken",
    "ResolvedWord",
    "SectorWordError",
    "compose_word",
    "resolved_word",
    "sector_word",
    "sector_raw_word",
    "sector_raw_plan",
    "sector_matrix",
    "SECTOR_MATRICES",
    "Q_PRIME_PI_L",
    "Q_PRIME_PI_R",
    "QPRIME_COMB",
]

#: Gluing data of the two reduced nodes (and of the octagon's base
#: quadrangulation, which sits at LEFT).
Q_PRIME_PI_L = (2, 1, 3)  # (1,2)(3)
Q_PRIME_PI_R = (1, 3, 2)  # (1)(2,3)

#: Gluing data of Q', where every sector word starts and ends.
QPRIME_COMB = CombDatum(3, Q_PRIME_PI_L, Q_PRIME_PI_R)
_RIGHT_COMB = CombDatum(3, (2, 3, 1), Q_PRIME_PI_R)  # pi_l = (1,2,3)


class NodeId(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def comb(self) -> CombDatum:
        return QPRIME_COMB if self is NodeId.LEFT else _RIGHT_COMB


def _node(comb: CombDatum) -> NodeId:
    """The reduced node with gluing data ``comb``."""
    for node in NodeId:
        if node.comb == comb:
            return node
    raise SectorWordError(f"{comb} is not a node of the reduced graph")


class ReducedMove(Enum):
    """The five edges of the reduced move graph."""

    RR_L_TO_R = "rr_left_to_right"
    RR_R_TO_L = "rr_right_to_left"
    RDOT = "rdot"
    LLL_RELABEL = "lll_relabel"
    SYM_RELABEL = "sym_relabel"

    @property
    def source(self) -> NodeId | None:
        """The node the move leaves; None for the self-loop at either node."""
        return _MOVE_PLANS[self][0]

    @property
    def target(self) -> NodeId | None:
        source, plan = _MOVE_PLANS[self]
        return None if source is None else _node(_resolve(plan, source.comb)[1])

    @property
    def matrix(self) -> intmat.IntMat:
        source, plan = _MOVE_PLANS[self]
        return _resolve(plan, (source or NodeId.LEFT).comb)[0].matrix


class MoveWord(_FrozenValue):
    """A path in the reduced graph: the ``start`` node and the sequence of ``moves``."""

    __slots__ = ("start", "moves")

    def __post_init__(self):
        self.end()

    def end(self) -> NodeId:
        node = self.start
        for m in self.moves:
            if m.source not in (None, node):
                raise ValueError(f"move {m.value} is not available from {node.value}")
            node = m.target or node
        return node


def compose_word(word: MoveWord) -> tuple[intmat.IntMat, int, NodeId]:
    """The word's matrix (later moves on the left), parity and end node, from its move plans."""
    return _compose(word.start, tuple(_MOVE_PLANS[m][1] for m in word.moves))


@cache
def _compose(start: NodeId, plans) -> tuple[intmat.IntMat, int, NodeId]:
    """Move plans resolved one by one, each at the node the last one ended on, and
    composed.  This is the concatenated plan resolved from ``start``: each move
    ends at a node, whose gluing data are ``==`` to the ones the walk reaches."""
    matrix, parity, node = intmat.identity(2 * start.comb.k), 0, start
    for plan in plans:
        resolved, end = _resolve(plan, node.comb)
        matrix = intmat.matmul(resolved.matrix, matrix)
        parity ^= resolved.parity
        node = _node(end)
    return matrix, parity, node


# -- raw per-sector words ------------------------------------------------------


class LetterToken(_FrozenValue):
    """One simultaneous batch of staircase moves, marked by quadrilateral label.

    ``side`` PI_R batches run along cycles of pi_r (left vectors updated),
    side PI_L along cycles of pi_l (right vectors updated); the ``marked``
    set must split exactly into cycles of the current permutation.
    """

    __slots__ = ("side", "marked")

    def as_string(self) -> str:
        letter = "r" if self.side is Side.PI_R else "l"
        return "".join(letter if i in self.marked else "\N{MIDDLE DOT}" for i in (1, 2, 3))


class SymmetryToken(_FrozenValue):
    """Left/right exchange plus the unique relabeling closing up the gluing data.

    ``printed`` records whether the sector listing spells the symmetry out;
    the sixth sector's listing leaves its final symmetry implicit (an even
    sector must flip orientation once).
    """

    __slots__ = ("printed",)
    _defaults = (True,)

    def as_string(self) -> str:
        return "symmetry"


class RelabelToken(_FrozenValue):
    """A pure relabeling ``sigma`` of quadrilateral labels between staircase moves."""

    __slots__ = ("sigma",)


RawToken = LetterToken | SymmetryToken | RelabelToken

_R = Side.PI_R
_L = Side.PI_L

#: Token plans of the seven sector words on the base quadrangulation.  The
#: relabel tokens in sectors 3 and 5 carry label bookkeeping that the letter
#: strings leave implicit; the whole table is pinned by the requirement that
#: each word reproduce its sector matrix exactly.
_RAW_PLANS: dict[int, tuple[RawToken, ...]] = {
    1: (
        LetterToken(_R, (2, 3)),
        LetterToken(_R, (1,)),
        LetterToken(_R, (2, 3)),
    ),
    2: (
        LetterToken(_R, (2, 3)),
        LetterToken(_L, (1, 2, 3)),
        LetterToken(_R, (1, 3)),
        LetterToken(_R, (2,)),
        SymmetryToken(),
    ),
    3: (
        LetterToken(_R, (2, 3)),
        LetterToken(_L, (1, 2, 3)),
        RelabelToken((3, 1, 2)),  # 1->3, 2->1, 3->2
        LetterToken(_L, (1, 2, 3)),
        RelabelToken((3, 1, 2)),
        LetterToken(_R, (2, 3)),
    ),
    4: (
        LetterToken(_L, (3,)),
        LetterToken(_R, (2, 3)),
        LetterToken(_R, (2, 3)),
        LetterToken(_L, (1, 2)),
        LetterToken(_L, (1, 2)),
        LetterToken(_R, (1,)),
        SymmetryToken(),
    ),
    5: (
        LetterToken(_L, (3,)),
        LetterToken(_R, (2, 3)),
        LetterToken(_L, (1, 2, 3)),
        LetterToken(_R, (1, 3)),
        LetterToken(_L, (1,)),
        RelabelToken((3, 1, 2)),
    ),
    6: (
        LetterToken(_L, (1, 2)),
        LetterToken(_L, (3,)),
        LetterToken(_R, (1, 2, 3)),
        LetterToken(_L, (1, 3)),
        SymmetryToken(printed=False),
    ),
    7: (
        LetterToken(_L, (1, 2)),
        LetterToken(_L, (3,)),
        LetterToken(_L, (1, 2)),
        LetterToken(_L, (3,)),
    ),
}

#: Token plans of the five reduced moves, each from its source node (None:
#: the same plan at either node).
_MOVE_PLANS: dict[ReducedMove, tuple[NodeId | None, tuple[RawToken, ...]]] = {
    ReducedMove.RR_L_TO_R: (NodeId.LEFT, (LetterToken(_R, (2, 3)),)),
    ReducedMove.RR_R_TO_L: (NodeId.RIGHT, (LetterToken(_R, (2, 3)),)),
    ReducedMove.RDOT: (None, (LetterToken(_R, (1,)),)),
    ReducedMove.LLL_RELABEL: (NodeId.RIGHT, (LetterToken(_L, (1, 2, 3)), RelabelToken((3, 1, 2)))),
    ReducedMove.SYM_RELABEL: (NodeId.LEFT, (SymmetryToken(),)),
}

_REDUCED_WORDS: dict[int, tuple[ReducedMove, ...]] = {
    1: (ReducedMove.RR_L_TO_R, ReducedMove.RDOT, ReducedMove.RR_R_TO_L),
    4: (
        ReducedMove.SYM_RELABEL,
        ReducedMove.RDOT,
        ReducedMove.SYM_RELABEL,
        ReducedMove.RR_L_TO_R,
        ReducedMove.RR_R_TO_L,
        ReducedMove.SYM_RELABEL,
        ReducedMove.RR_L_TO_R,
        ReducedMove.RR_R_TO_L,
        ReducedMove.SYM_RELABEL,
        ReducedMove.RDOT,
        ReducedMove.SYM_RELABEL,
    ),
    5: (
        ReducedMove.SYM_RELABEL,
        ReducedMove.RDOT,
        ReducedMove.SYM_RELABEL,
        ReducedMove.RR_L_TO_R,
        ReducedMove.LLL_RELABEL,
        ReducedMove.RR_R_TO_L,
        ReducedMove.SYM_RELABEL,
        ReducedMove.RDOT,
        ReducedMove.SYM_RELABEL,
    ),
    6: (
        ReducedMove.SYM_RELABEL,
        ReducedMove.RR_L_TO_R,
        ReducedMove.RDOT,
        ReducedMove.LLL_RELABEL,
        ReducedMove.RR_R_TO_L,
    ),
    7: (
        ReducedMove.SYM_RELABEL,
        ReducedMove.RR_L_TO_R,
        ReducedMove.RDOT,
        ReducedMove.RR_R_TO_L,
        ReducedMove.RDOT,
        ReducedMove.SYM_RELABEL,
    ),
}

SECTOR_MATRICES: dict[int, intmat.IntMat] = {
    1: intmat.freeze(
        [
            [1, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 0, 0],
            [0, 1, 1, 0, 0, 1],
            [0, 0, 0, 1, 0, 0],
            [0, 1, 0, 0, 1, 1],
            [0, 0, 0, 0, 0, 1],
        ]
    ),
    2: intmat.freeze(
        [
            [1, 1, 0, 0, 0, 0],
            [1, 0, 0, 1, 1, 1],
            [0, 1, 1, 0, 0, 1],
            [1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1],
            [0, 2, 2, 0, 0, 1],
        ]
    ),
    3: intmat.freeze(
        [
            [0, 0, 0, 0, 1, 1],
            [1, 1, 1, 0, 0, 1],
            [1, 1, 1, 1, 1, 1],
            [1, 1, 0, 0, 1, 1],
            [1, 2, 2, 0, 0, 1],
            [0, 1, 1, 1, 1, 1],
        ]
    ),
    4: intmat.freeze(
        [
            [0, 0, 1, 0, 0, 1],
            [0, 1, 1, 0, 1, 1],
            [1, 1, 1, 1, 1, 1],
            [0, 1, 2, 0, 0, 1],
            [1, 2, 1, 0, 1, 1],
            [2, 1, 1, 1, 1, 1],
        ]
    ),
    5: intmat.freeze(
        [
            [0, 1, 1, 0, 0, 0],
            [0, 0, 1, 1, 1, 1],
            [1, 1, 1, 0, 1, 1],
            [0, 1, 2, 0, 0, 1],
            [1, 0, 1, 1, 1, 1],
            [2, 2, 1, 0, 1, 1],
        ]
    ),
    6: intmat.freeze(
        [
            [0, 0, 0, 1, 1, 0],
            [1, 1, 1, 0, 0, 0],
            [1, 1, 1, 0, 1, 1],
            [1, 0, 0, 1, 1, 0],
            [1, 1, 2, 0, 0, 1],
            [0, 0, 1, 0, 1, 1],
        ]
    ),
    7: intmat.freeze(
        [
            [1, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 0],
            [1, 0, 0, 1, 1, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 2, 0, 0, 1],
        ]
    ),
}


def sector_matrix(i: int) -> intmat.IntMat:
    """The acceleration matrix of sector i, verbatim."""
    _int_arg(i, "sector index", 1, 7)
    return SECTOR_MATRICES[i]


def sector_raw_plan(i: int) -> tuple[RawToken, ...]:
    """The executable token plan of sector i's word on the base quadrangulation."""
    _int_arg(i, "sector index", 1, 7)
    return _RAW_PLANS[i]


def sector_raw_word(i: int) -> list[str]:
    """The printed move strings of sector i's word (relabelings are silent)."""
    _int_arg(i, "sector index", 1, 7)
    out = []
    for token in _RAW_PLANS[i]:
        if isinstance(token, LetterToken):
            out.append(token.as_string())
        elif isinstance(token, SymmetryToken) and token.printed:
            out.append(token.as_string())
    return out


def sector_word(i: int) -> MoveWord:
    """The reduced-graph word of sector i; sectors 2 and 3 have none stored."""
    _int_arg(i, "sector index", 1, 7)
    if i not in _REDUCED_WORDS:
        raise KeyError(f"sector {i} carries a raw word only")
    return MoveWord(NodeId.LEFT, _REDUCED_WORDS[i])


def has_reduced_word(i: int) -> bool:
    _int_arg(i, "sector index", 1, 7)
    return i in _REDUCED_WORDS


# -- resolving token plans over gluing data ---------------------------------------


class SectorWordError(ValueError):
    """A sector word that does not fit the gluing data it runs on."""


#: A relabeling step: sigma, and whether left and right are exchanged first.
Relabeling = tuple[tuple[int, ...], bool]


class ResolvedWord(_FrozenValue):
    """A token plan resolved over gluing data.

    ``steps`` holds one :class:`StaircaseMove` per cycle of each letter token
    and one :data:`Relabeling` per relabel or symmetry token.  ``matrix``
    composes the steps' label matrices (later steps on the left); ``parity``
    counts the left/right exchanges mod 2.
    """

    __slots__ = ("steps", "matrix", "parity")


def resolved_word(i: int) -> ResolvedWord:
    """Sector i's token plan walked once over ``QPRIME_COMB``."""
    return _resolve(sector_raw_plan(i), QPRIME_COMB)[0]


@cache
def _resolve(plan, comb: CombDatum) -> tuple[ResolvedWord, CombDatum]:
    """A token plan walked once over gluing data ``comb``, and the gluing data it ends on."""
    steps = []
    matrix = intmat.identity(2 * comb.k)
    parity = 0
    for token in plan:
        if isinstance(token, LetterToken):
            for cycle in _partition_marked(comb, token.side, token.marked):
                move = StaircaseMove(token.side, cycle, elementary_matrix(comb, cycle, token.side))
                steps.append(move)
                matrix = intmat.matmul(move.matrix, matrix)
                comb = comb.after_move(token.side, cycle)
            continue
        if isinstance(token, SymmetryToken):
            sigma, reflect = _closure_relabel(comb), True
            comb = comb.swapped()
            parity ^= 1
        else:
            sigma, reflect = token.sigma, False
        steps.append((sigma, reflect))
        matrix = intmat.matmul(relabeling_matrix(sigma, reflect), matrix)
        comb = comb.relabeled(sigma)
    return ResolvedWord(tuple(steps), matrix, parity), comb


def _partition_marked(comb: CombDatum, side: Side, marked) -> list[tuple[int, ...]]:
    """The cycles of ``side`` whose union is the marked set of a letter token."""
    chosen = [c for c in comb.cycles(side) if set(c) <= set(marked)]
    covered = set()
    for c in chosen:
        covered |= set(c)
    if covered != set(marked):
        raise SectorWordError(
            f"marked set {set(marked)} is not a union of {side.value} cycles of {comb}"
        )
    return chosen


def _closure_relabel(comb: CombDatum) -> tuple[int, ...]:
    """The unique relabeling returning the swapped gluing data to Q'."""
    swapped = comb.swapped()
    solutions = [
        s for s in permutations(range(1, comb.k + 1)) if swapped.relabeled(s) == QPRIME_COMB
    ]
    if len(solutions) != 1:
        raise SectorWordError(f"no unique symmetry relabeling from {comb}")
    return solutions[0]
