"""Unit dependency graphs and their coupling to expression trees.

A graph over a problem with n quantities has n+1 vertices (the question is
vertex n). Vertices are labeled rate / not-rate; every unordered vertex pair
carries exactly one edge type, with NoRelation encoding absence. Directed
rate edges point from the rate vertex: in ``Rate->Num`` the lower-index
vertex is the rate and its numerator unit matches the other vertex's unit;
``Rate<-Num`` is the mirror image, and likewise for Den.

Edge labels are tied to a tree by unit algebra. Writing a rate as r[A per B],
the three multiplicative configurations all express r = y / x with y carrying
unit A and x carrying unit B:

    r * x = y      (x matches Den, the product matches Num)
    y / r = x      (the dividend matches Num, the quotient matches Den)
    y / x = r      (the dividend matches Num, the divisor matches Den)

``edge_label`` determines an edge exactly when the pair's vertex labels agree
and their tree path has no multiplicative node (SameUnit), or when the labels
differ and the path has exactly one multiplicative node sitting in one of the
three configurations above. Everything else is undetermined.

This module alone decides which labels a pair may carry. Each (tree, vertex
pair) path is walked once and kept, with the label it determines and the
labels it permits under each pair of rate flags (``_path_data``), and
each (tree, n) gets one record of its additive leaves and defined pairs'
tables (``_consistency_checks``), read by ``is_consistent`` and by
``consistent_edge_choices``, which gives the choices per vertex labeling
under a tree (joint inference and consistent-graph enumeration);
``valid_edge_choices`` gives them for a labeling bound by no tree
(standalone graph prediction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from . import exprtree
from .corpus import QUESTION
from .exprtree import DIV, MUL, Expr, base_op, is_reversed, region


class UdgError(ValueError):
    """Structurally invalid graph or graph/tree mismatch."""


class EdgeType(Enum):
    SAME_UNIT = "SameUnit"
    NO_RELATION = "NoRelation"
    NUM_FWD = "Rate->Num"
    NUM_REV = "Rate<-Num"
    DEN_FWD = "Rate->Den"
    DEN_REV = "Rate<-Den"

    # members are singletons compared by identity, so identity hashing (in
    # C) agrees with equality; Enum's own hash is a Python call per lookup.
    # No set of labels is iterated into any output, so order cannot leak.
    __hash__ = object.__hash__


EDGE_ORDER = {e: i for i, e in enumerate(EdgeType)}


def edge_structurally_valid(label: EdgeType, vi_rate: bool, vj_rate: bool) -> bool:
    """Directed rate edges need a rate-labeled source vertex."""
    if label in (EdgeType.NUM_FWD, EdgeType.DEN_FWD):
        return vi_rate
    if label in (EdgeType.NUM_REV, EdgeType.DEN_REV):
        return vj_rate
    return True


# structurally valid labels, in declaration order, by the pair's two rate flags
_VALID_EDGES: dict[tuple[bool, bool], tuple[EdgeType, ...]] = {
    (li, lj): tuple(e for e in EdgeType if edge_structurally_valid(e, li, lj))
    for li in (False, True)
    for lj in (False, True)
}


@lru_cache(maxsize=None)
def vertex_pairs(n_quantities: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n_quantities + 1), 2))


@lru_cache(maxsize=None)
def _pair_index(n_quantities: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(vertex_pairs(n_quantities))}


@dataclass(frozen=True)
class UnitDependencyGraph:
    """n+1 vertices with rate labels plus one EdgeType per vertex pair."""

    n_quantities: int
    rates: frozenset[int]
    edges: tuple[EdgeType, ...]  # aligned with vertex_pairs(n_quantities)

    def __post_init__(self):
        pairs = vertex_pairs(self.n_quantities)
        if len(self.edges) != len(pairs):
            raise UdgError(f"expected {len(pairs)} edges, got {len(self.edges)}")
        for v in self.rates:
            if not 0 <= v <= self.n_quantities:
                raise UdgError(f"rate vertex {v} out of range")
        rates = self.rates
        for (i, j), label in zip(pairs, self.edges):
            if label not in _VALID_EDGES[(i in rates, j in rates)]:
                if not isinstance(label, EdgeType):
                    raise UdgError(f"edge {label!r} between {i} and {j} is not an EdgeType")
                raise UdgError(f"edge {label.value} between {i} and {j} needs a rate source")

    @classmethod
    def from_edge_map(
        cls,
        n_quantities: int,
        rates: frozenset[int] | set[int],
        edge_map: Mapping[tuple[int, int], EdgeType],
    ) -> "UnitDependencyGraph":
        edges = tuple(
            edge_map.get(pair, EdgeType.NO_RELATION) for pair in vertex_pairs(n_quantities)
        )
        return cls(n_quantities, frozenset(rates), edges)

    @classmethod
    def from_labeling(
        cls, labeling: Sequence[bool], edges: tuple[EdgeType, ...]
    ) -> "UnitDependencyGraph":
        """The graph whose vertex v is a rate when ``labeling[v]`` holds."""
        rates = frozenset(itertools.compress(range(len(labeling)), labeling))
        return cls(len(labeling) - 1, rates, edges)

    def is_rate(self, v: int) -> bool:
        return v in self.rates

    def edge(self, i: int, j: int) -> EdgeType:
        if i > j:
            i, j = j, i
        return self.edges[_pair_index(self.n_quantities)[(i, j)]]

    @property
    def sort_key(self) -> tuple:
        labeling = tuple(v in self.rates for v in range(self.n_quantities + 1))
        return (labeling, tuple(EDGE_ORDER[e] for e in self.edges))

    def to_json_obj(self) -> dict:
        return {
            "rates": sorted(self.rates),
            "edges": [
                [i, j, label.value]
                for (i, j), label in zip(vertex_pairs(self.n_quantities), self.edges)
                if label is not EdgeType.NO_RELATION
            ],
        }

    @classmethod
    def from_json_obj(cls, n_quantities: int, obj: dict) -> "UnitDependencyGraph":
        rates = obj.get("rates", [])
        for v in rates:
            if isinstance(v, bool) or not isinstance(v, int):
                raise UdgError(f"rate vertex {v!r} is not a vertex index")
        edge_map = {}
        for i, j, label in obj.get("edges", []):
            if (i, j) not in _pair_index(n_quantities):
                raise UdgError(f"edge ({i}, {j}) is not a vertex pair i < j within 0..{n_quantities}")
            if (i, j) in edge_map:
                raise UdgError(f"edge ({i}, {j}) is given more than once")
            try:
                edge_map[(i, j)] = EdgeType(label)
            except ValueError:
                raise UdgError(f"edge ({i}, {j}) has unknown label {label!r}") from None
        return cls.from_edge_map(n_quantities, frozenset(rates), edge_map)


# ---------------------------------------------------------------------------
# tree paths

_RESULT, _OPERAND, _DIVIDEND, _DIVISOR = "result", "operand", "dividend", "divisor"


def _port(node: exprtree.Op, walk: list[tuple[exprtree.Op, bool]]) -> str:
    """How an endpoint attaches to ``node``: through a child, or from above."""
    for n, went_left in walk:
        if n is node:
            if base_op(node.op) == MUL:
                return _OPERAND
            dividend_is_left = not is_reversed(node.op)
            return _DIVIDEND if went_left == dividend_is_left else _DIVISOR
    return _RESULT


# rate port -> {other port -> Num/Den}: the three unit-consistent placements
_RATE_RULES: dict[tuple[str, str], dict[str, str]] = {
    (MUL, _OPERAND): {_OPERAND: "den", _RESULT: "num"},
    (DIV, _DIVISOR): {_DIVIDEND: "num", _RESULT: "den"},
    (DIV, _RESULT): {_DIVIDEND: "num", _DIVISOR: "den"},
}

_EDGE_FOR = {
    ("num", True): EdgeType.NUM_FWD,
    ("num", False): EdgeType.NUM_REV,
    ("den", True): EdgeType.DEN_FWD,
    ("den", False): EdgeType.DEN_REV,
}


@dataclass(frozen=True)
class _PathData:
    """One tree path and what it allows; ``determined[li][lj]`` and
    ``permitted[li][lj]`` answer for the pair's rate flags li and lj."""

    ops: tuple[str, ...]
    additive: bool  # no multiplicative node on the path
    determined: tuple[tuple[EdgeType | None, ...], ...]
    permitted: tuple[tuple[tuple[EdgeType, ...], ...], ...]


@lru_cache(maxsize=200_000)
def _path_data(tree: Expr, vi: int, vj: int | str) -> _PathData:
    try:
        walk_i = exprtree.root_path(tree, vi)
        walk_j = [] if vj == QUESTION else exprtree.root_path(tree, vj)
    except exprtree.ExprError as exc:
        raise UdgError(str(exc)) from exc
    k = 0
    while k < len(walk_i) and k < len(walk_j) and walk_i[k][0] is walk_j[k][0]:
        k += 1
    # from the lowest common node down both walks (the question's walk is empty)
    nodes = [n for n, _ in walk_i[max(k - 1, 0) :]] + [n for n, _ in walk_j[k:]]
    muldivs = [n for n in nodes if region(n.op) == MUL]

    def determined(li: bool, lj: bool) -> EdgeType | None:
        if li == lj:
            return None if muldivs else EdgeType.SAME_UNIT
        if len(muldivs) != 1:
            return None
        m = muldivs[0]
        rate_walk, other_walk = (walk_i, walk_j) if li else (walk_j, walk_i)
        rule = _RATE_RULES.get((base_op(m.op), _port(m, rate_walk)), {})
        kind = rule.get(_port(m, other_walk))
        return None if kind is None else _EDGE_FOR[(kind, li)]

    def permitted(li: bool, lj: bool) -> tuple[EdgeType, ...]:
        label = determined(li, lj)
        if label is not None:
            return (label,)
        # one multiplicative node always changes the unit
        one_muldiv = len(muldivs) == 1
        return tuple(e for e in _VALID_EDGES[(li, lj)] if not (one_muldiv and e is EdgeType.SAME_UNIT))

    flags = (False, True)
    return _PathData(
        ops=tuple(n.op for n in nodes),
        additive=not muldivs,
        determined=tuple(tuple(determined(li, lj) for lj in flags) for li in flags),
        permitted=tuple(tuple(permitted(li, lj) for lj in flags) for li in flags),
    )


def path(tree: Expr, vi: int | str, vj: int | str) -> frozenset[str]:
    """Operations on the tree path between two distinct vertices.

    For two quantities this is the leaf-to-leaf path; with the question it is
    the leaf-to-root path. Symmetric in its arguments; raises if a quantity
    vertex is unused in the tree.
    """
    if vi == vj:
        raise UdgError(f"path needs two distinct vertices, got {vi!r} twice")
    if vi == QUESTION:
        vi, vj = vj, vi
    return frozenset(_path_data(tree, vi, vj).ops)


# ---------------------------------------------------------------------------
# edge labeling (tree-determined edges)

def _pair_record(tree: Expr, vi: int, vj: int, n: int) -> _PathData:
    if not 0 <= vi < vj <= n:
        raise UdgError(f"need vertex pair vi < vj within 0..{n}, got ({vi}, {vj})")
    return _path_data(tree, vi, QUESTION if vj == n else vj)


def edge_label(
    tree: Expr, vi: int, vj: int, vlabels: Sequence[bool]
) -> EdgeType | None:
    """Tree-determined edge between vertices vi < vj, or None when no label
    is forced.

    ``vlabels`` maps every vertex (index n = question) to its rate flag. Same
    labels across a purely additive path force SameUnit; one rate across a
    single multiplicative node forces the Num/Den edge given by the rate's
    placement (see module docstring). Anything else is undetermined.
    """
    record = _pair_record(tree, vi, vj, len(vlabels) - 1)
    return record.determined[bool(vlabels[vi])][bool(vlabels[vj])]


def permitted_edge_labels(
    tree: Expr, vi: int, vj: int, vlabels: Sequence[bool]
) -> tuple[EdgeType, ...]:
    """Labels a tree-consistent graph may carry between defined vertices.

    A determined pair admits exactly its determined label. An undetermined
    pair admits every structurally valid label, except that SameUnit is
    excluded when the path crosses exactly one multiplicative node (a single
    multiplication or division always changes the unit).
    """
    record = _pair_record(tree, vi, vj, len(vlabels) - 1)
    return record.permitted[bool(vlabels[vi])][bool(vlabels[vj])]


# ---------------------------------------------------------------------------
# consistency

@dataclass(frozen=True)
class ConsistencyResult:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=4096)
def _consistency_checks(
    tree: Expr, n: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int, tuple], ...]]:
    """What ``is_consistent`` checks of a tree over n quantities: its used
    leaves that reach the root through +/- alone, in index order, and for
    each pair the tree defines, in ``vertex_pairs(n)`` order, the pair's
    index there, its two vertices and its permitted labels by rate flags."""
    used = exprtree.used_indices(tree)
    if used and max(used) >= n:
        raise UdgError(f"tree uses quantity {max(used)} but graph has {n} quantities")
    additive = tuple(leaf for leaf in sorted(used) if _path_data(tree, leaf, QUESTION).additive)
    pairs = tuple(
        (k, i, j, _path_data(tree, i, QUESTION if j == n else j).permitted)
        for k, (i, j) in enumerate(vertex_pairs(n))
        if i in used and (j == n or j in used)
    )
    return additive, pairs


def is_consistent(graph: UnitDependencyGraph, tree: Expr) -> ConsistencyResult:
    """Check the three graph/tree consistency conditions.

    1. If the question is a rate, every used leaf reaching the root through
       additions and subtractions alone must itself be a rate (a purely
       additive path hands the leaf's unit to the answer).
    2. Symmetrically, when the question is not a rate, no rate-labeled leaf
       may reach the root through additions and subtractions alone.
    3. Every pair with a tree-determined edge label must carry exactly that
       label. Pairs involving quantities absent from the tree (and pairs
       whose label is undetermined) are unconstrained.
    """
    n = graph.n_quantities
    additive, pairs = _consistency_checks(tree, n)
    rates, edges = graph.rates, graph.edges
    violations = []

    question_rate = n in rates
    for leaf in additive:
        if (leaf in rates) != question_rate:
            if question_rate:
                violations.append(
                    f"condition 1: non-rate leaf {leaf} reaches the rate question "
                    f"via only +/-"
                )
            else:
                violations.append(
                    f"condition 2: rate vertex {leaf} reaches the root via only +/-"
                )
    for k, i, j, permitted in pairs:
        label = edges[k]
        allowed = permitted[i in rates][j in rates]
        if label not in allowed:
            # _value_ is what Enum.value returns, read without its descriptor
            # (a dict keyed by the label would pay Enum.__hash__ instead)
            if len(allowed) == 1:
                detail = f"must be {allowed[0]._value_}"
            else:
                detail = "cannot be SameUnit across one multiplicative node"
            violations.append(
                f"condition 3: edge ({i}, {j}) {detail}, graph has {label._value_}"
            )
    return ConsistencyResult(ok=not violations, violations=tuple(violations))


def valid_edge_choices(labeling: Sequence[bool]) -> tuple[tuple[EdgeType, ...], ...]:
    """Structurally valid labels of every pair in
    ``vertex_pairs(len(labeling) - 1)``, for a graph bound by no tree.

    A prefix of a labeling gets the choices of the pairs among its vertices.
    """
    return tuple(
        _VALID_EDGES[(labeling[i], labeling[j])] for i, j in vertex_pairs(len(labeling) - 1)
    )


def consistent_edge_choices(
    tree: Expr, n: int
) -> Iterator[tuple[tuple[bool, ...], tuple[tuple[EdgeType, ...], ...]]]:
    """Yield (labeling, per-pair label choices) for every vertex labeling
    that meets consistency conditions 1 and 2 for the tree.

    Labelings come lexicographically (not-rate first). Pairs the tree defines
    (both endpoints used, or a used quantity and the question) get
    ``permitted_edge_labels``; every other pair gets its structurally valid
    labels. The graphs consistent with the tree under a labeling are exactly
    the product of its choices, in ``vertex_pairs(n)`` order.

    The additive leaves and the defined pairs' permitted tables come from
    the record ``is_consistent`` reads (``_consistency_checks``), so the
    tree is hashed once per call rather than once per pair and labeling.
    """
    additive, defined = _consistency_checks(tree, n)
    pairs = vertex_pairs(n)
    for labeling in itertools.product((False, True), repeat=n + 1):
        if any(labeling[leaf] != labeling[n] for leaf in additive):
            continue
        choices = [_VALID_EDGES[(labeling[i], labeling[j])] for i, j in pairs]
        for k, i, j, permitted in defined:
            choices[k] = permitted[labeling[i]][labeling[j]]
        yield labeling, tuple(choices)


def enumerate_consistent_udgs(tree: Expr, n: int) -> Iterator[UnitDependencyGraph]:
    """Yield every graph over n quantities consistent with the tree.

    Determined edges are forced to their tree label; undetermined edges range
    over all six labels subject to structural validity. Deterministic order:
    vertex labelings lexicographically (not-rate first), then free edges in
    pair order by EdgeType declaration order.
    """
    for labeling, choices in consistent_edge_choices(tree, n):
        for combo in itertools.product(*choices):
            yield UnitDependencyGraph.from_labeling(labeling, combo)
