"""Constrained inference over classifier scores.

Three entry points: standalone graph prediction (scaled vertex scores of
rate vertices plus scaled edge scores), expression tree scoring (scaled
relevance of unused quantities plus LCA-operation scores over used pairs),
and joint two-stage beam search over (graph, tree) tuples where the graph
must be consistent with the tree.

A problem's scores are positional (``ScoreTables``): one tuple of int
numerators per classifier, query by query in a fixed order, each query's
labels in a fixed order, so the searches read the rows as they are.

Both graph searches pick a vertex labeling and give each pair its best
permitted label. ``udg`` says which labels a pair may carry (with or without
a tree), and a pair's options are positions in the edge row: a pick
(``_Picks``) is a ``max`` over them, which keeps the first of equal labels.
The labelings bound by no tree are one table per n (``_labelings``), scored
once per problem into parallel lists of vertex sums and best-edge sums
(``_GraphRows``), from which ``predict_udg_from_tables`` takes the
standalone prediction; a tree's consistent ones are listed once per tree
(``_consistent``) and summed when a search first reaches the tree. Sums,
ties and graphs are those of a scan per labeling; the sums of each pair's
first label, which a zero edge scale reads, are summed on first use, and a
labeling's edges only for a graph a search returns.

The joint search is one ``JointCandidates`` per problem, holding no scale.
Every candidate tree is scored up front off one table per n (``_candidates``:
each candidate's subset, each subset's unused quantities and LCA row
positions): a candidate's LCA sum reads its plan's ``op_positions`` in its
subset's LCA scores, shared by every plan placed on the subset. Each solve
pops the trees best-first under its own ``lambda_rel``, ties by
``exprtree.search_order``; only a popped tree is evaluated and built, and
none is serialized. ``solve`` is branch and
bound over the graph stage: trees are visited best tree score first, and
the visit stops at the first tree whose best unconstrained graph cannot
reach the incumbent total, so answers equal the exhaustive scan of
``top_k``.

Every score is an int numerator over its classifier's denominator
(``ScoreTables``). Every term sum (a labeling's vertex and edge sums, a
subset's relevance sum, a candidate's LCA sum) adds one classifier's
numerators exactly and becomes a float once, by one int division, which
rounds correctly, so it is the same in any order and on every Python
version; a sum past the largest float raises OverflowError. Totals combine the four term sums as
``lambda_rel*rel + lca + lambda_vertex*vertex + lambda_edge*edge``.

All scoring runs off immutable ScoreTables, so tests can drive inference
from hand-set mock tables. A ``JointCandidates`` is not: it memoizes its last
ranking, each popped tree, its labelings and their edge picks on itself, so
one search must not be shared between threads.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import exprtree, learn, udg
from .corpus import Problem
from .exprtree import Expr
from .learn import IRRELEVANT, RATE, ClassifierSuite
from .udg import EdgeType, UnitDependencyGraph

LAMBDA_GRID = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

ANSWER_TOLERANCE = Fraction(1, 10**9)


class InferenceError(RuntimeError):
    """No admissible candidate exists for a problem."""


@dataclass(frozen=True)
class ScalingParams:
    """Scale factors for the score terms; zeroing vertex and edge scales
    reduces joint inference to the base tree solver."""

    lambda_rel: float = 1.0
    lambda_vertex: float = 1.0
    lambda_edge: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{f.name} must be finite and >= 0, got {value}")


#: Each classifier's labels in a score row, in ``learn.PARTS`` order; the
#: edge labels as ``EdgeType``s.
_ROW_LABELS = (learn.VERTEX_LABELS, tuple(EdgeType), learn.RELEVANCE_LABELS, exprtree.OPS)
#: A vertex's rate score and a quantity's irrelevance score within their rows.
_RATE = learn.VERTEX_LABELS.index(RATE)
_IRRELEVANT = learn.RELEVANCE_LABELS.index(IRRELEVANT)


@lru_cache(maxsize=exprtree.MAX_ENUM_LEAVES + 2)
def _positions(n: int) -> tuple[dict[tuple, int], ...]:
    """Each classifier's query keys over n quantities, (vertex, label), (i,
    j, ``EdgeType``), (quantity, label) and (i, j, operation), with their
    positions in its ``ScoreTables`` row."""
    queries = (
        [(v,) for v in range(n + 1)],
        udg.vertex_pairs(n),
        [(q,) for q in range(n)],
        list(itertools.combinations(range(n), 2)),
    )
    return tuple(
        {(*query, label): k for k, (query, label) in enumerate(itertools.product(qs, labels))}
        for qs, labels in zip(queries, _ROW_LABELS)
    )


def _rows_from_mappings(
    n: int, tables: Sequence[Mapping], denominators: tuple[int, ...] | None
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Hand-set scores, one mapping per classifier keyed as ``_positions(n)``
    (absent keys score 0), as ``ScoreTables`` rows of int numerators, and
    their denominators. Each score stands over its classifier's denominator
    (1 when ``denominators`` is None) and is taken as its exact ratio
    (``learn.as_numerators``). A key that names no query over n quantities
    raises ValueError."""
    rows, exact = [], []
    for (part, _), table, keys, denominator in zip(learn.PARTS, tables, _positions(n), denominators or (1,) * 4):
        if not isinstance(table, Mapping):
            raise ValueError(f"{part} scores must all be mappings or all tuples, got {type(table).__name__}")
        (table,), denominator = learn.as_numerators([table], denominator)
        row = [0] * len(keys)
        for key, score in table.items():
            position = keys.get(key)
            if position is None:
                raise ValueError(f"{part} score key {key!r} names no query over {n} quantities")
            row[position] = score
        rows.append(tuple(row))
        exact.append(denominator)
    return tuple(rows), tuple(exact)


@dataclass(frozen=True)
class ScoreTables:
    """Raw classifier scores for one problem, in one fixed layout.

    Each classifier's scores are one tuple of int numerators over its
    denominator (``denominators``, in ``learn.PARTS`` order: vertex, edge,
    relevance, LCA), query by query, and within a query label by label:

    - vertex: each vertex 0..n (n is the question) × ``learn.VERTEX_LABELS``;
    - edge: each pair of ``udg.vertex_pairs(n)`` × ``EdgeType``;
    - relevance: each quantity 0..n-1 × ``learn.RELEVANCE_LABELS``;
    - LCA: each pair of ``combinations(range(n), 2)`` × ``exprtree.OPS``.

    ``build_score_tables`` gives these rows, and tuples must have their
    layout's lengths and come with their denominators. Hand-set tables, as
    tests and library users write them, give a mapping per classifier from
    (query, label) keys (``(v, label)``, ``(i, j, EdgeType)``, ``(q,
    label)``, ``(i, j, op)``) to scores, and absent keys score 0; they are
    converted once (``_rows_from_mappings``), each score taken as its exact
    ratio over the denominator given (1 without one), and a key that names
    no query raises ValueError. Denominators other than a tuple of four ints
    >= 1 raise ValueError; the scores of tuples are not checked one by one.

    The accessors give a query's numerator; a query outside the layout
    raises KeyError."""

    n_quantities: int
    vertex: tuple[int, ...]
    edge: tuple[int, ...]
    relevance: tuple[int, ...]
    lca: tuple[int, ...]
    denominators: tuple[int, int, int, int] | None = None

    def __post_init__(self):
        n, denominators = self.n_quantities, self.denominators
        if denominators is not None and (
            type(denominators) is not tuple
            or len(denominators) != len(learn.PARTS)
            or not all(type(d) is int and d >= 1 for d in denominators)
        ):
            raise ValueError(f"denominators must be a tuple of {len(learn.PARTS)} ints >= 1, got {denominators!r}")
        parts = (self.vertex, self.edge, self.relevance, self.lca)
        if not all(type(part) is tuple for part in parts):
            rows, denominators = _rows_from_mappings(n, parts, denominators)
            for (part, _), row in zip(learn.PARTS, rows):
                object.__setattr__(self, part, row)
            object.__setattr__(self, "denominators", denominators)
        elif denominators is None:
            raise ValueError("score rows need their denominators")
        elif tuple(map(len, parts)) != tuple(map(len, _positions(n))):
            raise ValueError(f"score rows of lengths {tuple(map(len, parts))} do not fit {n} quantities")

    def vertex_score(self, v: int, label: str) -> int:
        return self.vertex[_positions(self.n_quantities)[0][v, label]]

    def edge_score(self, i: int, j: int, label: EdgeType) -> int:
        return self.edge[_positions(self.n_quantities)[1][i, j, label]]

    def relevance_score(self, q: int, label: str) -> int:
        return self.relevance[_positions(self.n_quantities)[2][q, label]]

    def lca_score(self, i: int, j: int, op: str) -> int:
        return self.lca[_positions(self.n_quantities)[3][i, j, op]]


def build_score_tables(problem: Problem, suite: ClassifierSuite) -> ScoreTables:
    """Score every inference query once, off one feature pass.

    ``learn.problem_features`` computes each vertex's features and unit
    once, and the suite's ``learn.InferenceTable`` looks each vertex's names
    up once for all six roles it is scored in (vertex, edge first and
    second, relevance, LCA first and second) and sums their packed
    numerators' low digits, every role and label at once, in one int sum,
    adding the rest of any wider numerator apart, so each sum is exact. Every
    score is the int numerator ``LinearModel.scores`` gives for the query's
    assembled vector, over its model's denominator. The table gives them in
    the ``ScoreTables`` layout, so each row is its queries' scores joined.

    LCA scores are shifted per pair so the pair's best operation scores zero
    and every other operation is negative (the margin analogue of a log
    probability). A tree then pays for each pair whose operation disagrees
    with the classifier and gains nothing from merely covering more pairs.
    Vertex and relevance scores are raw (their two-label weight tables are
    exact mirrors, so shifts would not change decisions), and edge scores are
    raw (every graph labels every pair, so per-pair shifts cancel).
    """
    table = suite.inference_table()
    vertex, edge, relevance, lca = table.scores(learn.problem_features(problem, suite.config))
    flat = itertools.chain.from_iterable
    shifted = flat([s - top for s in scores] for scores, top in zip(lca, map(max, lca)))
    return ScoreTables(
        problem.n, tuple(flat(vertex)), tuple(flat(edge)), tuple(flat(relevance)), tuple(shifted), table.denominators
    )


# ---------------------------------------------------------------------------
# term sums

def tree_term_sums(tree: Expr, tables: ScoreTables) -> tuple[float, float]:
    """(irrelevance sum over unused quantities, LCA sum over used pairs),
    each exact and rounded once."""
    used = exprtree.used_indices(tree)
    _, _, rel_denominator, lca_denominator = tables.denominators
    unused = (tables.relevance_score(q, IRRELEVANT) for q in range(tables.n_quantities) if q not in used)
    pairs = itertools.combinations(sorted(used), 2)
    lca = (tables.lca_score(i, j, exprtree.op_lca(tree, i, j)) for i, j in pairs)
    return sum(unused) / rel_denominator, sum(lca) / lca_denominator


def graph_term_sums(graph: UnitDependencyGraph, tables: ScoreTables) -> tuple[float, float]:
    """(vertex sum over rate-labeled vertices, edge sum over all pairs),
    each exact and rounded once."""
    vertex_denominator, edge_denominator, _, _ = tables.denominators
    rates = (tables.vertex_score(v, RATE) for v in range(graph.n_quantities + 1) if graph.is_rate(v))
    pairs = zip(udg.vertex_pairs(graph.n_quantities), graph.edges)
    edges = (tables.edge_score(i, j, label) for (i, j), label in pairs)
    return sum(rates) / vertex_denominator, sum(edges) / edge_denominator


def score_tree(tree: Expr, tables: ScoreTables, params: ScalingParams) -> float:
    rel_sum, lca_sum = tree_term_sums(tree, tables)
    return params.lambda_rel * rel_sum + lca_sum


def score_udg(graph: UnitDependencyGraph, tables: ScoreTables, params: ScalingParams) -> float:
    """Scaled rate-vertex scores plus scaled edge scores; not-rate vertices
    contribute nothing."""
    vertex_sum, edge_sum = graph_term_sums(graph, tables)
    return params.lambda_vertex * vertex_sum + params.lambda_edge * edge_sum


def values_match(predicted: Fraction, gold: Fraction) -> bool:
    return abs(Fraction(predicted) - Fraction(gold)) <= ANSWER_TOLERANCE


# ---------------------------------------------------------------------------
# labeling rows

#: A problem's edge row holds every pair's score under each label, pair by
#: pair in ``vertex_pairs`` order: position p is pair p // 6 under
#: ``_EDGE_TYPES[p % 6]``.
_EDGE_TYPES = tuple(EdgeType)


def _edges(positions: Iterable[int]) -> tuple[EdgeType, ...]:
    """The labels at edge row ``positions``, one per pair: a graph's edges."""
    return tuple([_EDGE_TYPES[p % len(_EDGE_TYPES)] for p in positions])


class _Picks(dict):
    """A problem's edge ``row`` of numerators over ``denominator``, and the
    best row position of each pair's options (row positions), picked on
    first use: ``best`` is a ``max`` over the options, which keeps the
    earlier of equal labels."""

    def __init__(self, row: Sequence[int], denominator: int):
        self.row, self.denominator, self.best = row, denominator, partial(max, key=row.__getitem__)

    def __missing__(self, options: tuple[int, ...]) -> int:
        best = self[options] = self.best(options)
        return best

    def sums(self, labelings: Iterable[Iterable[int]]) -> list[float]:
        """Each labeling's edge sum: its row positions' numerators added,
        over the denominator."""
        get, denominator = self.row.__getitem__, self.denominator
        return [sum(map(get, positions)) / denominator for positions in labelings]


def _options(choices: Sequence[Sequence[EdgeType]]) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Each pair's label ``choices``, in ``vertex_pairs`` order, as edge row
    positions, and each pair's first position."""
    width = len(_EDGE_TYPES)
    options = tuple([tuple([k * width + udg.EDGE_ORDER[e] for e in labels]) for k, labels in enumerate(choices)])
    return options, tuple([o[0] for o in options])


class _Labelings(NamedTuple):
    """Every vertex labeling over n quantities, lexicographically (not-rate
    first), in parallel tuples, with the structurally valid labels of a
    graph bound by no tree."""

    labelings: tuple[tuple[bool, ...], ...]
    #: each labeling's pair options, pair by pair, as indices in ``distinct``
    ids: tuple[tuple[int, ...], ...]
    #: each labeling's first option of each pair, as edge row positions
    first: tuple[tuple[int, ...], ...]
    #: every distinct pair options of the labelings, as edge row positions
    distinct: tuple[tuple[int, ...], ...]
    #: each labeling's index
    index: dict[tuple[bool, ...], int]


@lru_cache(maxsize=exprtree.MAX_ENUM_LEAVES)
def _labelings(n: int) -> _Labelings:
    """The ``_Labelings`` over n quantities, built once per n."""
    distinct: dict[tuple[int, ...], int] = {}
    labelings, ids, firsts = [], [], []
    for labeling in itertools.product((False, True), repeat=n + 1):
        options, first = _options(udg.valid_edge_choices(labeling))
        labelings.append(labeling)
        ids.append(tuple([distinct.setdefault(o, len(distinct)) for o in options]))
        firsts.append(first)
    index = {labeling: k for k, labeling in enumerate(labelings)}
    return _Labelings(tuple(labelings), tuple(ids), tuple(firsts), tuple(distinct), index)


class _GraphRows:
    """A problem's vertex labelings (``_labelings``) scored once for graphs
    bound by no tree, in parallel lists: each labeling's vertex sum and the
    edge sum of each pair's best permitted label, where each distinct pair
    options is picked once (``best``). The sums of each pair's first label,
    which a zero edge scale reads, are summed on first use, and a
    labeling's edges only for a graph a search returns. ``picks`` memoizes
    the best position of other options, those of a tree's consistent
    labelings."""

    def __init__(self, tables: ScoreTables):
        self.table = table = _labelings(tables.n_quantities)
        vertex_denominator, edge_denominator, _, _ = tables.denominators
        self.picks = picks = _Picks(tables.edge, edge_denominator)
        self.best = list(map(picks.best, table.distinct))
        scores = list(map(tables.edge.__getitem__, self.best))
        # the labelings run vertex 0 slowest, so each vertex doubles the list
        # of rate sums, not-rate first; int sums are exact in any order
        rates = [0]
        for rate in tables.vertex[_RATE :: len(learn.VERTEX_LABELS)]:
            rates = [s + r for s in rates for r in (0, rate)]
        self.vertex_sums = [s / vertex_denominator for s in rates]
        self.edge_sums = [sum(map(scores.__getitem__, ids)) / edge_denominator for ids in table.ids]
        self._first_sums: list[float] | None = None

    def sums(self, params: ScalingParams) -> list[float]:
        """Each labeling's edge sum of its best graph under ``params``. With
        a zero edge scale every label ties, so each pair's first is taken."""
        if params.lambda_edge > 0:
            return self.edge_sums
        if self._first_sums is None:
            self._first_sums = self.picks.sums(self.table.first)
        return self._first_sums

    def graph(self, k: int, params: ScalingParams) -> UnitDependencyGraph:
        """Labeling ``k``'s best graph under ``params``, as ``sums`` picks it."""
        table = self.table
        positions = map(self.best.__getitem__, table.ids[k]) if params.lambda_edge > 0 else table.first[k]
        return UnitDependencyGraph.from_labeling(table.labelings[k], _edges(positions))

    def best_graph(self, params: ScalingParams) -> UnitDependencyGraph:
        """The best graph under ``params``; ties go to the earliest labeling."""
        lambda_vertex, lambda_edge = params.lambda_vertex, params.lambda_edge
        scores = [lambda_vertex * v + lambda_edge * e for v, e in zip(self.vertex_sums, self.sums(params))]
        return self.graph(max(range(len(scores)), key=scores.__getitem__), params)  # first of equal scores


def _unconstrained_rows(tables: ScoreTables) -> _GraphRows:
    """The problem's labelings scored for graphs bound by no tree.

    There are 2^(n+1) labelings, so more quantities than a candidate tree
    may cover (``exprtree.MAX_ENUM_LEAVES``) are refused."""
    n = tables.n_quantities
    if n > exprtree.MAX_ENUM_LEAVES:
        raise InferenceError(
            f"refusing to label graphs over {n} quantities (max {exprtree.MAX_ENUM_LEAVES})"
        )
    return _GraphRows(tables)


# ---------------------------------------------------------------------------
# standalone graph prediction

def predict_udg_from_tables(tables: ScoreTables, params: ScalingParams) -> UnitDependencyGraph:
    """Argmax of score_udg over structurally valid graphs, exhaustive over
    vertex labelings; ties break toward the lexicographically smallest
    encoding. More than ``exprtree.MAX_ENUM_LEAVES`` quantities raise
    InferenceError."""
    return _unconstrained_rows(tables).best_graph(params)


def predict_udg(
    problem: Problem, suite: ClassifierSuite, params: ScalingParams | None = None
) -> UnitDependencyGraph:
    return predict_udg_from_tables(build_score_tables(problem, suite), params or ScalingParams())


# ---------------------------------------------------------------------------
# joint inference

@dataclass(frozen=True)
class ScoredTuple:
    """A consistent (tree, graph) pair with its score and raw term sums.

    score == lambda_rel*rel_sum + lca_sum + lambda_vertex*vertex_sum
    + lambda_edge*edge_sum under the params used to produce it."""

    tree: Expr
    graph: UnitDependencyGraph
    value: Fraction
    score: float
    rel_sum: float
    lca_sum: float
    vertex_sum: float
    edge_sum: float
    params: ScalingParams

    def breakdown(self) -> dict[str, float]:
        return {
            "rel_term": self.params.lambda_rel * self.rel_sum,
            "lca_term": self.lca_sum,
            "vertex_term": self.params.lambda_vertex * self.vertex_sum,
            "edge_term": self.params.lambda_edge * self.edge_sum,
        }


@dataclass(eq=False)
class _TreeEntry:
    """One candidate tree the search popped: a compiled structure placed on a
    quantity subset, built, with its position in ``exprtree.search_order``,
    its exact value and term sums."""

    index: int
    tree: Expr
    value: Fraction
    rel_sum: float
    lca_sum: float
    # the tree's consistent labelings (``_consistent``) and their best-edge
    # sums, when a search first reaches it; their first labels' sums when a
    # zero edge scale first reads them
    consistent: tuple[tuple[int, tuple, tuple[int, ...]], ...] | None = None
    edge_sums: list[float] | None = None
    first_sums: list[float] | None = None

    def base(self, lambda_rel: float) -> float:
        return lambda_rel * self.rel_sum + self.lca_sum

    def sums(self, params: ScalingParams, picks: _Picks) -> list[float]:
        """Each ``consistent`` labeling's edge sum of its best graph under
        ``params``, off the problem's ``picks``: each pair's first label
        under a zero edge scale, as ``_GraphRows.sums``."""
        if params.lambda_edge > 0:
            if self.edge_sums is None:
                self.edge_sums = picks.sums(map(picks.__getitem__, options) for _, options, _ in self.consistent)
            return self.edge_sums
        if self.first_sums is None:
            self.first_sums = picks.sums(first for _, _, first in self.consistent)
        return self.first_sums


@lru_cache(maxsize=exprtree.MAX_ENUM_LEAVES)
def _candidates(n: int) -> tuple[tuple, bytes, tuple, tuple]:
    """``exprtree.search_order(n)``; each candidate's subset id; and each
    subset's unused quantities, and the LCA row positions of its pairs'
    operations, pair by pair in ``combinations`` order, so a plan's
    ``op_positions`` index them."""
    order = exprtree.search_order(n)
    ids: dict[tuple[int, ...], int] = {}
    subset_ids = bytes(ids.setdefault(subset, len(ids)) for subset, _ in order)  # at most 63 subsets
    width = len(exprtree.OPS)
    pair_ids = {pair: k for k, pair in enumerate(itertools.combinations(range(n), 2))}
    unused = tuple(tuple(q for q in range(n) if q not in subset) for subset in ids)
    positions = tuple(
        tuple(pair_ids[pair] * width + op for pair in itertools.combinations(subset, 2) for op in range(width))
        for subset in ids
    )
    return order, subset_ids, unused, positions


# trees recur across problems (a benchmark pass pops 10-32 distinct ones); an
# entry is about 6 KB at n=3 and 67 KB at n=5, so memory sets the bound
@lru_cache(maxsize=64)
def _consistent(tree: Expr, n: int) -> tuple[tuple[int, tuple, tuple[int, ...]], ...]:
    """Each labeling consistent with the tree (``udg.consistent_edge_choices``):
    its index in ``_labelings(n)`` and the ``_options`` of its choices."""
    index = _labelings(n).index
    return tuple(
        (index[labeling], *_options(choices)) for labeling, choices in udg.consistent_edge_choices(tree, n)
    )


def check_beam(beam) -> None:
    """Raise ValueError unless ``beam`` is None (no cut) or an int >= 1."""
    if beam is not None and (isinstance(beam, bool) or not isinstance(beam, int) or beam < 1):
        raise ValueError(f"beam must be None or an int >= 1, got {beam!r}")


class JointCandidates:
    """One problem's joint search, best-first over trees and lazy in both
    stages.

    No scale is fixed here. Construction scores every placed plan
    (``exprtree.search_order``) with the term sums of ``tree_term_sums``,
    but evaluates and builds no tree.
    The unconstrained labelings are scored once too (``_GraphRows``), and
    ``best_graph`` takes the standalone graph prediction from them. A
    ``beam`` other than None or an int >= 1 raises ValueError.

    Under a ``lambda_rel``, candidates pop from a heap keyed by (negated
    tree score, candidate index), and a popped tree is evaluated: one that
    divides by zero or is not positive is dropped, and popping stops at
    ``beam`` valid trees. Indices run in (nodes, serial) order, so that is
    the order and cut of sorting the valid trees by (score, nodes, serial).
    The popped prefix of the last ``lambda_rel`` is kept, and each popped
    tree (value, tree, consistent labelings) for every ``lambda_rel``. With
    no tree of positive value, the first ``solve``, ``top_k`` or ``ranked``
    raises InferenceError.

    ``solve`` bounds each tree by its tree score plus the best graph over
    all structurally valid (unconstrained) labelings. A consistent
    labeling's per-pair options are a subset of its valid ones, its edge
    sum is exact before its one rounding, and float rounding is monotone,
    so no total of the tree exceeds the bound; the
    bound never rises along the visit order, so the search stops at the
    first tree bounded strictly below the incumbent. That test reads the
    next heap key's score, before the tree is built: it bounds every valid
    tree left in the heap, so no tree is built that the search does not
    visit, except the invalid ones it pops on the way. ``top_k`` scans
    every kept tree."""

    def __init__(self, tables: ScoreTables, values: Sequence[Fraction], beam: int | None = 200):
        check_beam(beam)
        if len(values) != tables.n_quantities:
            raise InferenceError("value list does not match score tables")
        self.tables = tables
        self.values = tuple(values)
        self.beam = beam
        self._order, subset_ids, unused, positions = _candidates(tables.n_quantities)
        _, _, rel_denominator, lca_denominator = tables.denominators
        irrelevant = tables.relevance[_IRRELEVANT :: len(learn.RELEVANCE_LABELS)]
        # per subset: its rel_sum, and its pairs' LCA scores, read by a plan's op_positions
        rel_sums = [sum(map(irrelevant.__getitem__, qs)) / rel_denominator for qs in unused]
        lca_rows = [list(map(tables.lca.__getitem__, ps)).__getitem__ for ps in positions]
        # per candidate, in search order; two lists, not a pair per candidate
        # (n=6 places about 1.3 M candidates)
        self._rel_sums = [rel_sums[s] for s in subset_ids]
        self._lca_sums = [
            sum(map(lca_rows[s], plan.op_positions)) / lca_denominator
            for s, (_, plan) in zip(subset_ids, self._order)
        ]
        self._graphs = _unconstrained_rows(tables)
        # popped candidates by index, None for one that is not valid
        self._entries: dict[int, _TreeEntry | None] = {}
        # (lambda_rel, the heap left, the valid trees popped)
        self._ranking: tuple[float, list, list[_TreeEntry]] | None = None

    def _entry(self, index: int) -> _TreeEntry | None:
        """Candidate ``index`` built and evaluated, once: None if it divides
        by zero or is not positive."""
        if index not in self._entries:
            subset, plan = self._order[index]
            tree = plan.tree(subset)
            try:
                value = exprtree.evaluate(tree, self.values)
            except exprtree.EvaluationError:
                value = 0
            self._entries[index] = (
                _TreeEntry(index, tree, value, self._rel_sums[index], self._lca_sums[index])
                if value > 0 else None
            )
        return self._entries[index]

    def _popped(
        self, lambda_rel: float, reach: Callable[[float], bool] | None = None
    ) -> Iterator[_TreeEntry]:
        """The ``beam`` best valid trees under ``lambda_rel``, best first,
        each popped only when the iteration reaches it. With ``reach``, the
        iteration stops at the first tree whose tree score ``reach``
        refuses; a candidate not popped yet is tested by its heap key,
        before it is built."""
        if self._ranking is None or self._ranking[0] != lambda_rel:
            heap = [
                (-(lambda_rel * rel_sum + lca_sum), index)
                for index, (rel_sum, lca_sum) in enumerate(zip(self._rel_sums, self._lca_sums))
            ]
            heapq.heapify(heap)
            self._ranking = (lambda_rel, heap, [])
        _, heap, kept = self._ranking
        k = 0
        while True:
            if k < len(kept):
                if reach is not None and not reach(kept[k].base(lambda_rel)):
                    return
            else:
                if len(kept) == self.beam:
                    return
                if not heap:
                    if not kept:
                        raise InferenceError("no candidate expression trees with a positive value")
                    return
                if reach is not None and not reach(-heap[0][0]):
                    return
                entry = self._entry(heapq.heappop(heap)[1])
                if entry is None:
                    continue
                kept.append(entry)
            yield kept[k]
            k += 1

    def ranked(self, lambda_rel: float) -> tuple[_TreeEntry, ...]:
        """The ``beam`` best trees under ``lambda_rel``, best first; equal
        tree scores keep the earlier candidate in ``exprtree.search_order``."""
        return tuple(self._popped(lambda_rel))

    def best_graph(self, params: ScalingParams) -> UnitDependencyGraph:
        """``predict_udg_from_tables(tables, params)``, off the labelings
        scored once here."""
        return self._graphs.best_graph(params)

    def _tree_candidates(
        self, entry: _TreeEntry, params: ScalingParams
    ) -> Iterator[tuple[tuple, _TreeEntry, int]]:
        """(key, tree, position in ``entry.consistent``) per consistent
        labeling of the tree. Keys differ before any edge: candidate indices
        differ, and a tree has one entry per labeling."""
        if entry.consistent is None:
            entry.consistent = _consistent(entry.tree, self.tables.n_quantities)
        graphs = self._graphs
        vertex_sums, labelings = graphs.vertex_sums, graphs.table.labelings
        base = entry.base(params.lambda_rel)
        lambda_vertex, lambda_edge = params.lambda_vertex, params.lambda_edge
        for j, ((k, _, _), esum) in enumerate(zip(entry.consistent, entry.sums(params, graphs.picks))):
            total = base + lambda_vertex * vertex_sums[k] + lambda_edge * esum
            yield (-total, entry.index, labelings[k]), entry, j

    def solve(self, params: ScalingParams) -> ScoredTuple:
        lambda_vertex, lambda_edge = params.lambda_vertex, params.lambda_edge
        graphs = self._graphs
        graph_terms = [(lambda_vertex * v, lambda_edge * e) for v, e in zip(graphs.vertex_sums, graphs.sums(params))]
        best = None

        def reach(base: float) -> bool:
            # same float expression as a candidate's total; a tie may still
            # win on the tie-break key, so only a strict miss stops
            return best is None or not max(base + v + e for v, e in graph_terms) < -best[0][0]

        for entry in self._popped(params.lambda_rel, reach):
            for cand in self._tree_candidates(entry, params):
                if best is None or cand[0] < best[0]:
                    best = cand
        if best is None:
            raise InferenceError("no consistent (graph, tree) tuple exists")
        return self._build(best, params)

    def top_k(self, params: ScalingParams, k: int) -> list[ScoredTuple]:
        ranked = sorted(
            (
                c
                for entry in self.ranked(params.lambda_rel)
                for c in self._tree_candidates(entry, params)
            ),
            key=lambda c: c[0],
        )
        return [self._build(c, params) for c in ranked[:k]]

    def _build(self, cand, params: ScalingParams) -> ScoredTuple:
        key, entry, j = cand
        k, options, first = entry.consistent[j]
        graphs = self._graphs
        positions = map(graphs.picks.__getitem__, options) if params.lambda_edge > 0 else first
        return ScoredTuple(
            tree=entry.tree,
            graph=UnitDependencyGraph.from_labeling(key[2], _edges(positions)),
            value=entry.value,
            score=-key[0],
            rel_sum=entry.rel_sum,
            lca_sum=entry.lca_sum,
            vertex_sum=graphs.vertex_sums[k],
            edge_sum=entry.sums(params, graphs.picks)[j],
            params=params,
        )


def solve_joint(
    problem: Problem,
    suite: ClassifierSuite,
    params: ScalingParams | None = None,
    beam: int | None = 200,
) -> ScoredTuple:
    """Two-stage joint inference: beam over trees by tree score, then the
    best consistent graph per surviving tree; returns the top tuple."""
    if not problem.quantities:
        raise InferenceError(f"problem {problem.id}: no quantities to solve with")
    tables = build_score_tables(problem, suite)
    return JointCandidates(tables, problem.values, beam=beam).solve(params or ScalingParams())


# ---------------------------------------------------------------------------
# scaling-parameter tuning

DEFAULT_TUNE_GRID: dict[str, tuple[float, ...]] = {
    "lambda_rel": LAMBDA_GRID,
    "lambda_vertex": LAMBDA_GRID,
    "lambda_edge": LAMBDA_GRID,
}


def tune_lambdas(
    dev_problems: Sequence[Problem],
    suite: ClassifierSuite,
    grid: Mapping[str, Sequence[float]] | None = None,
    beam: int | None = 200,
) -> ScalingParams:
    """Grid search maximizing dev solve accuracy; ties go to smaller lambdas.

    The suite should have been trained without the dev problems; retraining
    on train+dev after tuning is the evaluation harness's job.
    """
    if not dev_problems:
        raise ValueError("empty development set")
    grid = dict(DEFAULT_TUNE_GRID) | dict(grid or {})
    rel_values = tuple(grid["lambda_rel"])
    vertex_values = tuple(grid["lambda_vertex"])
    edge_values = tuple(grid["lambda_edge"])

    golds = []
    for p in dev_problems:
        if p.gold is None:
            raise ValueError(f"dev problem {p.id} has no gold answer")
        golds.append(p.gold.answer)

    # one search per dev problem; the lambda_rel loop is outermost, so each
    # search ranks its trees once per lambda_rel
    candidates = [
        JointCandidates(build_score_tables(p, suite), p.values, beam=beam) for p in dev_problems
    ]
    best: tuple[int, ScalingParams] | None = None
    for lam_rel in sorted(rel_values):
        for lam_vertex in sorted(vertex_values):
            for lam_edge in sorted(edge_values):
                params = ScalingParams(
                    lambda_rel=lam_rel, lambda_vertex=lam_vertex, lambda_edge=lam_edge
                )
                correct = 0
                for cand, gold in zip(candidates, golds):
                    if values_match(cand.solve(params).value, gold):
                        correct += 1
                if best is None or correct > best[0]:
                    best = (correct, params)
    return best[1]
