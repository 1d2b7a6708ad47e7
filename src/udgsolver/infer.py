"""Constrained inference over classifier scores.

Three entry points: standalone graph prediction (scaled vertex scores of
rate vertices plus scaled edge scores), expression tree scoring (scaled
relevance of unused quantities plus LCA-operation scores over used pairs),
and joint two-stage beam search over (graph, tree) tuples where the graph
must be consistent with the tree.

Both graph searches pick a vertex labeling and give each pair its best
permitted label. ``udg`` says which labels a pair may carry (with or without
a tree); ``_labeling_entry`` scores one labeling's choices for both.

The joint search is branch and bound over the graph stage. Candidate trees
are scored and beam-truncated up front from compiled structures
(``exprtree.enumerate_plans``), without building their expression trees; a
tree is built, and its consistent labelings with it, only when ``solve``
visits it. Trees are visited best tree score first, and the visit stops at
the first tree whose best unconstrained graph cannot reach the incumbent
total, so answers equal the exhaustive scan of ``top_k``.

All scoring runs off immutable ScoreTables, so tests can drive inference
from hand-set mock tables and candidate scoring is safe to parallelize.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, reduce
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

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


@dataclass(frozen=True)
class ScoreTables:
    """Raw classifier scores for one problem, keyed by query."""

    n_quantities: int
    vertex: Mapping[tuple[int, str], float]
    edge: Mapping[tuple[int, int, EdgeType], float]
    relevance: Mapping[tuple[int, str], float]
    lca: Mapping[tuple[int, int, str], float]

    def vertex_score(self, v: int, label: str) -> float:
        return self.vertex.get((v, label), 0.0)

    def edge_score(self, i: int, j: int, label: EdgeType) -> float:
        return self.edge.get((i, j, label), 0.0)

    def relevance_score(self, q: int, label: str) -> float:
        return self.relevance.get((q, label), 0.0)

    def lca_score(self, i: int, j: int, op: str) -> float:
        return self.lca.get((i, j, op), 0.0)


def build_score_tables(problem: Problem, suite: ClassifierSuite) -> ScoreTables:
    """Score every inference query once, off one feature pass.

    ``learn.problem_features`` computes each vertex's features and unit once;
    each model scores all its labels at a time, and pair scores continue the
    first vertex's block sums into the second's (``pair_scores``). Every
    score is the float ``LinearModel.score`` gives for the query's vector.

    LCA scores are shifted per pair so the pair's best operation scores zero
    and every other operation is negative (the margin analogue of a log
    probability). A tree then pays for each pair whose operation disagrees
    with the classifier and gains nothing from merely covering more pairs.
    Vertex and relevance scores are raw (their two-label weight tables are
    exact mirrors, so shifts would not change decisions), and edge scores are
    raw (every graph labels every pair, so per-pair shifts cancel).
    """
    n = problem.n
    feats = learn.problem_features(problem, suite.config)
    vertex = {
        (v, label): s
        for v, fv in enumerate(feats.vectors)
        for label, s in zip(suite.vertex.labels, suite.vertex.scores(fv))
    }
    pairs = udg.vertex_pairs(n)
    edge_types = [EdgeType(label) for label in suite.edge.labels]
    edge = {
        (i, j, label): s
        for (i, j), scores in zip(pairs, feats.pair_scores(suite.edge, learn.EDGE_LAYOUT, pairs))
        for label, s in zip(edge_types, scores)
    }
    relevance = {
        (q, label): s
        for q in range(n)
        for label, s in zip(suite.relevance.labels, suite.relevance.scores(feats.relevance(q)))
    }
    lca = {}
    quantity_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), scores in zip(
        quantity_pairs, feats.pair_scores(suite.lca, learn.LCA_LAYOUT, quantity_pairs)
    ):
        top = max(scores)
        for op, s in zip(suite.lca.labels, scores):
            lca[(i, j, op)] = s - top
    return ScoreTables(n, vertex, edge, relevance, lca)


# ---------------------------------------------------------------------------
# term sums

def tree_term_sums(tree: Expr, tables: ScoreTables) -> tuple[float, float]:
    """(irrelevance sum over unused quantities, LCA sum over used pairs)."""
    used = exprtree.used_indices(tree)
    rel_sum = 0.0
    for q in range(tables.n_quantities):
        if q not in used:
            rel_sum += tables.relevance_score(q, IRRELEVANT)
    lca_sum = 0.0
    ordered = sorted(used)
    for a, i in enumerate(ordered):
        for j in ordered[a + 1 :]:
            lca_sum += tables.lca_score(i, j, exprtree.op_lca(tree, i, j))
    return rel_sum, lca_sum


def graph_term_sums(graph: UnitDependencyGraph, tables: ScoreTables) -> tuple[float, float]:
    """(vertex sum over rate-labeled vertices, edge sum over all pairs)."""
    vertex_sum = 0.0
    for v in range(graph.n_quantities + 1):
        if graph.is_rate(v):
            vertex_sum += tables.vertex_score(v, RATE)
    edge_sum = 0.0
    for (i, j), label in zip(udg.vertex_pairs(graph.n_quantities), graph.edges):
        edge_sum += tables.edge_score(i, j, label)
    return vertex_sum, edge_sum


def score_tree(tree: Expr, tables: ScoreTables, params: ScalingParams) -> float:
    rel_sum, lca_sum = tree_term_sums(tree, tables)
    return params.lambda_rel * rel_sum + lca_sum


def score_udg(graph: UnitDependencyGraph, tables: ScoreTables, params: ScalingParams) -> float:
    """Scaled rate-vertex scores plus scaled edge scores; not-rate vertices
    contribute nothing."""
    vertex_sum, edge_sum = graph_term_sums(graph, tables)
    return params.lambda_vertex * vertex_sum + params.lambda_edge * edge_sum


def values_match(predicted: Fraction, gold: Fraction, tolerance: Fraction = ANSWER_TOLERANCE) -> bool:
    return abs(Fraction(predicted) - Fraction(gold)) <= tolerance


# ---------------------------------------------------------------------------
# labeling entries

@dataclass(frozen=True)
class _LabelingEntry:
    """One vertex labeling with its vertex sum and two edge picks: each
    pair's best permitted label (ties keep the earlier label), and each
    pair's first permitted label."""

    labeling: tuple[bool, ...]
    vertex_sum: float
    edge_sum_max: float
    edges_max: tuple[EdgeType, ...]
    edge_sum_lex: float
    edges_lex: tuple[EdgeType, ...]

    def edges(self, params: ScalingParams) -> tuple[float, tuple[EdgeType, ...]]:
        """(edge sum, edges) of the labeling's best graph. With a zero edge
        scale every label ties, so the lexicographically first is taken."""
        if params.lambda_edge > 0:
            return self.edge_sum_max, self.edges_max
        return self.edge_sum_lex, self.edges_lex

    def score(self, params: ScalingParams) -> float:
        return params.lambda_vertex * self.vertex_sum + params.lambda_edge * self.edges(params)[0]


def _labeling_entry(
    tables: ScoreTables, labeling: tuple[bool, ...], choices: Sequence[tuple[EdgeType, ...]]
) -> _LabelingEntry:
    """Score a labeling whose pairs, in ``vertex_pairs`` order, may carry
    ``choices``; the labeling may be a prefix over its first vertices."""
    # one addition at a time, as in every Python version (3.12's sum() compensates)
    vertex_sum = reduce(
        add, (tables.vertex_score(v, RATE) for v, flag in enumerate(labeling) if flag), 0
    )
    e_max = e_lex = 0.0
    edges_max: list[EdgeType] = []
    for (i, j), options in zip(udg.vertex_pairs(len(labeling) - 1), choices):
        best = options[0]
        best_score = first_score = tables.edge_score(i, j, best)
        for label in options[1:]:
            s = tables.edge_score(i, j, label)
            if s > best_score:
                best, best_score = label, s
        edges_max.append(best)
        e_max += best_score
        e_lex += first_score
    edges_lex = tuple(options[0] for options in choices)
    return _LabelingEntry(labeling, vertex_sum, e_max, tuple(edges_max), e_lex, edges_lex)


def _valid_entry(tables: ScoreTables, labeling: tuple[bool, ...]) -> _LabelingEntry:
    return _labeling_entry(tables, labeling, udg.valid_edge_choices(labeling))


# ---------------------------------------------------------------------------
# standalone graph prediction

def predict_udg_from_tables(
    tables: ScoreTables, params: ScalingParams, beam: int = 200
) -> UnitDependencyGraph:
    """Argmax of score_udg over structurally valid graphs.

    Exhaustive over vertex labelings for up to 6 vertices, beam search over
    labeling prefixes beyond; ties break toward the lexicographically
    smallest encoding."""
    n = tables.n_quantities
    if n + 1 <= 6:
        entries: Iterable[_LabelingEntry] = (
            _valid_entry(tables, labeling)
            for labeling in itertools.product((False, True), repeat=n + 1)
        )
    else:
        entries = _beam_labelings(tables, params, beam)
    best = max(entries, key=lambda e: e.score(params))  # first of equal scores
    rates = frozenset(v for v, flag in enumerate(best.labeling) if flag)
    return UnitDependencyGraph(n_quantities=n, rates=rates, edges=best.edges(params)[1])


def _beam_labelings(
    tables: ScoreTables, params: ScalingParams, beam: int
) -> list[_LabelingEntry]:
    prefixes: list[tuple[bool, ...]] = [()]
    for _ in range(tables.n_quantities + 1):
        extended = [
            _valid_entry(tables, prefix + (flag,)) for prefix in prefixes for flag in (False, True)
        ]
        extended.sort(key=lambda e: (-e.score(params), e.labeling))
        kept = extended[: max(beam, 1)]
        prefixes = [e.labeling for e in kept]
    return kept


def predict_udg(
    problem: Problem, suite: ClassifierSuite, params: ScalingParams | None = None, beam: int = 200
) -> UnitDependencyGraph:
    return predict_udg_from_tables(
        build_score_tables(problem, suite), params or ScalingParams(), beam
    )


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
    """One candidate tree: a compiled structure placed on a quantity subset,
    with its exact value and term sums. The expression tree itself is built
    the first time the search asks for it."""

    plan: exprtree.TreePlan
    subset: tuple[int, ...]
    value: Fraction
    serial: str
    rel_sum: float
    lca_sum: float
    # the tree's consistent labelings, built when a search first reaches it
    consistent: tuple[_LabelingEntry, ...] | None = None

    @property
    def nodes(self) -> int:
        return self.plan.nodes

    @cached_property
    def tree(self) -> Expr:
        return self.plan.tree(self.subset)

    def base(self, lambda_rel: float) -> float:
        return lambda_rel * self.rel_sum + self.lca_sum

    def rank(self, lambda_rel: float) -> tuple:
        return (-self.base(lambda_rel), self.nodes, self.serial)


def _tree_stage(
    tables: ScoreTables, values: Sequence[Fraction], max_irrelevant: int | None = None
) -> tuple[_TreeEntry, ...]:
    """Every candidate tree with its term sums, in enumeration order.

    The sums are ``tree_term_sums`` of each tree, added in the same order: the
    irrelevance sum once per subset over the unused quantities in index order,
    the LCA sum over the subset's pairs in lexicographic order with the plan's
    operations."""
    entries = []
    subset = None
    for plan, placed, value in exprtree.enumerate_plans(values, max_irrelevant):
        if placed != subset:
            subset = placed
            rel_sum = 0.0
            for q in range(tables.n_quantities):
                if q not in subset:
                    rel_sum += tables.relevance_score(q, IRRELEVANT)
            pairs = tuple(itertools.combinations(subset, 2))
        lca_sum = 0.0
        for (i, j), op in zip(pairs, plan.pair_ops):
            lca_sum += tables.lca_score(i, j, op)
        entries.append(_TreeEntry(plan, subset, value, plan.serial(subset), rel_sum, lca_sum))
    if not entries:
        raise InferenceError("no candidate expression trees with a positive value")
    return tuple(entries)


@dataclass(frozen=True)
class _ProblemStage:
    """The part of a joint search that no scale changes: the tree stage and
    the unconstrained labelings that bound each tree's graphs. Only the
    ranking depends on ``lambda_rel``, so one stage serves every
    ``JointCandidates`` built over the same tables and values."""

    trees: tuple[_TreeEntry, ...]
    unconstrained: tuple[_LabelingEntry, ...]


def _problem_stage(
    tables: ScoreTables, values: Sequence[Fraction], max_irrelevant: int | None = None
) -> _ProblemStage:
    trees = _tree_stage(tables, values, max_irrelevant)
    unconstrained = tuple(
        _valid_entry(tables, labeling)
        for labeling in itertools.product((False, True), repeat=tables.n_quantities + 1)
    )
    return _ProblemStage(trees, unconstrained)


class JointCandidates:
    """Beam-pruned candidate trees whose consistent graphs are scored lazily.

    The problem stage runs here, or comes from ``trees``: every candidate
    tree with its value and term sums, computed from compiled structures
    without building the tree, and the scored unconstrained labelings. Every
    tree is ranked under ``lambda_rel`` and the best ``beam`` are kept. The
    graph stage runs on demand: a kept tree's expression tree and consistent
    labelings are built the first time a search reaches it and reused by
    every later call, so lambda tuning and ablations re-solve cheaply; only
    the scalar mix changes across calls to solve().

    ``solve`` visits trees best tree score first and bounds each by its tree
    score plus the best graph over all structurally valid (unconstrained)
    labelings. A consistent labeling's per-pair options are a subset of its
    valid ones and float rounding is monotone, so no total of the tree
    exceeds the bound; the bound never rises along the visit order, so the
    search stops at the first tree bounded strictly below the incumbent.
    ``top_k`` scans every kept tree."""

    def __init__(
        self,
        tables: ScoreTables,
        values: Sequence[Fraction],
        lambda_rel: float = 1.0,
        beam: int | None = 200,
        max_irrelevant: int | None = None,
        *,
        trees: _ProblemStage | None = None,
    ):
        """``trees`` is the problem's stage from ``_problem_stage`` on the
        same tables and values; passing it skips the enumeration and the
        labeling rows, and the kept trees, their order and the bound are
        those of a fresh build."""
        if len(values) != tables.n_quantities:
            raise InferenceError("value list does not match score tables")
        self.tables = tables
        if trees is None:
            trees = _problem_stage(tables, values, max_irrelevant)
        entries = sorted(trees.trees, key=lambda e: e.rank(lambda_rel))
        if beam is not None:
            entries = entries[: max(int(beam), 1)]
        self.entries = tuple(entries)
        self.lambda_rel = lambda_rel
        self._unconstrained = trees.unconstrained

    def _tree_candidates(self, entry: _TreeEntry, params: ScalingParams) -> Iterator[tuple[tuple, _TreeEntry, _LabelingEntry, float, tuple[EdgeType, ...]]]:
        if entry.consistent is None:
            entry.consistent = tuple(
                _labeling_entry(self.tables, labeling, choices)
                for labeling, choices in udg.consistent_edge_choices(
                    entry.tree, self.tables.n_quantities
                )
            )
        base = entry.base(params.lambda_rel)
        for lab in entry.consistent:
            esum, edges = lab.edges(params)
            total = base + params.lambda_vertex * lab.vertex_sum + params.lambda_edge * esum
            key = (
                -total,
                entry.nodes,
                entry.serial,
                lab.labeling,
                tuple(udg.EDGE_ORDER[e] for e in edges),
            )
            yield key, entry, lab, esum, edges

    def solve(self, params: ScalingParams) -> ScoredTuple:
        graph_terms = [
            (params.lambda_vertex * lab.vertex_sum, params.lambda_edge * lab.edges(params)[0])
            for lab in self._unconstrained
        ]
        visit_order = self.entries
        if params.lambda_rel != self.lambda_rel:
            visit_order = sorted(self.entries, key=lambda e: e.rank(params.lambda_rel))
        best = None
        for entry in visit_order:
            if best is not None:
                base = entry.base(params.lambda_rel)
                # same float expression as a candidate's total; a tie may
                # still win on the tie-break key, so only a strict miss stops
                if max(base + v + e for v, e in graph_terms) < -best[0][0]:
                    break
            for cand in self._tree_candidates(entry, params):
                if best is None or cand[0] < best[0]:
                    best = cand
        if best is None:
            raise InferenceError("no consistent (graph, tree) tuple exists")
        return self._build(best, params)

    def top_k(self, params: ScalingParams, k: int) -> list[ScoredTuple]:
        ranked = sorted(
            (c for entry in self.entries for c in self._tree_candidates(entry, params)),
            key=lambda c: c[0],
        )
        return [self._build(c, params) for c in ranked[:k]]

    def _build(self, cand, params: ScalingParams) -> ScoredTuple:
        key, entry, lab, esum, edges = cand
        rates = frozenset(v for v, flag in enumerate(lab.labeling) if flag)
        graph = UnitDependencyGraph(self.tables.n_quantities, rates, edges)
        return ScoredTuple(
            tree=entry.tree,
            graph=graph,
            value=entry.value,
            score=-key[0],
            rel_sum=entry.rel_sum,
            lca_sum=entry.lca_sum,
            vertex_sum=lab.vertex_sum,
            edge_sum=esum,
            params=params,
        )


def solve_joint_from_tables(
    tables: ScoreTables,
    values: Sequence[Fraction],
    params: ScalingParams | None = None,
    beam: int | None = 200,
    max_irrelevant: int | None = None,
) -> ScoredTuple:
    params = params or ScalingParams()
    candidates = JointCandidates(
        tables, values, lambda_rel=params.lambda_rel, beam=beam, max_irrelevant=max_irrelevant
    )
    return candidates.solve(params)


def solve_joint(
    problem: Problem,
    suite: ClassifierSuite,
    params: ScalingParams | None = None,
    beam: int | None = 200,
    max_irrelevant: int | None = None,
) -> ScoredTuple:
    """Two-stage joint inference: beam over trees by tree score, then the
    best consistent graph per surviving tree; returns the top tuple."""
    if not problem.quantities:
        raise InferenceError(f"problem {problem.id}: no quantities to solve with")
    tables = build_score_tables(problem, suite)
    return solve_joint_from_tables(
        tables, problem.values, params, beam=beam, max_irrelevant=max_irrelevant
    )


# ---------------------------------------------------------------------------
# scaling-parameter tuning

DEFAULT_TUNE_GRID: dict[str, tuple[float, ...]] = {
    "lambda_rel": LAMBDA_GRID,
    "lambda_vertex": LAMBDA_GRID,
    "lambda_edge": LAMBDA_GRID,
}


def tune_lambdas(
    train_problems: Sequence[Problem],
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

    tables = [build_score_tables(p, suite) for p in dev_problems]
    # trees, term sums, the labelings memoized on the trees and the
    # unconstrained rows are shared by every lambda_rel; only the ranking and
    # the beam cut are redone
    stages = [_problem_stage(t, p.values) for t, p in zip(tables, dev_problems)]
    best: tuple[int, ScalingParams] | None = None
    for lam_rel in sorted(rel_values):
        candidates = [
            JointCandidates(t, p.values, lambda_rel=lam_rel, beam=beam, trees=stage)
            for t, p, stage in zip(tables, dev_problems, stages)
        ]
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
