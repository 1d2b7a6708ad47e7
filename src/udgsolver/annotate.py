"""Derivation of full unit-dependency-graph gold labels from gold expression
trees plus partial human rate annotations.

Vertex labels follow from the tree when it is purely additive (nothing is a
rate); otherwise the partial rate list must be supplied and is completed with
not-rate. Edge labels come from the tree via ``udg.edge_label``; undetermined
pairs and pairs touching tree-unused quantities default to NoRelation and are
recorded as noisy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable

from . import exprtree, udg
from .corpus import QUESTION, Problem
from .exprtree import MUL, Expr, region
from .udg import EdgeType, UnitDependencyGraph


class AnnotationError(ValueError):
    """Missing or malformed rate annotations."""


def _has_muldiv(tree: Expr) -> bool:
    if isinstance(tree, exprtree.Leaf):
        return False
    return region(tree.op) == MUL or _has_muldiv(tree.left) or _has_muldiv(tree.right)


def derive_vertex_labels(
    problem: Problem,
    gold_tree: Expr,
    partial_rates: Collection[int | str] | None = None,
) -> tuple[bool, ...]:
    """Complete rate-flag map over vertices 0..n (question last).

    A tree without multiplicative nodes makes every vertex not-rate and any
    supplied annotations are ignored. Otherwise ``partial_rates`` is required
    (quantity indices plus the literal "question") and unlisted vertices
    default to not-rate.
    """
    n = problem.n
    if not _has_muldiv(gold_tree):
        return tuple(False for _ in range(n + 1))
    if partial_rates is None:
        raise AnnotationError(
            f"problem {problem.id}: tree has a multiplicative node; rate annotations required"
        )
    flags = [False] * (n + 1)
    for r in partial_rates:
        v = n if r == QUESTION else int(r)
        if not 0 <= v <= n:
            raise AnnotationError(f"problem {problem.id}: rate vertex {r!r} out of range")
        flags[v] = True
    return tuple(flags)


def derive_edge_labels(
    gold_tree: Expr, vertex_labels: tuple[bool, ...]
) -> tuple[dict[tuple[int, int], EdgeType], frozenset[tuple[int, int]]]:
    """Edge map over all pairs plus the set of pairs labeled heuristically.

    Undetermined pairs and pairs involving quantities absent from the tree
    get NoRelation and are flagged noisy.
    """
    n = len(vertex_labels) - 1
    used = exprtree.used_indices(gold_tree)
    edges: dict[tuple[int, int], EdgeType] = {}
    noisy = set()
    for i, j in udg.vertex_pairs(n):
        if i not in used or (j != n and j not in used):
            edges[(i, j)] = EdgeType.NO_RELATION
            noisy.add((i, j))
            continue
        label = udg.edge_label(gold_tree, i, j, vertex_labels)
        if label is None:
            edges[(i, j)] = EdgeType.NO_RELATION
            noisy.add((i, j))
        else:
            edges[(i, j)] = label
    return edges, frozenset(noisy)


@dataclass(frozen=True)
class DerivedUdgGold:
    problem_id: str
    vertex_labels: tuple[bool, ...]
    edges: tuple[EdgeType, ...]  # aligned with udg.vertex_pairs
    noisy: frozenset[tuple[int, int]]

    def to_graph(self) -> UnitDependencyGraph:
        return UnitDependencyGraph.from_labeling(self.vertex_labels, self.edges)

    def to_json_obj(self) -> dict:
        obj = self.to_graph().to_json_obj()
        obj["noisy"] = [list(pair) for pair in sorted(self.noisy)]
        return obj


def derive_udg_gold(problem: Problem) -> DerivedUdgGold:
    """Full derived gold graph for a problem carrying a gold tree."""
    if problem.gold is None or problem.gold.tree is None:
        raise AnnotationError(f"problem {problem.id}: no gold tree to derive from")
    partial = None
    if problem.gold.rate_vertices is not None:
        partial = set(problem.gold.rate_vertices)
    labels = derive_vertex_labels(problem, problem.gold.tree, partial)
    edge_map, noisy = derive_edge_labels(problem.gold.tree, labels)
    edges = tuple(edge_map[pair] for pair in udg.vertex_pairs(problem.n))
    return DerivedUdgGold(
        problem_id=problem.id, vertex_labels=labels, edges=edges, noisy=noisy
    )


def noise_rate(derived: Iterable[DerivedUdgGold]) -> float:
    """Fraction of edge labels that were heuristic defaults."""
    noisy = total = 0
    for d in derived:
        noisy += len(d.noisy)
        total += len(d.edges)
    return noisy / total if total else 0.0
