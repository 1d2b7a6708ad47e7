"""Shared fixtures: the bouquet walkthrough problem, mock score tables, a
random raw-tree generator, an independent unit-propagation oracle used to
cross-check tree-determined edge labels, the exact per-label dot product
that the fused classifier scorer must equal, a format-1 rewrite of a saved
model, and the non-ASCII letters that
case-insensitive matching equates to ASCII ones."""

from __future__ import annotations

import itertools
import random
import re
import string
import sys
from fractions import Fraction
from itertools import repeat
from operator import mul

import pytest

from udgsolver import corpus, exprtree, infer, synth
from udgsolver.corpus import QUESTION
from udgsolver.exprtree import DIV, MUL, Expr, Leaf, Op, base_op, is_reversed
from udgsolver.udg import EdgeType


def oracle_dot(fv, weights, start=0):
    """``start`` plus each value * weight over one label's weights, as the
    exact ``Fraction`` every score stands for: each value and weight is
    taken as its exact ratio (every finite float is one)."""
    return sum(map(mul, map(Fraction, fv.values()), map(Fraction, map(weights.get, fv, repeat(0)))), Fraction(start))


def format_1(obj: dict) -> dict:
    """A format-2 model object rewritten as format 1, the format before
    exact weights: no "format" key, and each part's weights flat, keyed
    "label\x1fname", each the float nearest its numerator over the
    denominator."""
    old = {"config": obj["config"]}
    for part in ("vertex", "edge", "relevance", "lca"):
        model = obj[part]
        weights = {
            f"{label}\x1f{name}": a / model["denominator"]
            for label, table in model["weights"].items()
            for name, a in table.items()
        }
        old[part] = {"labels": model["labels"], "epochs": model["epochs"], "seed": model["seed"], "weights": weights}
    return old


def case_equated_letters() -> dict[str, str]:
    """Every non-ASCII code point that a case-insensitive pattern's ASCII
    letter matches, mapped to that letter (U+0130, U+0131, U+017F and the
    Kelvin sign U+212A on current Pythons)."""
    letter = re.compile("[a-z]", re.IGNORECASE).fullmatch
    equated = {}
    for c in map(chr, range(128, sys.maxunicode + 1)):
        if letter(c):
            (equated[c],) = (l for l in string.ascii_lowercase if re.fullmatch(l, c, re.IGNORECASE))
    return equated


FIG1_TEXT = (
    "Isabel picked 66 flowers for her friend's wedding. She was making "
    "bouquets with 8 flowers in each one. If 10 of the flowers wilted "
    "before the wedding, how many bouquets could she still make?"
)
FIG1_TREE = "(/ (- 66 10) 8)"

MELANIE_TEXT = (
    "Melanie picked 7 plums and 4 oranges from the orchard. She gave 3 "
    "plums to Sam. How many plums does she have now?"
)


@pytest.fixture(scope="session")
def fig1_problem():
    return corpus.build_problem("fig1", FIG1_TEXT, answer=7, tree_text=FIG1_TREE, rates=[1])


@pytest.fixture(scope="session")
def fig1_tree(fig1_problem):
    return fig1_problem.gold.tree


def make_fig1_tables() -> infer.ScoreTables:
    """Hand-set scores that favor the gold labels of the walkthrough problem.

    Quantities: 66 -> 0, 8 -> 1, 10 -> 2, question -> 3.
    """
    lca = {(0, 2, "-"): 5.0, (0, 1, "/"): 5.0, (1, 2, "/r"): 5.0}
    relevance = {(q, "Irrelevant"): -5.0 for q in range(3)}
    vertex = {(1, "Rate"): 3.0, (0, "Rate"): -3.0, (2, "Rate"): -3.0, (3, "Rate"): -3.0}
    edge = {
        (0, 2, EdgeType.SAME_UNIT): 2.0,
        (0, 1, EdgeType.NUM_REV): 2.0,
        (1, 2, EdgeType.NUM_FWD): 2.0,
        (1, 3, EdgeType.DEN_FWD): 2.0,
        (0, 3, EdgeType.NO_RELATION): 1.0,
        (2, 3, EdgeType.NO_RELATION): 1.0,
    }
    return infer.ScoreTables(3, vertex, edge, relevance, lca)


@pytest.fixture(scope="session")
def synthetic_corpus():
    return synth.gen_synthetic_corpus(seed=0, size=500)


@pytest.fixture(scope="session")
def trained_suite(synthetic_corpus):
    from udgsolver import learn

    return learn.train_suite(synthetic_corpus, learn.FeatureConfig(), epochs=10, seed=0)


# ---------------------------------------------------------------------------
# random raw trees

def random_raw_tree(rng: random.Random, indices: list[int]) -> Expr:
    if len(indices) == 1:
        return Leaf(indices[0])
    cut = rng.randint(1, len(indices) - 1)
    op = rng.choice(exprtree.OPS)
    return Op(op, random_raw_tree(rng, indices[:cut]), random_raw_tree(rng, indices[cut:]))


def random_values(rng: random.Random, n: int) -> list[Fraction]:
    return [
        Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 5))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# unit-propagation oracle (independent of udg.edge_label)
#
# A unit model assigns each not-rate vertex a single atom and each rate
# vertex an ordered (numerator, denominator) atom pair. It is valid for a
# tree when pushing units bottom-up succeeds: +/- need equal child units,
# * needs a rate times its denominator unit, / needs either dividend =
# divisor's numerator unit (quotient gets the denominator unit) or two
# distinct simple units (quotient becomes their rate), and the root unit
# must equal the question's unit.

def _restricted_growth(k: int):
    def rec(prefix, top):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from rec(prefix + [b], max(top, b))

    if k == 0:
        yield ()
        return
    yield from rec([0], 0)


def _propagate(node: Expr, unit_of: dict) -> tuple | None:
    if isinstance(node, Leaf):
        return unit_of[node.index]
    left = _propagate(node.left, unit_of)
    right = _propagate(node.right, unit_of)
    if left is None or right is None:
        return None
    if is_reversed(node.op):
        left, right = right, left
    op = base_op(node.op)
    if op in ("+", "-"):
        return left if left == right else None
    if op == MUL:
        for a, b in ((left, right), (right, left)):
            if a[0] == "rate" and b == ("simple", a[2]):
                return ("simple", a[1])
        return None
    # division
    if left[0] == "simple" and right[0] == "rate" and right[1] == left[1]:
        return ("simple", right[2])
    if left[0] == "simple" and right[0] == "simple" and left[1] != right[1]:
        return ("rate", left[1], right[1])
    return None


def unit_models(tree: Expr, vlabels: tuple[bool, ...]) -> list[dict]:
    """All valid unit models over the tree's used vertices plus the question."""
    n = len(vlabels) - 1
    vertices = sorted(exprtree.used_indices(tree)) + [n]
    slots: list[int] = []
    for v in vertices:
        slots.extend([v, v] if vlabels[v] else [v])
    models = []
    for assignment in _restricted_growth(len(slots)):
        unit_of: dict = {}
        pos = 0
        ok = True
        for v in vertices:
            if vlabels[v]:
                num, den = assignment[pos], assignment[pos + 1]
                pos += 2
                if num == den:
                    ok = False
                    break
                unit_of[v] = ("rate", num, den)
            else:
                unit_of[v] = ("simple", assignment[pos])
                pos += 1
        if not ok:
            continue
        root = _propagate(tree, unit_of)
        if root is not None and root == unit_of[n]:
            models.append(unit_of)
    return models


def oracle_edge(
    models: list[dict], vlabels: tuple[bool, ...], vi: int, vj: int
) -> EdgeType | None:
    """Relation forced in every valid model, or None."""
    if not models:
        return None
    li, lj = vlabels[vi], vlabels[vj]
    if li == lj:
        if all(m[vi] == m[vj] for m in models):
            return EdgeType.SAME_UNIT
        return None
    rate, simple = (vi, vj) if li else (vj, vi)
    if all(m[rate][1] == m[simple][1] for m in models):
        return EdgeType.NUM_FWD if li else EdgeType.NUM_REV
    if all(m[rate][2] == m[simple][1] for m in models):
        return EdgeType.DEN_FWD if li else EdgeType.DEN_REV
    return None
