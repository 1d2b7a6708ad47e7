import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from udgsolver import exprtree
from udgsolver.exprtree import (
    EvaluationError,
    ExprError,
    Leaf,
    Op,
    canonicalize,
    enumerate_trees,
    evaluate,
    op_lca,
    parse_prefix,
    serialize,
    used_indices,
)

from conftest import random_raw_tree, random_values


# --- evaluation ---------------------------------------------------------------

def test_evaluate_fig1(fig1_problem):
    assert evaluate(fig1_problem.gold.tree, fig1_problem.values) == 7


def test_evaluate_single_leaf():
    assert evaluate(Leaf(0), [Fraction(66)]) == 66


def test_evaluate_reversed_subtraction():
    # (-r a b) computes b - a
    tree = Op("-r", Leaf(0), Leaf(1))
    assert evaluate(tree, [Fraction(3), Fraction(10)]) == 7


def test_division_by_zero_names_node():
    tree = Op("/", Leaf(0), Leaf(1))
    with pytest.raises(EvaluationError, match=r"\(/ q0 q1\)"):
        evaluate(tree, [Fraction(5), Fraction(0)])


# --- canonical form -----------------------------------------------------------

def test_canonical_subtraction_regroup():
    a, b, c = Leaf(0), Leaf(1), Leaf(2)
    t1 = Op("-", Op("-", a, b), c)
    t2 = Op("-", a, Op("+", b, c))
    assert canonicalize(t1) == canonicalize(t2)


def test_canonical_division_regroup():
    a, b, c = Leaf(0), Leaf(1), Leaf(2)
    t1 = Op("/", Op("/", a, b), c)
    t2 = Op("/", a, Op("*", b, c))
    assert canonicalize(t1) == canonicalize(t2)


def test_canonical_leaf_identity():
    assert canonicalize(Leaf(3)) == Leaf(3)


def test_canonical_rejects_duplicates():
    with pytest.raises(ExprError):
        canonicalize(Op("+", Leaf(0), Leaf(0)))


def test_canonicalize_random_trees_quick():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 4)
        indices = sorted(rng.sample(range(6), k))
        tree = random_raw_tree(rng, indices)
        values = {i: v for i, v in zip(indices, random_values(rng, k))}
        try:
            expected = evaluate(tree, values)
        except EvaluationError:
            continue
        canon = canonicalize(tree)
        assert evaluate(canon, values) == expected
        assert canonicalize(canon) == canon


# --- LCA operations -----------------------------------------------------------

def test_op_lca_fig1(fig1_tree):
    assert op_lca(fig1_tree, 0, 2) == "-"
    assert op_lca(fig1_tree, 0, 1) == "/"
    assert op_lca(fig1_tree, 1, 2) == "/r"


def test_op_lca_requires_mention_order(fig1_tree):
    with pytest.raises(ExprError):
        op_lca(fig1_tree, 2, 1)


def test_op_lca_unused_index(fig1_tree):
    with pytest.raises(ExprError):
        op_lca(fig1_tree, 0, 5)


def _oracle_op_lca(tree, qi, qj):
    """Exhaustive ancestor-walk oracle, independent of the implementation."""

    def ancestors(node, target, acc):
        if isinstance(node, Leaf):
            return node.index == target
        for child, side in ((node.left, "L"), (node.right, "R")):
            if ancestors(child, target, acc):
                acc.append((node, side))
                return True
        return False

    anc_i, anc_j = [], []
    ancestors(tree, qi, anc_i)
    ancestors(tree, qj, anc_j)
    common = [n for n, _ in anc_i if any(n is m for m, _ in anc_j)]
    lca = common[0]  # lists are leaf-to-root; first shared node is lowest
    side_i = next(s for n, s in anc_i if n is lca)
    op = exprtree.base_op(lca.op)
    left_first = not exprtree.is_reversed(lca.op)
    qi_first = (side_i == "L") == left_first
    if op in ("+", "*"):
        return op
    return op if qi_first else op + "r"


def test_op_lca_against_ancestor_walk():
    rng = random.Random(11)
    for values in ([2, 3, 5], [2, 3, 5, 7]):
        fracs = [Fraction(v) for v in values]
        for tree in itertools.islice(enumerate_trees(fracs), 300):
            used = sorted(used_indices(tree))
            for qi, qj in itertools.combinations(used, 2):
                assert op_lca(tree, qi, qj) == _oracle_op_lca(tree, qi, qj)


# --- enumeration ----------------------------------------------------------------

def test_enumerate_two_quantities():
    trees = list(enumerate_trees([Fraction(2), Fraction(3)]))
    full = {serialize(t) for t in trees if len(used_indices(t)) == 2}
    assert full == {"(+ q0 q1)", "(- q1 q0)", "(* q0 q1)", "(/ q0 q1)", "(/ q1 q0)"}


def test_enumerate_single_quantity():
    assert list(enumerate_trees([Fraction(5)])) == [Leaf(0)]


def test_enumerate_equal_values_distinct_trees():
    trees = {serialize(t) for t in enumerate_trees([Fraction(1), Fraction(1)])}
    assert "(/ q0 q1)" in trees and "(* q0 q1)" in trees


def test_enumerate_no_duplicates_and_positive():
    values = [Fraction(2), Fraction(3), Fraction(4)]
    seen = set()
    for tree in enumerate_trees(values):
        s = serialize(tree)
        assert s not in seen
        seen.add(s)
        assert evaluate(tree, values) > 0
        assert canonicalize(tree) == tree


def test_enumerate_subset_sizes_descend():
    values = [Fraction(2), Fraction(3), Fraction(4)]
    sizes = [len(used_indices(t)) for t in enumerate_trees(values)]
    assert sizes == sorted(sizes, reverse=True)


def test_enumerate_matches_bruteforce():
    """Completeness oracle: canonicalized raw-tree sweep over every subset."""
    rng = random.Random(0)
    values = [Fraction(3), Fraction(4), Fraction(5)]

    def all_raw_trees(indices):
        if len(indices) == 1:
            yield Leaf(indices[0])
            return
        for cut in range(1, len(indices)):
            for op in exprtree.OPS:
                for left in all_raw_trees(indices[:cut]):
                    for right in all_raw_trees(indices[cut:]):
                        yield Op(op, left, right)

    expected = set()
    for size in range(1, 4):
        for subset in itertools.combinations(range(3), size):
            for perm in itertools.permutations(subset):
                for raw in all_raw_trees(list(perm)):
                    try:
                        value = evaluate(raw, values)
                    except EvaluationError:
                        continue
                    if value > 0:
                        expected.add(serialize(canonicalize(raw)))
    got = {serialize(t) for t in enumerate_trees(values)}
    assert got == expected


def test_enumerate_deterministic():
    values = [Fraction(2), Fraction(5), Fraction(7)]
    first = [serialize(t) for t in enumerate_trees(values)]
    second = [serialize(t) for t in enumerate_trees(values)]
    assert first == second


def test_max_irrelevant_bounds_subsets():
    values = [Fraction(v) for v in (2, 3, 4)]
    trees = list(enumerate_trees(values, max_irrelevant=1))
    assert all(len(used_indices(t)) >= 2 for t in trees)


def test_enumerate_trees_output_pinned():
    # zeros, negatives, duplicates and fractions; recorded before trees were
    # enumerated from compiled structures
    value_lists = [
        [7], [2, 3], [1, 1], [0, 3, -2], [2, 3, 5], [5, 0, 5],
        [Fraction(1, 2), Fraction(3, 4), 2, 0], [4, 4, 2, 2], [3, Fraction(-1, 3), 0, 6],
    ]
    out = [[serialize(t) for t in enumerate_trees([Fraction(v) for v in values])] for values in value_lists]
    assert [len(trees) for trees in out] == [1, 7, 6, 25, 64, 38, 733, 904, 573]
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == "f34608509d2a7334207d13411c6391ebdb2a5719b649d2c718259cb2528958ea"



# --- serialization ----------------------------------------------------------------

def test_serialize_fig1(fig1_problem):
    assert serialize(fig1_problem.gold.tree, fig1_problem.values) == "(/ (- 66 10) 8)"


def test_parse_print_round_trip(fig1_problem):
    values = fig1_problem.values
    for tree in itertools.islice(enumerate_trees(values), 120):
        text = serialize(tree, values)
        assert parse_prefix(text, values) == tree


def test_parse_duplicate_values_leftmost():
    tree = parse_prefix("(+ 5 5)", [Fraction(5), Fraction(5)])
    assert tree == Op("+", Leaf(0), Leaf(1))


def test_parse_unknown_value():
    with pytest.raises(ExprError):
        parse_prefix("(+ 5 9)", [Fraction(5), Fraction(6)])


def test_parse_malformed():
    with pytest.raises(ExprError):
        parse_prefix("(+ 5", [Fraction(5)])


def test_exact_fraction_formatting():
    assert exprtree.format_rational(Fraction(7)) == "7"
    assert exprtree.format_rational(Fraction(7, 2)) == "3.5"
    assert exprtree.format_rational(Fraction(1, 3)) == "1/3"
    assert exprtree.format_rational(Fraction(-9, 4)) == "-2.25"


def test_gold_trees_enumerable(synthetic_corpus):
    # every synthetic gold tree is canonical and reachable by enumeration
    for p in synthetic_corpus[:80]:
        gold = p.gold.tree
        assert canonicalize(gold) == gold
        assert any(t == gold for t in enumerate_trees(p.values))
