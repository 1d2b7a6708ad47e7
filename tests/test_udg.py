import hashlib
import itertools
import re
from fractions import Fraction

import pytest

from udgsolver import exprtree, udg
from udgsolver.corpus import QUESTION
from udgsolver.exprtree import Leaf, Op
from udgsolver.udg import (
    EdgeType,
    UdgError,
    UnitDependencyGraph,
    edge_label,
    edge_structurally_valid,
    enumerate_consistent_udgs,
    is_consistent,
    path,
    vertex_pairs,
)

from conftest import oracle_edge, unit_models


# --- path -------------------------------------------------------------------

def test_path_fig1_leaf_pairs(fig1_tree):
    assert path(fig1_tree, 0, 1) == {"-", "/"}
    assert path(fig1_tree, 0, 2) == {"-"}


def test_path_fig1_question(fig1_tree):
    assert path(fig1_tree, 1, QUESTION) == {"/"}
    assert path(fig1_tree, 0, QUESTION) == {"-", "/"}


def test_path_symmetric(fig1_tree):
    for vi, vj in itertools.combinations([0, 1, 2, QUESTION], 2):
        assert path(fig1_tree, vi, vj) == path(fig1_tree, vj, vi)


def test_path_unused_quantity_errors():
    with pytest.raises(UdgError):
        path(Op("+", Leaf(0), Leaf(1)), 0, 5)


def test_path_double_question_errors(fig1_tree):
    with pytest.raises(UdgError):
        path(fig1_tree, QUESTION, QUESTION)


@pytest.mark.parametrize("vertex", [0, 1])
def test_path_one_quantity_vertex_errors(vertex):
    # a vertex has no path to itself (not its parent's operation)
    with pytest.raises(UdgError, match="two distinct vertices"):
        path(Op("+", Leaf(0), Leaf(1)), vertex, vertex)


def test_path_single_leaf_is_empty():
    assert path(Leaf(0), 0, QUESTION) == frozenset()


# --- edge labels --------------------------------------------------------------

def test_edge_label_fig1_same_unit(fig1_tree):
    labels = (False, False, False, False)
    assert edge_label(fig1_tree, 0, 2, labels) is EdgeType.SAME_UNIT


def test_edge_label_fig1_question_den(fig1_tree):
    labels = (False, True, False, False)
    assert edge_label(fig1_tree, 1, 3, labels) is EdgeType.DEN_FWD


def test_edge_label_fig1_num_rev(fig1_tree):
    labels = (False, True, False, False)
    assert edge_label(fig1_tree, 0, 1, labels) is EdgeType.NUM_REV


def test_edge_label_undetermined_cases(fig1_tree):
    # same labels across a multiplicative node
    assert edge_label(fig1_tree, 0, 1, (False, False, False, False)) is None
    # differing labels across a purely additive path
    assert edge_label(fig1_tree, 0, 2, (True, False, False, False)) is None


def test_edge_label_never_same_unit_across_muldiv():
    values = [Fraction(2), Fraction(3), Fraction(5)]
    for tree in itertools.islice(exprtree.enumerate_trees(values), 150):
        used = sorted(exprtree.used_indices(tree))
        n = 3
        for labeling in itertools.product((False, True), repeat=n + 1):
            for i, j in vertex_pairs(n):
                if i not in used or (j != n and j not in used):
                    continue
                label = edge_label(tree, i, j, labeling)
                if label is EdgeType.SAME_UNIT:
                    ops = path(tree, i, QUESTION if j == n else j)
                    assert not ops & {"*", "/", "/r"}


def test_edge_label_agrees_with_unit_oracle_two_quantities():
    for structure in exprtree.canonical_structures(2):
        for labeling in itertools.product((False, True), repeat=3):
            models = unit_models(structure, labeling)
            for i, j in vertex_pairs(2):
                got = edge_label(structure, i, j, labeling)
                if got is not None and models:
                    assert oracle_edge(models, labeling, i, j) is got


# --- graph structure -----------------------------------------------------------

def _graph(n, rates, edges):
    return UnitDependencyGraph.from_edge_map(n, frozenset(rates), edges)


def test_rate_edge_needs_rate_source():
    # the constructor accepts exactly the structurally valid labels
    for label in EdgeType:
        for rates in ((), (0,), (1,), (0, 1)):
            if edge_structurally_valid(label, 0 in rates, 1 in rates):
                assert _graph(1, set(rates), {(0, 1): label}).edge(0, 1) is label
                continue
            message = re.escape(f"edge {label.value} between 0 and 1 needs a rate source")
            with pytest.raises(UdgError, match=message):
                _graph(1, set(rates), {(0, 1): label})


def test_edge_lookup_symmetric():
    g = _graph(2, set(), {(0, 1): EdgeType.SAME_UNIT})
    assert g.edge(0, 1) is g.edge(1, 0)


def test_graph_vertex_count():
    g = _graph(2, set(), {})
    assert len(g.edges) == len(vertex_pairs(2)) == 3


def test_graph_json_round_trip():
    g = _graph(2, {1}, {(0, 1): EdgeType.NUM_REV, (1, 2): EdgeType.DEN_FWD})
    obj = g.to_json_obj()
    assert obj["rates"] == [1]
    assert ["0", "1"] not in obj["edges"]  # labels serialized, NoRelation omitted
    assert UnitDependencyGraph.from_json_obj(2, obj) == g


def test_graph_rejects_label_that_is_no_edge_type():
    with pytest.raises(UdgError, match=re.escape("edge 'x' between 0 and 1 is not an EdgeType")):
        UnitDependencyGraph(1, frozenset(), ("x",))


def test_graph_json_rejects_edge_outside_vertex_pairs():
    with pytest.raises(UdgError, match=re.escape("edge (0, 5) is not a vertex pair")):
        UnitDependencyGraph.from_json_obj(1, {"edges": [[0, 5, "SameUnit"]]})


def test_graph_json_rejects_duplicate_pair():
    edges = [[0, 1, "SameUnit"], [0, 1, "NoRelation"]]
    with pytest.raises(UdgError, match=re.escape("edge (0, 1) is given more than once")):
        UnitDependencyGraph.from_json_obj(1, {"edges": edges})


def test_graph_json_rejects_unknown_label():
    with pytest.raises(UdgError, match=re.escape("edge (0, 1) has unknown label 'Bogus'")):
        UnitDependencyGraph.from_json_obj(1, {"edges": [[0, 1, "Bogus"]]})


def test_graph_json_rejects_rate_vertex_that_is_no_index():
    with pytest.raises(UdgError, match=re.escape("rate vertex 'x' is not a vertex index")):
        UnitDependencyGraph.from_json_obj(1, {"rates": ["x"]})


def test_structural_validity_table():
    assert edge_structurally_valid(EdgeType.SAME_UNIT, False, False)
    assert not edge_structurally_valid(EdgeType.NUM_FWD, False, True)
    assert edge_structurally_valid(EdgeType.NUM_REV, False, True)


# --- consistency -----------------------------------------------------------------

def _fig1_gold_graph():
    return _graph(
        3,
        {1},
        {
            (0, 1): EdgeType.NUM_REV,
            (0, 2): EdgeType.SAME_UNIT,
            (1, 2): EdgeType.NUM_FWD,
            (1, 3): EdgeType.DEN_FWD,
        },
    )


def test_fig1_gold_consistent(fig1_tree):
    result = is_consistent(_fig1_gold_graph(), fig1_tree)
    assert bool(result)
    assert result.violations == ()


def test_condition3_violation(fig1_tree):
    g = _graph(3, set(), {(0, 1): EdgeType.SAME_UNIT, (0, 2): EdgeType.SAME_UNIT})
    result = is_consistent(g, fig1_tree)
    assert not result
    assert any("condition 3" in v and "(0, 1)" in v for v in result.violations)


def test_condition1_violation():
    tree = Op("-", Leaf(0), Leaf(1))  # 66 - 10
    g = _graph(2, {2}, {})
    result = is_consistent(g, tree)
    assert not result
    assert any("condition 1" in v for v in result.violations)


def test_condition2_violation():
    tree = Op("+", Leaf(0), Leaf(1))
    g = _graph(2, {0}, {(0, 1): EdgeType.SAME_UNIT, (0, 2): EdgeType.SAME_UNIT, (1, 2): EdgeType.SAME_UNIT})
    result = is_consistent(g, tree)
    assert not result
    assert any("condition 2" in v for v in result.violations)


# sha256 of repr((ok, violations)) of every structurally valid graph over
# two quantities against every two-leaf canonical tree; it pins each
# violation message, byte for byte, and their order
VIOLATIONS_SHA256 = "43832dc576d8bd104b7e3ef9c57ea37ebb76db730b0736a07a1b014190bdeac8"


def test_violation_messages_pinned():
    digest = hashlib.sha256()
    pairs = vertex_pairs(2)
    for tree in exprtree.canonical_structures(2):
        for labeling in itertools.product((False, True), repeat=3):
            rates = frozenset(v for v, flag in enumerate(labeling) if flag)
            options = [
                [e for e in EdgeType if edge_structurally_valid(e, labeling[i], labeling[j])]
                for i, j in pairs
            ]
            for edges in itertools.product(*options):
                result = is_consistent(UnitDependencyGraph(2, rates, edges), tree)
                digest.update(repr((result.ok, result.violations)).encode())
    assert digest.hexdigest() == VIOLATIONS_SHA256


def test_vertex_count_mismatch_errors():
    tree = Op("+", Leaf(0), Leaf(5))
    with pytest.raises(UdgError):
        is_consistent(_graph(2, set(), {}), tree)


def test_unused_quantities_unconstrained():
    # quantity 1 is absent from the tree; its edges may be anything
    tree = Op("+", Leaf(0), Leaf(2))
    g = _graph(
        3,
        set(),
        {
            (0, 2): EdgeType.SAME_UNIT,
            (0, 3): EdgeType.SAME_UNIT,
            (2, 3): EdgeType.SAME_UNIT,
            (0, 1): EdgeType.NO_RELATION,
            (1, 2): EdgeType.SAME_UNIT,
        },
    )
    assert bool(is_consistent(g, tree))


# --- consistent-graph enumeration ------------------------------------------------

def _brute_force_consistent(tree, n):
    out = set()
    pairs = vertex_pairs(n)
    for labeling in itertools.product((False, True), repeat=n + 1):
        options = [
            [e for e in EdgeType if edge_structurally_valid(e, labeling[i], labeling[j])]
            for i, j in pairs
        ]
        rates = frozenset(v for v, f in enumerate(labeling) if f)
        for combo in itertools.product(*options):
            g = UnitDependencyGraph(n, rates, combo)
            if is_consistent(g, tree):
                out.add(g)
    return out


def test_single_leaf_enumeration():
    tree = Leaf(0)
    graphs = set(enumerate_consistent_udgs(tree, 1))
    assert graphs == _brute_force_consistent(tree, 1)
    # both-not-rate graphs are forced to SameUnit on the (quantity, question) pair
    for g in graphs:
        if not g.rates:
            assert g.edge(0, 1) is EdgeType.SAME_UNIT


def test_fig1_gold_among_enumerated(fig1_tree):
    gold = _fig1_gold_graph()
    for g in enumerate_consistent_udgs(fig1_tree, 3):
        if g == gold:
            break
    else:
        pytest.fail("gold graph not enumerated")


def test_enumeration_sound_and_deduplicated(fig1_tree):
    seen = set()
    count = 0
    for g in enumerate_consistent_udgs(fig1_tree, 3):
        count += 1
        assert g not in seen
        seen.add(g)
        assert bool(is_consistent(g, fig1_tree))
        if count >= 3000:
            break


def test_enumeration_matches_bruteforce_n2():
    values = [Fraction(2), Fraction(6)]
    for structure in exprtree.canonical_structures(2):
        assert set(enumerate_consistent_udgs(structure, 2)) == _brute_force_consistent(structure, 2)
    unused = Leaf(0)  # one quantity outside the tree
    assert set(enumerate_consistent_udgs(unused, 2)) == _brute_force_consistent(unused, 2)


def _walked_edge_choices(tree, n):
    # the walk consistent_edge_choices ran before it read _consistency_checks:
    # permitted_edge_labels once per defined pair of each labeling
    used = exprtree.used_indices(tree)
    pairs = vertex_pairs(n)
    defined = [i in used and (j == n or j in used) for i, j in pairs]
    additive = [leaf for leaf in sorted(used) if udg._path_data(tree, leaf, QUESTION).additive]
    for labeling in itertools.product((False, True), repeat=n + 1):
        if any(labeling[leaf] != labeling[n] for leaf in additive):
            continue
        yield labeling, tuple(
            udg.permitted_edge_labels(tree, i, j, labeling)
            if pair_defined
            else tuple(e for e in EdgeType if edge_structurally_valid(e, labeling[i], labeling[j]))
            for (i, j), pair_defined in zip(pairs, defined)
        )


def test_consistent_edge_choices_equal_the_permitted_labels_walk():
    trees = 0
    for n in range(1, 5):
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                for structure in exprtree.canonical_structures(size):
                    tree = exprtree._relabel(structure, subset)
                    assert list(udg.consistent_edge_choices(tree, n)) == list(_walked_edge_choices(tree, n))
                    trees += 1
    assert trees == 1 + 8 + 89 + 1572  # by n: every subset times its size's structures


@pytest.mark.parametrize("tree, n", [(Leaf(2), 2), (Op("+", Leaf(0), Leaf(3)), 3), (Leaf(0), 0)])
def test_consistent_edge_choices_reject_tree_outside_graph(tree, n):
    with pytest.raises(UdgError, match="tree uses quantity"):
        list(udg.consistent_edge_choices(tree, n))
