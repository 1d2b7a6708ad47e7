import collections
import gc
import hashlib
import itertools
import json
import math
import random
import re
import weakref
from fractions import Fraction

import pytest

from udgsolver import corpus, exprtree, infer, learn, synth, udg, units
from udgsolver.corpus import QUESTION
from udgsolver.exprtree import Leaf, Op, serialize
from udgsolver.infer import (
    InferenceError,
    JointCandidates,
    ScalingParams,
    ScoreTables,
    predict_udg_from_tables,
    score_tree,
    score_udg,
    tune_lambdas,
    values_match,
)
from udgsolver.udg import EdgeType, UnitDependencyGraph, is_consistent, vertex_pairs

from conftest import format_1, make_fig1_tables, oracle_dot


def _tables(n, vertex=None, edge=None, relevance=None, lca=None):
    return ScoreTables(n, vertex or {}, edge or {}, relevance or {}, lca or {})


def _lca_only(denominators):
    # two quantities; the only score is the LCA "+" of the pair, 3
    return ScoreTables(2, {}, {}, {}, {(0, 1, "+"): 3}, denominators)


def test_lca_only_tables_solve_to_the_scored_operation():
    result = JointCandidates(_lca_only((1, 1, 1, 1)), [Fraction(1), Fraction(2)]).solve(ScalingParams())
    assert serialize(result.tree) == "(+ q0 q1)" and result.score == 3.0


@pytest.mark.parametrize(
    "denominators",
    [(1, 1, 1, 0), (1, 1, 1, -3), 2.5, True, (1, 1, 1, 2.5), (1, 1, 1, True), (1, 1, 1), (1, 1, 1, 1, 1), [1, 1, 1, 1]],
)
def test_score_tables_reject_denominators_that_are_not_four_ints_of_at_least_one(denominators):
    # before, a zero divided by zero in the search and a negative one
    # silently flipped the LCA term
    with pytest.raises(ValueError, match="denominators must be a tuple of 4 ints >= 1"):
        _lca_only(denominators)


# --- score_udg -------------------------------------------------------------------

def test_score_udg_not_rate_contributes_nothing():
    tables = _tables(
        1,
        vertex={(0, "Rate"): 5.0, (1, "Rate"): 7.0},
        edge={(0, 1, EdgeType.NO_RELATION): 2.0},
    )
    graph = UnitDependencyGraph.from_edge_map(1, set(), {})
    assert score_udg(graph, tables, ScalingParams()) == 2.0


def test_score_udg_lambda_zero_keeps_vertex_terms():
    tables = _tables(1, vertex={(0, "Rate"): 5.0}, edge={(0, 1, EdgeType.SAME_UNIT): 9.0})
    graph = UnitDependencyGraph.from_edge_map(1, {0}, {(0, 1): EdgeType.SAME_UNIT})
    assert score_udg(graph, tables, ScalingParams(lambda_edge=0.0)) == 5.0


def test_score_udg_fig1_hand_sum():
    tables = make_fig1_tables()
    gold = UnitDependencyGraph.from_edge_map(
        3,
        {1},
        {
            (0, 1): EdgeType.NUM_REV,
            (0, 2): EdgeType.SAME_UNIT,
            (1, 2): EdgeType.NUM_FWD,
            (1, 3): EdgeType.DEN_FWD,
        },
    )
    # vertex: Rate(8)=3; edges: 2+2+2+2 for gold labels, 1+1 for NoRelation pairs
    assert score_udg(gold, tables, ScalingParams()) == pytest.approx(3 + 10.0)
    assert score_udg(gold, tables, ScalingParams(lambda_edge=2.0)) == pytest.approx(3 + 20.0)


# --- predict_udg -----------------------------------------------------------------

def test_predict_udg_recovers_fig1_gold():
    tables = make_fig1_tables()
    graph = predict_udg_from_tables(tables, ScalingParams())
    assert graph.rates == {1}
    assert graph.edge(0, 2) is EdgeType.SAME_UNIT
    assert graph.edge(1, 3) is EdgeType.DEN_FWD
    assert graph.edge(0, 1) is EdgeType.NUM_REV


def test_predict_udg_bruteforce_argmax():
    tables = make_fig1_tables()
    params = ScalingParams()
    best = None
    for labeling in itertools.product((False, True), repeat=4):
        rates = frozenset(v for v, f in enumerate(labeling) if f)
        options = [
            [e for e in EdgeType if udg.edge_structurally_valid(e, labeling[i], labeling[j])]
            for i, j in vertex_pairs(3)
        ]
        for combo in itertools.product(*options):
            g = UnitDependencyGraph(3, rates, combo)
            s = score_udg(g, tables, params)
            if best is None or s > best[0]:
                best = (s, g)
    predicted = predict_udg_from_tables(tables, params)
    assert score_udg(predicted, tables, params) == pytest.approx(best[0])


def test_predict_udg_structural_constraint():
    # huge reward for a rate edge out of a not-rate vertex must be unreachable
    tables = _tables(
        1,
        vertex={(0, "Rate"): -100.0, (1, "Rate"): -100.0},
        edge={(0, 1, EdgeType.NUM_FWD): 1000.0},
    )
    graph = predict_udg_from_tables(tables, ScalingParams())
    if 0 not in graph.rates:
        assert graph.edge(0, 1) is not EdgeType.NUM_FWD


def _random_graph_tables(n, seed):
    rng = random.Random(seed)
    vertex = {(v, "Rate"): rng.uniform(-2.0, 2.0) for v in range(n + 1)}
    edge = {(i, j, e): rng.uniform(-2.0, 2.0) for i, j in vertex_pairs(n) for e in EdgeType}
    return _tables(n, vertex=vertex, edge=edge)


def _valid_options(labeling, i, j):
    return [e for e in EdgeType if udg.edge_structurally_valid(e, labeling[i], labeling[j])]


def test_predict_udg_beam_path_equals_argmax():
    # seven vertices, the most a solvable problem has
    n = 6
    tables = _random_graph_tables(n, seed=5)
    params = ScalingParams()
    best = None
    for labeling in itertools.product((False, True), repeat=n + 1):
        edges = tuple(
            max(_valid_options(labeling, i, j), key=lambda e: tables.edge_score(i, j, e))
            for i, j in vertex_pairs(n)
        )
        rates = frozenset(v for v, flag in enumerate(labeling) if flag)
        graph = UnitDependencyGraph(n, rates, edges)
        total = score_udg(graph, tables, params)
        if best is None or total > best[0]:
            best = (total, graph)
    assert predict_udg_from_tables(tables, params) == best[1]


def test_predict_udg_beam_path_zero_edge_scale_takes_first_edges():
    n = 6
    tables = _random_graph_tables(n, seed=6)
    graph = predict_udg_from_tables(tables, ScalingParams(lambda_edge=0.0))
    rates = frozenset(v for v in range(n + 1) if tables.vertex_score(v, "Rate") > 0)
    labeling = [v in rates for v in range(n + 1)]
    edges = tuple(_valid_options(labeling, i, j)[0] for i, j in vertex_pairs(n))
    assert graph == UnitDependencyGraph(n, rates, edges)


def test_predict_udg_refuses_more_quantities_than_trees_cover():
    n = exprtree.MAX_ENUM_LEAVES + 1
    with pytest.raises(InferenceError, match="over 7 quantities"):
        predict_udg_from_tables(_random_graph_tables(n, seed=7), ScalingParams())


def test_predict_udg_neutral_deterministic():
    tables = _tables(1)
    g1 = predict_udg_from_tables(tables, ScalingParams())
    g2 = predict_udg_from_tables(tables, ScalingParams())
    assert g1 == g2
    assert g1.n_quantities == 1


# --- score_tree ------------------------------------------------------------------

def test_score_tree_all_used_has_no_relevance_term():
    tables = _tables(2, relevance={(0, "Irrelevant"): 9.0, (1, "Irrelevant"): 9.0})
    tree = Op("+", Leaf(0), Leaf(1))
    assert score_tree(tree, tables, ScalingParams()) == 0.0


def test_score_tree_single_pair():
    tables = _tables(2, lca={(0, 1, "+"): 5.0})
    tree = Op("+", Leaf(0), Leaf(1))
    assert score_tree(tree, tables, ScalingParams()) == 5.0


def test_score_tree_fig1_hand_sum(fig1_tree):
    tables = make_fig1_tables()
    # pairs: (0,2) "-" = 5, (0,1) "/" = 5, (1,2) "/r" = 5
    assert score_tree(fig1_tree, tables, ScalingParams()) == pytest.approx(15.0)


def test_score_tree_scales_relevance():
    tables = _tables(2, relevance={(1, "Irrelevant"): 4.0}, lca={})
    tree = Leaf(0)
    assert score_tree(tree, tables, ScalingParams(lambda_rel=0.5)) == pytest.approx(2.0)


# --- joint inference --------------------------------------------------------------

def test_solve_joint_fig1_mock(fig1_problem):
    tables = make_fig1_tables()
    result = JointCandidates(tables, fig1_problem.values, beam=200).solve(ScalingParams())
    assert result.value == 7
    assert serialize(result.tree, fig1_problem.values) == "(/ (- 66 10) 8)"
    assert result.graph.edge(0, 2) is EdgeType.SAME_UNIT
    assert result.graph.edge(1, 3) is EdgeType.DEN_FWD
    assert bool(is_consistent(result.graph, result.tree))


def test_scored_tuple_breakdown_recheck(fig1_problem):
    tables = make_fig1_tables()
    params = ScalingParams(lambda_rel=0.5, lambda_vertex=2.0, lambda_edge=0.25)
    result = JointCandidates(tables, fig1_problem.values, beam=200).solve(params)
    recomputed = (
        params.lambda_rel * result.rel_sum
        + result.lca_sum
        + params.lambda_vertex * result.vertex_sum
        + params.lambda_edge * result.edge_sum
    )
    assert result.score == pytest.approx(recomputed)
    assert sum(result.breakdown().values()) == pytest.approx(result.score)


def test_zero_lambdas_reduce_to_base_solver():
    values = [Fraction(3), Fraction(4)]
    tables = _tables(
        2,
        lca={(0, 1, "-r"): 6.0, (0, 1, "+"): 2.0},
        vertex={(0, "Rate"): 50.0},
        edge={(0, 1, EdgeType.SAME_UNIT): 50.0},
    )
    params = ScalingParams(lambda_vertex=0.0, lambda_edge=0.0)
    result = JointCandidates(tables, values, beam=None).solve(params)
    trees = list(exprtree.enumerate_trees(values))
    best_tree = max(
        trees,
        key=lambda t: (score_tree(t, tables, params), -exprtree.node_count(t)),
    )
    assert result.tree == best_tree
    assert result.value == 1  # 4 - 3


def test_beam_one_matches_tree_argmax():
    tables = make_fig1_tables()
    values = (Fraction(66), Fraction(8), Fraction(10))
    wide = JointCandidates(tables, values, beam=None).solve(ScalingParams())
    narrow = JointCandidates(tables, values, beam=1).solve(ScalingParams())
    assert score_tree(wide.tree, tables, ScalingParams()) >= score_tree(
        narrow.tree, tables, ScalingParams()
    )


@pytest.mark.parametrize("beam", [0, -3, 2.0, True, "5"])
def test_beam_not_an_int_of_at_least_one_rejected(beam):
    tables = make_fig1_tables()
    values = (Fraction(66), Fraction(8), Fraction(10))
    with pytest.raises(ValueError, match="beam must be None or an int >= 1"):
        JointCandidates(tables, values, beam=beam)


def test_best_graph_equals_predict_udg_from_tables():
    rng = random.Random(5)
    for n in (1, 2, 3):
        tables = _tables(
            n,
            vertex={(v, "Rate"): rng.uniform(-2.0, 2.0) for v in range(n + 1)},
            edge={(i, j, e): rng.uniform(-2.0, 2.0) for i, j in vertex_pairs(n) for e in EdgeType},
        )
        cands = JointCandidates(tables, [Fraction(rng.randint(1, 9)) for _ in range(n)])
        for params in (ScalingParams(), ScalingParams(lambda_vertex=0.5, lambda_edge=0.0)):
            assert cands.best_graph(params) == predict_udg_from_tables(tables, params)


def test_solve_joint_exhaustive_equivalence_small(trained_suite, synthetic_corpus):
    params = ScalingParams(lambda_rel=1.0, lambda_vertex=1.0, lambda_edge=1.0)
    sample = [p for p in synthetic_corpus if p.n == 2][:6]
    for p in sample:
        tables = infer.build_score_tables(p, trained_suite)
        result = JointCandidates(tables, p.values, beam=None).solve(params)
        best = None
        for tree in exprtree.enumerate_trees(p.values):
            rel_sum, lca_sum = infer.tree_term_sums(tree, tables)
            for graph in udg.enumerate_consistent_udgs(tree, p.n):
                vsum, esum = infer.graph_term_sums(graph, tables)
                total = params.lambda_rel * rel_sum + lca_sum + vsum + esum
                key = (
                    -total,
                    exprtree.node_count(tree),
                    exprtree.serialize(tree),
                    graph.sort_key,
                )
                if best is None or key < best[0]:
                    best = (key, tree, graph)
        assert result.tree == best[1]
        assert result.graph == best[2]


def _assert_solve_is_exhaustive_top1(cands):
    # field for field, under every lambda_rel in turn, each ranking its own beam
    for lam_rel, lam_vertex, lam_edge in itertools.product((0.0, 1.0, 2.5), repeat=3):
        params = ScalingParams(lam_rel, lam_vertex, lam_edge)
        assert cands.solve(params) == cands.top_k(params, 1)[0]


@pytest.mark.parametrize("beam", [200, 5, None])
def test_bounded_solve_equals_exhaustive_top1(trained_suite, synthetic_corpus, beam):
    sample = [p for p in synthetic_corpus if p.n == 2][:3] + [p for p in synthetic_corpus if p.n == 3][:5]
    for p in sample:
        tables = infer.build_score_tables(p, trained_suite)
        cands = JointCandidates(tables, p.values, beam=beam)
        _assert_solve_is_exhaustive_top1(cands)


def test_bounded_solve_equals_exhaustive_top1_random_tables():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(1, 3)
        if trial % 2:
            draw = lambda: float(rng.randint(-2, 2))  # integer scores make float ties exact
        else:
            draw = lambda: rng.uniform(-2.0, 2.0)
        tables = _tables(
            n,
            vertex={(v, "Rate"): draw() for v in range(n + 1)},
            edge={(i, j, e): draw() for i, j in vertex_pairs(n) for e in EdgeType},
            relevance={(q, "Irrelevant"): draw() for q in range(n)},
            lca={
                (i, j, op): min(0.0, draw())
                for i in range(n) for j in range(i + 1, n) for op in exprtree.OPS
            },
        )
        values = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        cands = JointCandidates(tables, values, beam=rng.choice([200, 5, None]))
        _assert_solve_is_exhaustive_top1(cands)


def test_bounded_solve_scans_tree_whose_bound_ties_incumbent():
    # (+ 3 1) has the best tree score (0) and its forced SameUnit edges add
    # nothing, so it leads with total 0. A one-leaf tree scores -1 but may
    # label pair (0, 1) NoRelation for +1: its bound equals the incumbent's
    # total, and it wins the tie on node count, so it must still be scanned.
    values = [Fraction(3), Fraction(1)]
    lca = {(0, 1, op): -5.0 for op in exprtree.OPS} | {(0, 1, "+"): 0.0}
    tables = _tables(
        2,
        edge={(0, 1, EdgeType.NO_RELATION): 1.0},
        relevance={(0, "Irrelevant"): -1.0, (1, "Irrelevant"): -1.0},
        lca=lca,
    )
    params = ScalingParams()
    cands = JointCandidates(tables, values, beam=None)
    assert serialize(cands.ranked(params.lambda_rel)[0].tree) == "(+ q0 q1)"
    result = cands.solve(params)
    assert result == cands.top_k(params, 1)[0]
    assert result.score == 0.0
    assert exprtree.node_count(result.tree) == 1
    assert result.graph.edge(0, 1) is EdgeType.NO_RELATION


def test_no_quantities_errors(trained_suite):
    from udgsolver.corpus import build_problem

    p = build_problem("empty", "Nothing numeric happens here at all.")
    with pytest.raises(InferenceError):
        infer.solve_joint(p, trained_suite)


def test_values_match_tolerance():
    assert values_match(Fraction(7), Fraction(7))
    assert not values_match(Fraction(7), Fraction(8))
    assert values_match(Fraction(1, 10**12), Fraction(0))


def test_negative_lambda_rejected():
    with pytest.raises(ValueError):
        ScalingParams(lambda_edge=-1.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["lambda_rel", "lambda_vertex", "lambda_edge"])
def test_non_finite_lambda_rejected(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ScalingParams(**{name: value})


# --- tuning -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tuning_setup():
    problems = synth.gen_synthetic_corpus(seed=7, size=200)
    order = [p for p in problems if "rate_order_div" in p.id]
    rest = [p for p in problems if "rate_order_div" not in p.id]
    train = rest + order[5:]
    suite = learn.train_suite(train, learn.FeatureConfig(), epochs=10, seed=0)
    full = ScalingParams(lambda_rel=1.0, lambda_vertex=2.0, lambda_edge=1.0)
    base = ScalingParams(lambda_rel=1.0, lambda_vertex=0.0, lambda_edge=0.0)
    dev = []
    for p in order[:5]:
        tables = infer.build_score_tables(p, suite)
        cands = JointCandidates(tables, p.values, beam=200)
        got_full = values_match(cands.solve(full).value, p.gold.answer)
        got_base = values_match(cands.solve(base).value, p.gold.answer)
        if got_full and not got_base:
            dev.append(p)
    assert dev, "fixture expects at least one problem the graph terms fix"
    return dev, suite


def test_tune_picks_nonzero_lambdas_when_they_help(tuning_setup):
    dev, suite = tuning_setup
    params = tune_lambdas(
        dev,
        suite,
        grid={"lambda_rel": (1.0,), "lambda_vertex": (0.0, 2.0), "lambda_edge": (0.0, 1.0)},
        beam=200,
    )
    assert params.lambda_vertex > 0 or params.lambda_edge > 0


def test_tune_single_point_grid(tuning_setup):
    dev, suite = tuning_setup
    params = tune_lambdas(
        dev,
        suite,
        grid={"lambda_rel": (0.5,), "lambda_vertex": (2.0,), "lambda_edge": (0.25,)},
        beam=50,
    )
    assert params == ScalingParams(lambda_rel=0.5, lambda_vertex=2.0, lambda_edge=0.25)


def test_tune_deterministic(tuning_setup):
    dev, suite = tuning_setup
    grid = {"lambda_rel": (1.0,), "lambda_vertex": (0.0, 1.0), "lambda_edge": (0.0, 1.0)}
    assert tune_lambdas(dev, suite, grid=grid) == tune_lambdas(dev, suite, grid=grid)


def test_tune_empty_dev_errors(tuning_setup):
    _, suite = tuning_setup
    with pytest.raises(ValueError):
        tune_lambdas([], suite)


def test_tune_tie_breaks_toward_smaller(tuning_setup):
    dev, suite = tuning_setup
    # a grid where every point scores identically must return the smallest
    params = tune_lambdas(
        dev[:1],
        suite,
        grid={"lambda_rel": (1.0,), "lambda_vertex": (2.0, 4.0), "lambda_edge": (1.0, 4.0)},
        beam=200,
    )
    assert (params.lambda_vertex, params.lambda_edge) == (2.0, 1.0)


def test_beam_monotone_accuracy(trained_suite):
    # beam 200 may not lose accuracy relative to beam 1
    problems = synth.gen_synthetic_corpus(seed=5, size=60)
    params = ScalingParams(lambda_rel=1.0, lambda_vertex=1.0, lambda_edge=1.0)
    wide = narrow = 0
    for p in problems:
        tables = infer.build_score_tables(p, trained_suite)
        for beam, bucket in ((200, "wide"), (1, "narrow")):
            cands = JointCandidates(tables, p.values, beam=beam)
            hit = values_match(cands.solve(params).value, p.gold.answer)
            if bucket == "wide":
                wide += hit
            else:
                narrow += hit
    assert wide >= narrow


def test_returned_tuples_always_consistent(trained_suite, synthetic_corpus):
    params = ScalingParams(lambda_rel=1.0, lambda_vertex=2.0, lambda_edge=1.0)
    for p in synthetic_corpus[:30]:
        result = infer.solve_joint(p, trained_suite, params, beam=100)
        assert bool(is_consistent(result.graph, result.tree))


# --- score tables off one feature pass -------------------------------------------

def _oracle_vertex_pair(problem, vi, vj, config, bias, first, second, flags):
    # the per-query assembly build_score_tables used before the feature pass
    fv = {bias: 1.0}
    for role, v in ((first, vi), (second, vj)):
        for name, weight in learn.vertex_features(problem, v, config).items():
            fv[f"{role}{name}"] = fv.get(f"{role}{name}", 0.0) + weight
    if flags and config.rule_features:
        ui, uj = units.extract_unit(problem, vi), units.extract_unit(problem, vj)
        fv["shared_unit" if units.units_share_tokens(ui, uj) else "no_shared_unit"] = 1.0
        if ui.den_unit and set(ui.den_unit) & set(uj.surface_unit):
            fv["i_den_matches_j"] = 1.0
        if uj.den_unit and set(uj.den_unit) & set(ui.surface_unit):
            fv["j_den_matches_i"] = 1.0
    return fv


def _oracle_relevance(problem, q, config):
    fv = {f"rel|{k}": v for k, v in learn.vertex_features(problem, q, config).items()}
    if config.rule_features:
        uq, uquestion = units.extract_unit(problem, q), units.extract_unit(problem, QUESTION)
        key = "unit_matches_question" if units.units_share_tokens(uq, uquestion) else "unit_mismatch_question"
        fv[f"rel|{key}"] = 1.0
        if uq.den_unit and set(uq.den_unit) & set(uquestion.surface_unit):
            fv["rel|den_matches_question"] = 1.0
    return fv


def _oracle_tables(problem, suite):
    """Every query's vector rebuilt from vertex_features and units, scored one
    label at a time with the exact per-label dot product over each model's
    numerators; also checks the public per-query feature functions against
    the rebuilt vectors."""
    n, config = problem.n, suite.config
    vid = lambda v: QUESTION if v == n else v
    vertex, edge, relevance, lca = {}, {}, {}, {}
    for v in range(n + 1):
        fv = learn.vertex_features(problem, vid(v), config)
        for label in learn.VERTEX_LABELS:
            vertex[(v, label)] = oracle_dot(fv, suite.vertex.weights[label])
    for i, j in vertex_pairs(n):
        fv = _oracle_vertex_pair(problem, i, vid(j), config, "pair_bias", "i|", "j|", True)
        assert list(learn.edge_features(problem, i, vid(j), config).items()) == list(fv.items())
        for label in EdgeType:
            edge[(i, j, label)] = oracle_dot(fv, suite.edge.weights[label.value])
    for q in range(n):
        fv = _oracle_relevance(problem, q, config)
        assert list(learn.relevance_features(problem, q, config).items()) == list(fv.items())
        for label in learn.RELEVANCE_LABELS:
            relevance[(q, label)] = oracle_dot(fv, suite.relevance.weights[label])
    for i in range(n):
        for j in range(i + 1, n):
            fv = _oracle_vertex_pair(problem, i, j, config, "lca_bias", "lcai|", "lcaj|", False)
            assert list(learn.lca_features(problem, i, j, config).items()) == list(fv.items())
            raw = {op: oracle_dot(fv, suite.lca.weights[op]) for op in learn.OP_LABELS}
            top = max(raw.values())
            for op, s in raw.items():
                lca[(i, j, op)] = s - top
    exact = [
        {key: Fraction(s, getattr(suite, part).denominator) for key, s in table.items()}
        for table, (part, _) in zip((vertex, edge, relevance, lca), learn.PARTS)
    ]
    return ScoreTables(n, *exact)


def _bits(tables):
    # every score, each checked to be an int numerator, as its exact value,
    # position by position in the tables' one layout
    parts = [(getattr(tables, part), d) for (part, _), d in zip(learn.PARTS, tables.denominators)]
    assert all(type(v) is int for part, _ in parts for v in part)
    return [[Fraction(v, d) for v in part] for part, d in parts]


def _thinned(model, rng):
    # drop about a third of the weights and zero (as 0.0 or -0.0) another third
    weights = {}
    for label, table in model.weights.items():
        kept = {}
        for name, w in table.items():
            pick = rng.random()
            if pick < 0.33:
                continue
            kept[name] = rng.choice([0.0, -0.0]) if pick < 0.66 else w
        weights[label] = kept
    return learn.LinearModel(model.labels, weights, model.epochs, model.seed, model.denominator)


def _format_1_with_ints(suite, path):
    # the suite as a format-1 file may hold it: float weights, and in one
    # edge label the ints -2 (the pair bias) and 2**53 + 1 (the first
    # vertex's bias, its first feature), which no float holds; the vertex
    # feature "bias" is weighed by the edge model alone
    suite.save(path)
    obj = format_1(json.loads(path.read_text(encoding="utf-8")))
    for part, prefix in learn.VERTEX_ROLES:
        if part != "edge":
            for label in obj[part]["labels"]:
                obj[part]["weights"].pop(f"{label}\x1f{prefix}bias", None)
    label = obj["edge"]["labels"][0]
    obj["edge"]["weights"][f"{label}\x1fpair_bias"] = -2
    obj["edge"]["weights"][f"{label}\x1fi|bias"] = 2**53 + 1
    path.write_text(json.dumps(obj), encoding="utf-8")
    return learn.ClassifierSuite.load(path), obj


@pytest.fixture(scope="module")
def feature_variant_suites(synthetic_corpus, tmp_path_factory):
    train = synthetic_corpus[:150]
    configs = (
        learn.FeatureConfig(),
        learn.FeatureConfig(context_features=False),
        learn.FeatureConfig(rule_features=False),
        learn.FeatureConfig(window=0),
    )
    suites = [learn.train_suite(train, config, epochs=3, seed=1) for config in configs]
    rng = random.Random(5)
    base = suites[0]
    suites.append(
        learn.ClassifierSuite(
            *(_thinned(m, rng) for m in (base.vertex, base.edge, base.relevance, base.lca)),
            config=base.config,
        )
    )
    suites.append(_format_1_with_ints(base, tmp_path_factory.mktemp("ints") / "model.json")[0])
    return suites


def test_score_tables_bit_identical_to_per_query_oracle(feature_variant_suites):
    held_out = synth.gen_synthetic_corpus(seed=3, size=50)[::2]
    for suite in feature_variant_suites:
        for p in held_out:
            assert _bits(infer.build_score_tables(p, suite)) == _bits(_oracle_tables(p, suite))


def test_format_1_suite_scores_its_weights_exactly(trained_suite, tmp_path):
    # each score over its denominator is the exact dot product of the
    # file's weights, the float ones and the ints alike
    suite, obj = _format_1_with_ints(trained_suite, tmp_path / "model.json")
    edge = suite.edge
    weights = edge.weights[edge.labels[0]]
    assert Fraction(weights["pair_bias"], edge.denominator) == -2
    assert Fraction(weights["i|bias"], edge.denominator) == 2**53 + 1
    bias = {prefix + "bias" for _, prefix in learn.VERTEX_ROLES}
    weighing = {
        part
        for part, _ in learn.PARTS
        for table in getattr(suite, part).weights.values()
        if bias & table.keys()
    }
    assert weighing == {"edge"}
    p = synth.gen_synthetic_corpus(seed=3, size=50)[0]
    tables = infer.build_score_tables(p, suite)
    assert _bits(tables) == _bits(_oracle_tables(p, suite))
    file_weights = {label: {} for label in edge.labels}
    for key, w in obj["edge"]["weights"].items():
        label, _, name = key.partition("\x1f")
        file_weights[label][name] = w
    for i, j in vertex_pairs(p.n):
        fv = learn.edge_features(p, i, QUESTION if j == p.n else j, suite.config)
        for label in EdgeType:
            exact = oracle_dot(fv, file_weights[label.value])
            assert Fraction(tables.edge_score(i, j, label), edge.denominator) == exact


def test_inference_table_is_no_part_of_the_suite(trained_suite, synthetic_corpus, tmp_path):
    path, again = tmp_path / "model.json", tmp_path / "again.json"
    trained_suite.save(path)
    suite, fresh = learn.ClassifierSuite.load(path), learn.ClassifierSuite.load(path)
    shown = repr(suite)
    for p in synthetic_corpus[:5]:
        infer.build_score_tables(p, suite)
    assert suite._inference
    assert suite == fresh and repr(suite) == shown == repr(fresh)
    suite.save(again)
    assert again.read_bytes() == path.read_bytes()
    # no reference cycle: the suite goes with its last reference, not at the
    # next collection
    gc.disable()
    try:
        ref = weakref.ref(suite)
        del suite
        assert ref() is None
    finally:
        gc.enable()


def test_score_tables_run_one_feature_pass(monkeypatch, trained_suite, synthetic_corpus):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(learn, "vertex_features", counted("vertex", learn.vertex_features))
    # a pass lists and tags the tokens once and reads every unit off them
    monkeypatch.setattr(units, "tag_tokens", counted("tag", units.tag_tokens))
    monkeypatch.setattr(units, "unit_at", counted("unit", units.unit_at))
    monkeypatch.setattr(units, "pos_tag", counted("pos_tag", units.pos_tag))
    for p in [q for q in synthetic_corpus if q.n == 2][:2] + [q for q in synthetic_corpus if q.n == 3][:2]:
        calls.clear()
        infer.build_score_tables(p, trained_suite)
        assert calls == {"vertex": p.n + 1, "unit": p.n + 1, "tag": 1, "pos_tag": len(p.tokens)}


# --- positional score tables -------------------------------------------------------

#: each classifier's labels in the tables' one layout, the edge labels as EdgeTypes
_LAYOUT_LABELS = (learn.VERTEX_LABELS, tuple(EdgeType), learn.RELEVANCE_LABELS, exprtree.OPS)


def _dict_keys(n, labels):
    # the score dicts' keys over n quantities, query by query and each
    # query's ``labels`` in order (``InferenceTable.keys`` before the tables
    # were positional)
    vertices, quantities = [(v,) for v in range(n + 1)], [(q,) for q in range(n)]
    queries = (vertices, vertex_pairs(n), quantities, itertools.combinations(range(n), 2))
    return tuple(tuple((*q, label) for q in qs for label in ls) for qs, ls in zip(queries, labels))


def _dict_tables(problem, suite):
    # build_score_tables before the tables were positional: every query's
    # scores in its model's label order, one zip of the keys per classifier,
    # each LCA pair shifted by its best score
    feats = learn.problem_features(problem, suite.config)
    n = problem.n
    pairs = list(itertools.combinations(range(n), 2))
    scores = (
        [suite.vertex.scores(fv) for fv in feats.vectors],
        [suite.edge.scores(learn.expand(feats.pair_blocks(learn.EDGE_LAYOUT, i, j))) for i, j in vertex_pairs(n)],
        [suite.relevance.scores(learn.expand(feats.relevance_blocks(q))) for q in range(n)],
        [suite.lca.scores(learn.expand(feats.pair_blocks(learn.LCA_LAYOUT, i, j))) for i, j in pairs],
    )
    labels = (suite.vertex.labels, tuple(map(EdgeType, suite.edge.labels)), suite.relevance.labels, suite.lca.labels)
    flat = itertools.chain.from_iterable
    shifted = ([s - top for s in row] for row, top in zip(scores[3], map(max, scores[3])))
    rows = (flat(scores[0]), flat(scores[1]), flat(scores[2]), flat(shifted))
    return [dict(zip(keys, row)) for keys, row in zip(_dict_keys(n, labels), rows)]


def _reordered(suite, path):
    # the suite saved, and loaded back from a file that lists every model's
    # labels in reverse
    suite.save(path)
    obj = json.loads(path.read_text(encoding="utf-8"))
    for part, _ in learn.PARTS:
        obj[part]["labels"].reverse()
    path.write_text(json.dumps(obj), encoding="utf-8")
    return learn.ClassifierSuite.load(path)


@pytest.fixture(scope="module")
def layout_suites(feature_variant_suites, synthetic_corpus, tmp_path_factory):
    # the eval's feature configs (both families, no context, no rule
    # features, neither) and a suite whose file lists its labels in reverse
    neither = learn.FeatureConfig(context_features=False, rule_features=False)
    reordered = _reordered(feature_variant_suites[0], tmp_path_factory.mktemp("reordered") / "model.json")
    for part, labels in learn.PARTS:
        assert getattr(reordered, part).labels == labels[::-1]
    return [
        *feature_variant_suites[:3],
        learn.train_suite(synthetic_corpus[:150], neither, epochs=3, seed=1),
        reordered,
    ]


def _layout_problems():
    return [
        *synth.gen_synthetic_corpus(seed=3, size=50)[::6],
        corpus.build_problem("n1", "Tom has 5 apples. How many apples does Tom have?"),
        corpus.build_problem(
            "n4",
            "A shop sold 12 pens on Monday and 7 pens on Tuesday. Each pen costs 3 "
            "dollars and 2 pens broke. How many dollars did the shop earn?",
        ),
    ]


def test_positional_tables_equal_the_dict_tables(layout_suites):
    accessors = ("vertex_score", "edge_score", "relevance_score", "lca_score")
    grid = (ScalingParams(), ScalingParams(0.5, 2.0, 0.0))
    for suite in layout_suites:
        for p in _layout_problems():
            tables = infer.build_score_tables(p, suite)
            dicts = _dict_tables(p, suite)
            for accessor, table, keys in zip(accessors, dicts, _dict_keys(p.n, _LAYOUT_LABELS)):
                assert sorted(table, key=repr) == sorted(keys, key=repr)
                assert all(getattr(tables, accessor)(*key) == score for key, score in table.items())
            # the same scores set by hand, in the dicts' key order, solve alike
            by_hand = ScoreTables(p.n, *dicts, tables.denominators)
            assert by_hand == tables
            # with no beam, top_k at n=4 sorts every tuple of every tree (about 1 s)
            for beam in (200, 5, None) if p.n <= 3 else (200, 5):
                search, hand_search = JointCandidates(tables, p.values, beam), JointCandidates(by_hand, p.values, beam)
                for params in grid:
                    results = (search.solve(params), *search.top_k(params, 5))
                    assert [_result_bits(r) for r in results] == [
                        _result_bits(r) for r in (hand_search.solve(params), *hand_search.top_k(params, 5))
                    ]


def test_reordered_labels_score_and_solve_as_the_suite(layout_suites, feature_variant_suites):
    # the table permutes a loaded model's labels into the one layout once
    base, reordered = feature_variant_suites[0], layout_suites[-1]
    for p in _layout_problems():
        tables = infer.build_score_tables(p, reordered)
        assert tables == infer.build_score_tables(p, base)
        for beam in (200, 5, None):
            params = ScalingParams(1.0, 0.5, 0.0)
            assert _result_bits(JointCandidates(tables, p.values, beam).solve(params)) == _result_bits(
                infer.solve_joint(p, base, params, beam)
            )


@pytest.mark.parametrize(
    "part, key",
    [
        ("lca", (1, 0, "+")),  # a pair out of mention order
        ("vertex", (7, "Rate")),  # no vertex 7 over 2 quantities
        ("vertex", (0, "rate")),
        ("edge", (0, 1, "SameUnit")),  # a label string, not an EdgeType
        ("edge", (1, 0, EdgeType.SAME_UNIT)),
        ("relevance", (2, "Irrelevant")),  # the question has no relevance score
        ("lca", (0, 2, "+")),
        ("lca", (0, 1)),
    ],
)
def test_hand_set_tables_refuse_keys_that_name_no_query(part, key):
    # before, such a key was kept and never read: (1, 0, "+") left the LCA
    # "+" of the pair unscored, and the solve returned q0 with score 0.0
    parts = {name: {} for name, _ in learn.PARTS}
    parts[part][key] = 3
    with pytest.raises(ValueError, match=f"{part} score key {re.escape(repr(key))} names no query over 2 quantities"):
        ScoreTables(2, *parts.values())


def test_positional_rows_need_their_layout_and_denominators():
    tables = _lca_only((1, 2, 3, 4))
    assert tables.lca == (3, 0, 0, 0, 0, 0) and tables.vertex == (0,) * 6 and len(tables.edge) == 18
    rows = (tables.vertex, tables.edge, tables.relevance, tables.lca)
    assert ScoreTables(2, *rows, (1, 2, 3, 4)) == tables
    with pytest.raises(ValueError, match="score rows need their denominators"):
        ScoreTables(2, *rows)
    with pytest.raises(ValueError, match=r"score rows of lengths \(6, 18, 4, 5\) do not fit 2 quantities"):
        ScoreTables(2, *rows[:3], tables.lca[:5], (1, 2, 3, 4))
    with pytest.raises(ValueError, match="lca scores must all be mappings or all tuples, got list"):
        ScoreTables(2, {}, {}, {}, [3, 0, 0, 0, 0, 0])
    # a query outside the layout has no score, rather than 0
    for accessor, query in (("vertex_score", (3, "Rate")), ("edge_score", (0, 1, "SameUnit")), ("lca_score", (1, 0, "+"))):
        with pytest.raises(KeyError):
            getattr(tables, accessor)(*query)


# --- one search per problem, ranked by each solve's own lambda_rel -------------

def _fresh_build_tune(dev, suite, grid, beam):
    # the tuning loop before the search was shared: a fresh build per lambda_rel
    golds = [p.gold.answer for p in dev]
    tables = [infer.build_score_tables(p, suite) for p in dev]
    best = None
    for lam_rel in sorted(grid["lambda_rel"]):
        candidates = [JointCandidates(t, p.values, beam=beam) for t, p in zip(tables, dev)]
        for lam_vertex in sorted(grid["lambda_vertex"]):
            for lam_edge in sorted(grid["lambda_edge"]):
                params = ScalingParams(lam_rel, lam_vertex, lam_edge)
                correct = sum(values_match(c.solve(params).value, g) for c, g in zip(candidates, golds))
                if best is None or correct > best[0]:
                    best = (correct, params)
    return best[1]


@pytest.mark.parametrize("beam", [200, 5, None])
def test_tune_equals_fresh_build_per_lambda_rel(monkeypatch, trained_suite, beam):
    built = []

    class Recorded(JointCandidates):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    dev = synth.gen_synthetic_corpus(seed=4, size=50)[::4]
    rng = random.Random(beam or 0)
    for _ in range(3):
        grid = {axis: rng.sample(infer.LAMBDA_GRID, rng.randint(1, 3)) for axis in infer.DEFAULT_TUNE_GRID}
        expected = _fresh_build_tune(dev, trained_suite, grid, beam)
        monkeypatch.setattr(infer, "JointCandidates", Recorded)
        assert tune_lambdas(dev, trained_suite, grid=grid, beam=beam) == expected
        monkeypatch.undo()
        assert len(built) == len(dev)
        built.clear()


def test_reused_search_equals_fresh_build_at_each_lambda_rel():
    # one search solved at lambda_rel 1, 0, 1: a beam of 5 keeps other trees
    # under each scale, so a search that kept its first ranking answers wrong
    rng = random.Random(3)
    for _ in range(30):
        n = 3
        tables = _tables(
            n,
            vertex={(v, "Rate"): rng.uniform(-2.0, 2.0) for v in range(n + 1)},
            edge={(i, j, e): rng.uniform(-2.0, 2.0) for i, j in vertex_pairs(n) for e in EdgeType},
            relevance={(q, "Irrelevant"): rng.uniform(-4.0, 4.0) for q in range(n)},
            lca={
                (i, j, op): min(0.0, rng.uniform(-2.0, 2.0))
                for i in range(n) for j in range(i + 1, n) for op in exprtree.OPS
            },
        )
        values = [Fraction(rng.randint(1, 9)) for _ in range(n)]
        cands = JointCandidates(tables, values, beam=5)
        unpruned = JointCandidates(tables, values, beam=None)
        for lam_rel in (1.0, 0.0, 1.0):
            params = ScalingParams(lambda_rel=lam_rel)
            result = cands.solve(params)
            assert result == JointCandidates(tables, values, beam=5).solve(params)
            assert result == cands.top_k(params, 1)[0]
            # oracle: the 5 best trees under this lambda_rel, then the best
            # tuple over them in the unpruned search's exhaustive ranking
            trees = sorted(
                exprtree.enumerate_trees(values),
                key=lambda t: (-score_tree(t, tables, params), exprtree.node_count(t), serialize(t)),
            )
            kept = {serialize(t) for t in trees[:5]}
            ranked = unpruned.top_k(params, len(trees) * 2 ** (n + 1))
            assert result == next(r for r in ranked if serialize(r.tree) in kept)


# --- lazy best-first tree stage ---------------------------------------------------

def _relabel_stage(tables, values):
    # every valid tree in placement order: relabel each structure onto each
    # subset, evaluate it and walk its root paths for the term sums
    vals = [Fraction(v) for v in values]
    n = len(vals)
    out = []
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            for structure in exprtree.canonical_structures(size):
                tree = exprtree._relabel(structure, subset)
                try:
                    value = exprtree.evaluate(tree, vals)
                except exprtree.EvaluationError:
                    continue
                if value > 0:
                    out.append((tree, value, *infer.tree_term_sums(tree, tables)))
    return out


def _oracle_ranking(stage, lambda_rel, beam):
    # filter, sort, cut: the ranking before trees were popped lazily
    ranked = sorted(
        stage,
        key=lambda t: (-(lambda_rel * t[2] + t[3]), exprtree.node_count(t[0]), serialize(t[0])),
    )
    return ranked if beam is None else ranked[:beam]


def _float_bits(x):
    return type(x), float(x).hex()


_ORACLE_BEAMS = (1, 2, 7, None)
_ORACLE_LAMBDAS = (1.0, 0.0, 0.5, 2.0)


def _assert_ranking_equals_relabel_oracle(tables, values):
    """Check every beam and lambda_rel against the oracle; return how many
    cuts fell inside a group of equal (score, nodes) keys."""
    stage = _relabel_stage(tables, values)
    straddles = 0
    for beam in _ORACLE_BEAMS:
        cands = JointCandidates(tables, values, beam=beam)
        for lambda_rel in _ORACLE_LAMBDAS:
            if not stage:
                with pytest.raises(InferenceError, match="no candidate expression trees"):
                    cands.ranked(lambda_rel)
                continue
            got = cands.ranked(lambda_rel)
            expected = _oracle_ranking(stage, lambda_rel, beam)
            assert len(got) == len(expected)
            for entry, (tree, value, rel_sum, lca_sum) in zip(got, expected):
                assert type(entry.value) is Fraction and entry.value == value
                assert _float_bits(entry.rel_sum) == _float_bits(rel_sum)
                assert _float_bits(entry.lca_sum) == _float_bits(lca_sum)
                assert entry.tree == tree
            full = _oracle_ranking(stage, lambda_rel, None)
            if beam is not None and beam < len(full):
                key = lambda t: (-(lambda_rel * t[2] + t[3]), exprtree.node_count(t[0]))
                straddles += key(full[beam - 1]) == key(full[beam])
    if not stage:
        cands = JointCandidates(tables, values)
        for call in (lambda: cands.solve(ScalingParams()), lambda: cands.top_k(ScalingParams(), 3)):
            with pytest.raises(InferenceError, match="no candidate expression trees"):
                call()
    return straddles


# zeros, negatives, duplicates and fractions; several divide by zero in subtrees
_STAGE_VALUES = {
    1: [[5], [0], [-3], [Fraction(1, 2)]],
    2: [[2, 3], [2, 2], [0, 3], [5, -5], [Fraction(1, 3), Fraction(2, 3)]],
    3: [[3, 0, 3], [Fraction(1, 3), Fraction(2, 3), 1], [4, -2, 2], [0, 0, 7], [1, 1, 1]],
    4: [[2, -1, Fraction(1, 2), 0], [4, 4, 2, 2], [0, 3, 3, Fraction(-1, 4)]],
}


@pytest.fixture(scope="module")
def trained_stage_tables(trained_suite, synthetic_corpus):
    problems = [
        corpus.build_problem("n1", "Tom has 5 apples. How many apples does Tom have?"),
        *[p for p in synthetic_corpus if p.n == 2][:3],
        *[p for p in synthetic_corpus if p.n == 3][:3],
        corpus.build_problem(
            "n4",
            "A shop sold 12 pens on Monday and 7 pens on Tuesday. Each pen costs 3 "
            "dollars and 2 pens broke. How many dollars did the shop earn?",
        ),
    ]
    return [(infer.build_score_tables(p, trained_suite), p.values) for p in problems]


def test_tree_stage_equals_relabel_oracle_trained_tables(trained_stage_tables):
    for tables, own_values in trained_stage_tables:
        for values in [list(own_values)] + _STAGE_VALUES[tables.n_quantities]:
            _assert_ranking_equals_relabel_oracle(tables, values)


def test_tree_stage_equals_relabel_oracle_random_tables():
    rng = random.Random(23)
    straddles = 0
    for trial in range(24):
        n = trial % 4 + 1
        if trial % 3 == 0:
            # integer scores make float ties exact; some scores are -0.0
            draw = lambda: rng.choice([float(rng.randint(-2, 2)), -0.0])
        else:
            draw = lambda: rng.uniform(-2.0, 2.0)
        tables = _tables(
            n,
            # some queries are left out, so their score is the 0.0 default
            relevance={(q, "Irrelevant"): draw() for q in range(n) if rng.random() < 0.8},
            lca={
                (i, j, op): min(draw(), 0.0)
                for i in range(n) for j in range(i + 1, n) for op in exprtree.OPS
                if rng.random() < 0.9
            },
        )
        values = rng.choice(_STAGE_VALUES[n])
        straddles += _assert_ranking_equals_relabel_oracle(tables, values)
    # the integer-score tables put equal keys on both sides of some beam cuts
    assert straddles > 0
    # scores that cancel, so a sum added in another order gives other bits
    for n in (3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        cancelling = [1.0, 1e16, -1e16, 3.0, -1e16, 1e16]
        tables = _tables(
            n,
            relevance={(q, "Irrelevant"): cancelling[q] for q in range(n)},
            lca={(i, j, op): -cancelling[k] for k, (i, j) in enumerate(pairs) for op in exprtree.OPS},
        )
        _assert_ranking_equals_relabel_oracle(tables, [2] * n)


@pytest.mark.parametrize(
    "values",
    [
        [6, 3, 2],
        [7, 2, 3],
        [5, 0, 5],
        [4, 4, 0, 2],
        [Fraction(1, 2), Fraction(3, 4), 2, 0],
        [3, Fraction(-1, 3), 0, 6],
        [Fraction(5, 2), 5, Fraction(2, 5)],
        [10**20, 3, 7],
        [-6, 4, -2],
    ],
)
def test_ranked_values_equal_fraction_evaluation(values):
    # zero divisors, non-integral quotients, large and negative leaves; all
    # scores zero, so every tree ties and the ranking is by nodes and serial
    _assert_ranking_equals_relabel_oracle(_tables(len(values)), [Fraction(v) for v in values])


def test_solve_materializes_only_visited_trees(monkeypatch, trained_suite, synthetic_corpus):
    built, evaluated = [], []
    tree, evaluate = exprtree.TreePlan.tree, exprtree.evaluate

    def counted_tree(plan, subset):
        built.append(plan.serial(subset))
        return tree(plan, subset)

    depth = 0

    def counted_evaluate(expr, values):
        # evaluate recurses through the module attribute; count whole trees only
        nonlocal depth
        if depth == 0:
            evaluated.append(serialize(expr))
        depth += 1
        try:
            return evaluate(expr, values)
        finally:
            depth -= 1

    monkeypatch.setattr(exprtree.TreePlan, "tree", counted_tree)
    monkeypatch.setattr(exprtree, "evaluate", counted_evaluate)
    problems = [q for q in synthetic_corpus if q.n == 3][:8]
    placed = len(problems) * len(exprtree.search_order(3))
    visited = popped_total = 0
    for p in problems:
        tables = infer.build_score_tables(p, trained_suite)
        cands = JointCandidates(tables, p.values)
        assert built == [] and evaluated == []
        params = ScalingParams()
        result = cands.solve(params)
        assert cands.solve(params) == result
        # every built tree is evaluated once, in the order the heap pops them:
        # a prefix of all placed trees, valid or not, ranked by (score, nodes, serial)
        assert built == evaluated
        order = sorted(
            (
                (-score_tree(t, tables, params), exprtree.node_count(t), serialize(t))
                for t in (tree(plan, subset) for subset, plan in exprtree.search_order(3))
            )
        )
        assert evaluated == [serial for *_, serial in order[: len(evaluated)]]
        popped = [e for e in cands._entries.values() if e is not None]
        assert popped and evaluated[-1] == serialize(popped[-1].tree)
        # the bound is tested on the next heap key before a tree is built, so
        # every valid tree built is visited; these problems pop no invalid
        # tree, so the trees built are the trees visited
        seen = sum(e.consistent is not None for e in popped)
        assert 1 <= seen == len(popped) == len(built)
        visited += seen
        popped_total += len(evaluated)
        built.clear()
        evaluated.clear()
    assert popped_total < placed // 10 and visited == popped_total


# --- memoized edge picks and the compiled search ----------------------------------

def _scan(tables, labeling, choices):
    # the scan before picks were memoized and the search compiled: every
    # labeling rescored each pair's options and built both edge tuples. Each
    # sum is exact, as Fractions, and rounded once
    vertex_denominator, edge_denominator, _, _ = tables.denominators
    vertex_sum = sum(
        (Fraction(tables.vertex_score(v, "Rate"), vertex_denominator) for v, flag in enumerate(labeling) if flag),
        Fraction(0),
    )
    e_max = e_lex = Fraction(0)
    edges_max = []
    for (i, j), options in zip(vertex_pairs(len(labeling) - 1), choices):
        best = options[0]
        best_score = first_score = tables.edge_score(i, j, best)
        for label in options[1:]:
            s = tables.edge_score(i, j, label)
            if s > best_score:
                best, best_score = label, s
        edges_max.append(best)
        e_max += Fraction(best_score, edge_denominator)
        e_lex += Fraction(first_score, edge_denominator)
    edges_lex = tuple(options[0] for options in choices)
    return labeling, float(vertex_sum), float(e_max), tuple(edges_max), float(e_lex), edges_lex


def _scanned_entry(tables, labeling, choices):
    labeling, vertex_sum, e_max, edges_max, e_lex, edges_lex = _scan(tables, labeling, choices)
    return labeling, _float_bits(vertex_sum), _float_bits(e_max), edges_max, _float_bits(e_lex), edges_lex


_LEX = ScalingParams(lambda_edge=0.0)


def _row_bits(rows, k):
    # labeling k of the unconstrained rows' parallel lists, as _scanned_entry gives it
    best, first = rows.graph(k, ScalingParams()), rows.graph(k, _LEX)
    sums = _float_bits(rows.sums(ScalingParams())[k]), _float_bits(rows.sums(_LEX)[k])
    return rows.table.labelings[k], _float_bits(rows.vertex_sums[k]), sums[0], best.edges, sums[1], first.edges


def _consistent_bits(cands, entry):
    # each consistent labeling of a popped tree, as the search builds its tuple
    bits = []
    for best, first in zip(cands._tree_candidates(entry, ScalingParams()), cands._tree_candidates(entry, _LEX)):
        b, f = cands._build(best, ScalingParams()), cands._build(first, _LEX)
        bits.append((best[0][2], _float_bits(b.vertex_sum), _float_bits(b.edge_sum), b.graph.edges, _float_bits(f.edge_sum), f.graph.edges))
    return bits


def _random_tables(rng, n):
    # equal scores (ties keep the earlier label), signed zeros, negative
    # scores and absent queries
    draw = lambda: rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, -2.5, rng.uniform(-2.0, 2.0)])
    return _tables(
        n,
        vertex={(v, "Rate"): draw() for v in range(n + 1) if rng.random() < 0.9},
        edge={(i, j, e): draw() for i, j in vertex_pairs(n) for e in EdgeType if rng.random() < 0.9},
        relevance={(q, "Irrelevant"): draw() for q in range(n) if rng.random() < 0.9},
        lca={
            (i, j, op): min(0.0, draw())
            for i in range(n) for j in range(i + 1, n) for op in exprtree.OPS if rng.random() < 0.9
        },
    )


def test_labeling_rows_equal_the_option_scan():
    rng = random.Random(29)
    for trial in range(24):
        n = trial % 4 + 1
        tables = _random_tables(rng, n)
        expected = [
            _scanned_entry(tables, labeling, udg.valid_edge_choices(labeling))
            for labeling in itertools.product((False, True), repeat=n + 1)
        ]
        rows = infer._unconstrained_rows(tables)
        assert [_row_bits(rows, k) for k in range(len(expected))] == expected
        if n > 3:
            continue
        cands = JointCandidates(tables, [Fraction(rng.randint(1, 9)) for _ in range(n)], beam=None)
        cands.top_k(ScalingParams(), 1)  # visits every tree
        for entry in cands.ranked(ScalingParams().lambda_rel):
            expected = [
                _scanned_entry(tables, labeling, choices)
                for labeling, choices in udg.consistent_edge_choices(entry.tree, n)
            ]
            assert _consistent_bits(cands, entry) == expected


def _tuple_bits(tree, graph, value, score, sums):
    return (serialize(tree), json.dumps(graph.to_json_obj()), str(value), *map(_float_bits, (score, *sums)))


def _result_bits(r):
    return _tuple_bits(r.tree, r.graph, r.value, r.score, (r.rel_sum, r.lca_sum, r.vertex_sum, r.edge_sum))


def _scanned_search(tables, values, params):
    # every valid tree of the search order with every consistent labeling,
    # scored from the scan, sorted by the search key (-total, index, labeling)
    n = tables.n_quantities
    ranked = []
    for index, (subset, plan) in enumerate(exprtree.search_order(n)):
        tree = plan.tree(subset)
        try:
            value = exprtree.evaluate(tree, values)
        except exprtree.EvaluationError:
            continue
        if value <= 0:
            continue
        rel_sum, lca_sum = infer.tree_term_sums(tree, tables)
        base = params.lambda_rel * rel_sum + lca_sum
        for labeling, choices in udg.consistent_edge_choices(tree, n):
            _, vertex_sum, e_max, edges_max, e_lex, edges_lex = _scan(tables, labeling, choices)
            esum, edges = (e_max, edges_max) if params.lambda_edge > 0 else (e_lex, edges_lex)
            total = base + params.lambda_vertex * vertex_sum + params.lambda_edge * esum
            graph = UnitDependencyGraph.from_labeling(labeling, edges)
            fields = _tuple_bits(tree, graph, value, total, (rel_sum, lca_sum, vertex_sum, esum))
            ranked.append(((-total, index, labeling), fields))
    ranked.sort(key=lambda item: item[0])
    return [fields for _, fields in ranked]


def _scanned_graph(tables, params):
    # the best unconstrained labeling of the scan, the first of equal scores
    n = tables.n_quantities
    best = None
    for labeling in itertools.product((False, True), repeat=n + 1):
        _, vertex_sum, e_max, edges_max, e_lex, edges_lex = _scan(tables, labeling, udg.valid_edge_choices(labeling))
        esum, edges = (e_max, edges_max) if params.lambda_edge > 0 else (e_lex, edges_lex)
        score = params.lambda_vertex * vertex_sum + params.lambda_edge * esum
        if best is None or score > best[0]:
            best = (score, UnitDependencyGraph.from_labeling(labeling, edges))
    return best[1]


def test_compiled_search_equals_the_scan(monkeypatch):
    built = []
    edges = infer._edges

    def counted_edges(positions):
        built.append(edges(positions))
        return built[-1]

    monkeypatch.setattr(infer, "_edges", counted_edges)
    rng = random.Random(31)
    grid = (ScalingParams(), ScalingParams(1.0, 0.5, 0.0), ScalingParams(0.5, 2.0, 0.25), ScalingParams(0.0, 0.0, 0.0))
    for trial in range(30):
        n = trial % 3 + 1
        tables = _random_tables(rng, n)
        values = [Fraction(rng.randint(0, 9), rng.randint(1, 3)) for _ in range(n)]
        if not any(values):
            values[0] = Fraction(1)
        built.clear()
        cands = JointCandidates(tables, values, beam=None)
        assert built == []  # construction builds no edge tuple
        for params in grid:
            expected = _scanned_search(tables, values, params)
            built.clear()
            result = cands.solve(params)
            assert _result_bits(result) == expected[0]
            # the one edge tuple the solve built is the returned graph's
            assert built == [result.graph.edges]
            top = cands.top_k(params, 5)
            assert [_result_bits(r) for r in top] == expected[:5]
            built.clear()
            graph = cands.best_graph(params)
            assert graph == predict_udg_from_tables(tables, params) == _scanned_graph(tables, params)
            assert built == [graph.edges] * 2


# --- joint search output, pinned ------------------------------------------------

# sha256 of every solve and top-10 tuple below; integer scores force ties,
# so the digest also pins how the search key breaks them
JOINT_SEARCH_SHA256 = "1a90cf18dd9dc17f85753a7a33b81225b1b2274c035c613c7be7707f6d9f6e9c"

JOINT_GRID = tuple(
    ScalingParams(*scales)
    for scales in ((1.0, 1.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.5, 2.0, 0.0), (0.0, 0.0, 0.0))
)


def _tie_heavy_searches():
    # values of held-out synth problems, cut or joined to n = 1-4 quantities
    rng = random.Random(23)
    held_out = synth.gen_synthetic_corpus(7, 50)
    for k in range(8):
        n = k % 4 + 1
        values = (held_out[k].values + held_out[k + 8].values)[:n]
        draw = lambda: float(rng.randint(-2, 2))
        tables = _tables(
            n,
            vertex={(v, "Rate"): draw() for v in range(n + 1)},
            edge={(i, j, e): draw() for i, j in vertex_pairs(n) for e in EdgeType},
            relevance={(q, "Irrelevant"): draw() for q in range(n)},
            lca={
                (i, j, op): min(0.0, draw())
                for i in range(n) for j in range(i + 1, n) for op in exprtree.OPS
            },
        )
        yield JointCandidates(tables, values)


def test_joint_search_output_pinned():
    digest = hashlib.sha256()
    for cands in _tie_heavy_searches():
        for params in JOINT_GRID:
            for r in (cands.solve(params), *cands.top_k(params, 10)):
                sums = (r.score, r.rel_sum, r.lca_sum, r.vertex_sum, r.edge_sum)
                fields = (serialize(r.tree), json.dumps(r.graph.to_json_obj()), str(r.value))
                digest.update(repr(fields + tuple(float(x).hex() for x in sums)).encode())
    assert digest.hexdigest() == JOINT_SEARCH_SHA256


def test_joint_search_candidates_differ_before_edges():
    # (index, labeling) alone orders every pair of candidates
    for cands in _tie_heavy_searches():
        for params in JOINT_GRID:
            keys = [
                cand[0][1:3]
                for entry in cands.ranked(params.lambda_rel)
                for cand in cands._tree_candidates(entry, params)
            ]
            assert len(keys) == len(set(keys))


# --- solve path, pinned ------------------------------------------------------------

# sha256 of every score-table numerator and denominator, solve and top-5
# tuple and standalone graph below, recorded when scores became exact
SOLVE_PATH_SHA256 = "5a4e0fd9326d39bf298f91dfd131e6956596ee05a2082e998be045fc234264ad"

SOLVE_PATH_GRID = (ScalingParams(), ScalingParams(0.5, 2.0, 0.0), ScalingParams(2.0, 0.25, 4.0))


def test_solve_path_output_pinned():
    suite = learn.train_suite(synth.gen_synthetic_corpus(0, 200))
    problems = [
        *synth.gen_synthetic_corpus(1, 50)[:30],
        corpus.build_problem("n1", "Tom has 5 apples. How many apples does Tom have?"),
        corpus.build_problem(
            "n4",
            "A shop sold 12 pens on Monday and 7 pens on Tuesday. Each pen costs 3 "
            "dollars and 2 pens broke. How many dollars did the shop earn?",
        ),
    ]
    digest = hashlib.sha256()
    for p in problems:
        tables = infer.build_score_tables(p, suite)
        digest.update(repr(tables.denominators).encode())
        for (part, _), keys in zip(learn.PARTS, _dict_keys(p.n, _LAYOUT_LABELS)):
            for key, v in zip(keys, getattr(tables, part), strict=True):
                assert type(v) is int
                digest.update(repr((part, key, v)).encode())
        cands = JointCandidates(tables, p.values)
        for params in SOLVE_PATH_GRID:
            for r in (cands.solve(params), *cands.top_k(params, 5)):
                sums = (r.score, r.rel_sum, r.lca_sum, r.vertex_sum, r.edge_sum)
                assert list(map(type, sums)) == [float] * 5
                fields = (serialize(r.tree), json.dumps(r.graph.to_json_obj()), str(r.value))
                digest.update(repr(fields + tuple(float(x).hex() for x in sums)).encode())
            graph = predict_udg_from_tables(tables, params)
            digest.update(json.dumps(graph.to_json_obj()).encode())
    assert digest.hexdigest() == SOLVE_PATH_SHA256
