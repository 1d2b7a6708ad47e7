import collections
import itertools
import math
import random
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
    solve_joint_from_tables,
    tune_lambdas,
    values_match,
)
from udgsolver.udg import EdgeType, UnitDependencyGraph, is_consistent, vertex_pairs

from conftest import make_fig1_tables


def _tables(n, vertex=None, edge=None, relevance=None, lca=None):
    return ScoreTables(n, vertex or {}, edge or {}, relevance or {}, lca or {})


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
    # seven vertices take the beam path; a beam of 2**7 keeps every labeling
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
    assert predict_udg_from_tables(tables, params, beam=128) == best[1]


def test_predict_udg_beam_path_zero_edge_scale_takes_first_edges():
    n = 6
    tables = _random_graph_tables(n, seed=6)
    graph = predict_udg_from_tables(tables, ScalingParams(lambda_edge=0.0), beam=128)
    rates = frozenset(v for v in range(n + 1) if tables.vertex_score(v, "Rate") > 0)
    labeling = [v in rates for v in range(n + 1)]
    edges = tuple(_valid_options(labeling, i, j)[0] for i, j in vertex_pairs(n))
    assert graph == UnitDependencyGraph(n, rates, edges)


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
    result = solve_joint_from_tables(tables, fig1_problem.values, ScalingParams(), beam=200)
    assert result.value == 7
    assert serialize(result.tree, fig1_problem.values) == "(/ (- 66 10) 8)"
    assert result.graph.edge(0, 2) is EdgeType.SAME_UNIT
    assert result.graph.edge(1, 3) is EdgeType.DEN_FWD
    assert bool(is_consistent(result.graph, result.tree))


def test_scored_tuple_breakdown_recheck(fig1_problem):
    tables = make_fig1_tables()
    params = ScalingParams(lambda_rel=0.5, lambda_vertex=2.0, lambda_edge=0.25)
    result = solve_joint_from_tables(tables, fig1_problem.values, params, beam=200)
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
    result = solve_joint_from_tables(tables, values, params, beam=None)
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
    wide = solve_joint_from_tables(tables, values, ScalingParams(), beam=None)
    narrow = solve_joint_from_tables(tables, values, ScalingParams(), beam=1)
    assert score_tree(wide.tree, tables, ScalingParams()) >= score_tree(
        narrow.tree, tables, ScalingParams()
    )


def test_solve_joint_exhaustive_equivalence_small(trained_suite, synthetic_corpus):
    params = ScalingParams(lambda_rel=1.0, lambda_vertex=1.0, lambda_edge=1.0)
    sample = [p for p in synthetic_corpus if p.n == 2][:6]
    for p in sample:
        tables = infer.build_score_tables(p, trained_suite)
        result = solve_joint_from_tables(tables, p.values, params, beam=None)
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
    # field for field, also under a lambda_rel other than the one the beam used
    for lam_rel, lam_vertex, lam_edge in itertools.product((0.0, 1.0, 2.5), repeat=3):
        params = ScalingParams(lam_rel, lam_vertex, lam_edge)
        assert cands.solve(params) == cands.top_k(params, 1)[0]


@pytest.mark.parametrize("beam", [200, 5, None])
def test_bounded_solve_equals_exhaustive_top1(trained_suite, synthetic_corpus, beam):
    sample = [p for p in synthetic_corpus if p.n == 2][:3] + [p for p in synthetic_corpus if p.n == 3][:5]
    for p in sample:
        tables = infer.build_score_tables(p, trained_suite)
        cands = JointCandidates(tables, p.values, lambda_rel=1.0, beam=beam)
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
    assert serialize(cands.entries[0].tree) == "(+ q0 q1)"
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
        cands = JointCandidates(tables, p.values, lambda_rel=1.0, beam=200)
        got_full = values_match(cands.solve(full).value, p.gold.answer)
        got_base = values_match(cands.solve(base).value, p.gold.answer)
        if got_full and not got_base:
            dev.append(p)
    assert dev, "fixture expects at least one problem the graph terms fix"
    return train, dev, suite


def test_tune_picks_nonzero_lambdas_when_they_help(tuning_setup):
    train, dev, suite = tuning_setup
    params = tune_lambdas(
        train,
        dev,
        suite,
        grid={"lambda_rel": (1.0,), "lambda_vertex": (0.0, 2.0), "lambda_edge": (0.0, 1.0)},
        beam=200,
    )
    assert params.lambda_vertex > 0 or params.lambda_edge > 0


def test_tune_single_point_grid(tuning_setup):
    train, dev, suite = tuning_setup
    params = tune_lambdas(
        train,
        dev,
        suite,
        grid={"lambda_rel": (0.5,), "lambda_vertex": (2.0,), "lambda_edge": (0.25,)},
        beam=50,
    )
    assert params == ScalingParams(lambda_rel=0.5, lambda_vertex=2.0, lambda_edge=0.25)


def test_tune_deterministic(tuning_setup):
    train, dev, suite = tuning_setup
    grid = {"lambda_rel": (1.0,), "lambda_vertex": (0.0, 1.0), "lambda_edge": (0.0, 1.0)}
    assert tune_lambdas(train, dev, suite, grid=grid) == tune_lambdas(train, dev, suite, grid=grid)


def test_tune_empty_dev_errors(tuning_setup):
    train, _, suite = tuning_setup
    with pytest.raises(ValueError):
        tune_lambdas(train, [], suite)


def test_tune_tie_breaks_toward_smaller(tuning_setup):
    train, dev, suite = tuning_setup
    # a grid where every point scores identically must return the smallest
    params = tune_lambdas(
        train,
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
            cands = JointCandidates(tables, p.values, lambda_rel=params.lambda_rel, beam=beam)
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
    label at a time with LinearModel.score; also checks the public per-query
    feature functions against the rebuilt vectors."""
    n, config = problem.n, suite.config
    vid = lambda v: QUESTION if v == n else v
    vertex, edge, relevance, lca = {}, {}, {}, {}
    for v in range(n + 1):
        fv = learn.vertex_features(problem, vid(v), config)
        for label in learn.VERTEX_LABELS:
            vertex[(v, label)] = suite.vertex.score(fv, label)
    for i, j in vertex_pairs(n):
        fv = _oracle_vertex_pair(problem, i, vid(j), config, "pair_bias", "i|", "j|", True)
        assert list(learn.edge_features(problem, i, vid(j), config).items()) == list(fv.items())
        for label in EdgeType:
            edge[(i, j, label)] = suite.edge.score(fv, label.value)
    for q in range(n):
        fv = _oracle_relevance(problem, q, config)
        assert list(learn.relevance_features(problem, q, config).items()) == list(fv.items())
        for label in learn.RELEVANCE_LABELS:
            relevance[(q, label)] = suite.relevance.score(fv, label)
    for i in range(n):
        for j in range(i + 1, n):
            fv = _oracle_vertex_pair(problem, i, j, config, "lca_bias", "lcai|", "lcaj|", False)
            assert list(learn.lca_features(problem, i, j, config).items()) == list(fv.items())
            raw = {op: suite.lca.score(fv, op) for op in learn.OP_LABELS}
            top = max(raw.values())
            for op, s in raw.items():
                lca[(i, j, op)] = s - top
    return ScoreTables(n, vertex, edge, relevance, lca)


def _bits(tables):
    return [
        [(k, type(v), float(v).hex()) for k, v in getattr(tables, part).items()]
        for part in ("vertex", "edge", "relevance", "lca")
    ]


def _thinned(model, rng):
    # drop about a third of the weights and zero (or negate-zero) another third
    weights = {}
    for label, table in model.weights.items():
        kept = {}
        for name, w in table.items():
            pick = rng.random()
            if pick < 0.33:
                continue
            kept[name] = rng.choice([0.0, -0.0]) if pick < 0.66 else w
        weights[label] = kept
    return learn.LinearModel(model.labels, weights, model.epochs, model.seed)


@pytest.fixture(scope="module")
def feature_variant_suites(synthetic_corpus):
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
    return suites


def test_score_tables_bit_identical_to_per_query_oracle(feature_variant_suites):
    held_out = synth.gen_synthetic_corpus(seed=3, size=50)[::2]
    for suite in feature_variant_suites:
        for p in held_out:
            assert _bits(infer.build_score_tables(p, suite)) == _bits(_oracle_tables(p, suite))


def test_score_tables_run_one_feature_pass(monkeypatch, trained_suite, synthetic_corpus):
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(learn, "vertex_features", counted("vertex", learn.vertex_features))
    monkeypatch.setattr(units, "extract_unit", counted("unit", units.extract_unit))
    for p in [q for q in synthetic_corpus if q.n == 2][:2] + [q for q in synthetic_corpus if q.n == 3][:2]:
        calls.clear()
        infer.build_score_tables(p, trained_suite)
        assert calls == {"vertex": p.n + 1, "unit": p.n + 1}


# --- tuning shares one tree stage per dev problem --------------------------------

def _fresh_build_tune(dev, suite, grid, beam):
    # the tuning loop before the tree stage was shared: a fresh build per lambda_rel
    golds = [p.gold.answer for p in dev]
    tables = [infer.build_score_tables(p, suite) for p in dev]
    best = None
    for lam_rel in sorted(grid["lambda_rel"]):
        candidates = [JointCandidates(t, p.values, lambda_rel=lam_rel, beam=beam) for t, p in zip(tables, dev)]
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
            built.append((args, kwargs, self))

    dev = synth.gen_synthetic_corpus(seed=4, size=50)[::4]
    rng = random.Random(beam or 0)
    for _ in range(3):
        grid = {axis: rng.sample(infer.LAMBDA_GRID, rng.randint(1, 3)) for axis in infer.DEFAULT_TUNE_GRID}
        expected = _fresh_build_tune(dev, trained_suite, grid, beam)
        monkeypatch.setattr(infer, "JointCandidates", Recorded)
        assert tune_lambdas([], dev, trained_suite, grid=grid, beam=beam) == expected
        monkeypatch.undo()
    # every build off a shared tree stage keeps a fresh build's trees, in order
    assert built
    for args, kwargs, shared in built:
        assert "trees" in kwargs
        fresh = JointCandidates(*args, **{k: v for k, v in kwargs.items() if k != "trees"})
        assert [e.serial for e in shared.entries] == [e.serial for e in fresh.entries]
        params = ScalingParams(kwargs["lambda_rel"], 1.0, 1.0)
        assert shared.solve(params) == fresh.solve(params)


# --- compiled tree stage --------------------------------------------------------

def _relabel_stage(tables, values, max_irrelevant):
    # the tree stage before structures were compiled: relabel each structure
    # onto each subset, evaluate it and walk its root paths for the LCA sum
    vals = [Fraction(v) for v in values]
    n = len(vals)
    min_size = 1 if max_irrelevant is None else max(1, n - max_irrelevant)
    out = []
    for size in range(min(n, exprtree.MAX_ENUM_LEAVES), min_size - 1, -1):
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


def _float_bits(x):
    return type(x), float(x).hex()


def _assert_stage_equals_relabel_oracle(tables, values, max_irrelevant):
    expected = _relabel_stage(tables, values, max_irrelevant)
    if not expected:
        with pytest.raises(InferenceError):
            infer._tree_stage(tables, values, max_irrelevant)
        return
    got = infer._tree_stage(tables, values, max_irrelevant)
    assert len(got) == len(expected)
    for entry, (tree, value, rel_sum, lca_sum) in zip(got, expected):
        assert entry.serial == serialize(tree)
        assert entry.nodes == exprtree.node_count(tree)
        assert type(entry.value) is Fraction and entry.value == value
        assert _float_bits(entry.rel_sum) == _float_bits(rel_sum)
        assert _float_bits(entry.lca_sum) == _float_bits(lca_sum)
        assert entry.tree == tree


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
    for k, (tables, own_values) in enumerate(trained_stage_tables):
        n = tables.n_quantities
        for m, values in enumerate([list(own_values)] + _STAGE_VALUES[n]):
            max_irrelevant = (None, 0, 1, 2)[(k + m) % 4]
            _assert_stage_equals_relabel_oracle(tables, values, max_irrelevant)


def test_tree_stage_equals_relabel_oracle_random_tables():
    rng = random.Random(23)
    for trial in range(24):
        n = trial % 4 + 1
        if trial % 3 == 0:
            draw = lambda: float(rng.randint(-2, 2))  # integer scores make float ties exact
        else:
            draw = lambda: rng.uniform(-2.0, 2.0)
        tables = _tables(
            n,
            # some queries are left out, so their score is the 0.0 default
            relevance={(q, "Irrelevant"): draw() for q in range(n) if rng.random() < 0.8},
            lca={
                (i, j, op): min(0.0, draw())
                for i in range(n) for j in range(i + 1, n) for op in exprtree.OPS
                if rng.random() < 0.9
            },
        )
        values = rng.choice(_STAGE_VALUES[n])
        _assert_stage_equals_relabel_oracle(tables, values, (None, 0, 1, 2)[trial // 4 % 4])
    # scores that cancel, so a sum added in another order gives other bits
    for n in (3, 4):
        pairs = list(itertools.combinations(range(n), 2))
        cancelling = [1.0, 1e16, -1e16, 3.0, -1e16, 1e16]
        tables = _tables(
            n,
            relevance={(q, "Irrelevant"): cancelling[q] for q in range(n)},
            lca={(i, j, op): -cancelling[k] for k, (i, j) in enumerate(pairs) for op in exprtree.OPS},
        )
        _assert_stage_equals_relabel_oracle(tables, [2] * n, None)


def test_solve_materializes_only_visited_trees(monkeypatch, trained_suite, synthetic_corpus):
    built = []
    tree = exprtree.TreePlan.tree

    def counted(plan, subset):
        built.append((plan, subset))
        return tree(plan, subset)

    monkeypatch.setattr(exprtree.TreePlan, "tree", counted)
    visited = kept = 0
    for p in [q for q in synthetic_corpus if q.n == 3][:8]:
        tables = infer.build_score_tables(p, trained_suite)
        cands = JointCandidates(tables, p.values)
        assert built == []
        result = cands.solve(ScalingParams())
        assert cands.solve(ScalingParams()) == result
        seen = sum(e.consistent is not None for e in cands.entries)
        assert 1 <= len(built) <= seen
        visited += seen
        kept += len(cands.entries)
        built.clear()
    assert visited < kept


def test_shared_stage_keeps_fresh_unconstrained_rows(trained_suite, synthetic_corpus):
    for p in [q for q in synthetic_corpus if q.n == 2][:2] + [q for q in synthetic_corpus if q.n == 3][:3]:
        tables = infer.build_score_tables(p, trained_suite)
        stage = infer._problem_stage(tables, p.values)
        for lam_rel in (0.0, 1.0, 4.0):
            shared = JointCandidates(tables, p.values, lambda_rel=lam_rel, trees=stage)
            fresh = JointCandidates(tables, p.values, lambda_rel=lam_rel)
            assert shared._unconstrained is stage.unconstrained
            # repr tells -0.0 from 0.0 and round-trips every float
            assert repr(shared._unconstrained) == repr(fresh._unconstrained)
            for params in (ScalingParams(lam_rel, 1.0, 1.0), ScalingParams(lam_rel, 2.0, 0.0)):
                assert shared.solve(params) == fresh.solve(params)
