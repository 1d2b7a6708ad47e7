"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The synthetic-corpus criteria share one evaluation
run through a session fixture.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from udgsolver import annotate, corpus, exprtree, infer, learn, synth, udg
from udgsolver.corpus import QUESTION
from udgsolver.evalharness import RunConfig, run_eval
from udgsolver.exprtree import Leaf, Op, serialize
from udgsolver.infer import JointCandidates, ScalingParams
from udgsolver.udg import EdgeType, UnitDependencyGraph, enumerate_consistent_udgs, is_consistent

from conftest import make_fig1_tables, oracle_edge, random_raw_tree, random_values, unit_models


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def full_eval(synthetic_corpus):
    started = time.monotonic()
    report = run_eval(synthetic_corpus, RunConfig(seed=0))
    elapsed = time.monotonic() - started
    return report, elapsed


def test_criterion_1_fig1_end_to_end(fig1_problem):
    started = time.monotonic()
    tables = make_fig1_tables()
    result = JointCandidates(tables, fig1_problem.values, beam=200).solve(ScalingParams())
    elapsed = time.monotonic() - started
    ok = (
        result.value == 7
        and serialize(result.tree, fig1_problem.values) == "(/ (- 66 10) 8)"
        and result.graph.edge(0, 2) is EdgeType.SAME_UNIT
        and result.graph.edge(1, 3) is EdgeType.DEN_FWD
        and elapsed < 1.0
    )
    _report(1, ok, f"mock-table walkthrough solve: value={result.value}, "
                   f"tree={serialize(result.tree, fig1_problem.values)}, {elapsed:.3f}s")


def test_criterion_2_path_oracle(fig1_tree):
    ok = (
        udg.path(fig1_tree, 0, 1) == {"-", "/"}
        and udg.path(fig1_tree, 1, QUESTION) == {"/"}
    )
    _report(2, ok, "path(T, 66, 8) == {-, /} and path(T, 8, question) == {/}")


def test_criterion_3_edge_label_vs_unit_oracle():
    checked = disagreements = vacuous = 0
    for k in (1, 2, 3):
        for structure in exprtree.canonical_structures(k):
            for labeling in itertools.product((False, True), repeat=k + 1):
                models = unit_models(structure, labeling)
                for i, j in udg.vertex_pairs(k):
                    determined = udg.edge_label(structure, i, j, labeling)
                    if determined is None:
                        continue
                    checked += 1
                    if not models:
                        # globally contradictory labeling: no ground truth
                        vacuous += 1
                        continue
                    if oracle_edge(models, labeling, i, j) is not determined:
                        disagreements += 1
    ok = disagreements == 0 and checked > 0
    _report(3, ok, f"edge labels vs unit-propagation oracle: {checked} determined "
                   f"cases, {disagreements} disagreements ({vacuous} without models)")


def _brute_force_consistent(tree, n):
    out = set()
    pairs = udg.vertex_pairs(n)
    for labeling in itertools.product((False, True), repeat=n + 1):
        options = [
            [e for e in EdgeType if udg.edge_structurally_valid(e, labeling[i], labeling[j])]
            for i, j in pairs
        ]
        rates = frozenset(v for v, f in enumerate(labeling) if f)
        for combo in itertools.product(*options):
            graph = UnitDependencyGraph(n, rates, combo)
            if is_consistent(graph, tree):
                out.add(graph)
    return out


def test_criterion_4_consistency_enumeration_complete():
    started = time.monotonic()
    cases = []
    cases.append((Leaf(0), 1))
    for structure in exprtree.canonical_structures(2):
        cases.append((structure, 2))
    cases.append((Leaf(0), 2))
    cases.append((Op("/", Op("-", Leaf(0), Leaf(2)), Leaf(1)), 3))
    cases.append((Op("*", Leaf(0), Leaf(1)), 3))
    cases.append((Op("+", Op("+", Leaf(0), Leaf(1)), Leaf(2)), 3))
    mismatched = 0
    for tree, n in cases:
        enumerated = set(enumerate_consistent_udgs(tree, n))
        brute = _brute_force_consistent(tree, n)
        if enumerated != brute:
            mismatched += 1
    elapsed = time.monotonic() - started
    ok = mismatched == 0 and elapsed < 10.0
    _report(4, ok, f"consistent-graph enumeration == brute force on {len(cases)} "
                   f"trees up to n=3 in {elapsed:.1f}s")


def test_criterion_5_canonicalization_properties():
    rng = random.Random(42)
    failures = 0
    trials = 0
    while trials < 1000:
        k = rng.randint(1, 4)
        indices = sorted(rng.sample(range(6), k))
        tree = random_raw_tree(rng, indices)
        values = {i: v for i, v in zip(indices, random_values(rng, k))}
        try:
            expected = exprtree.evaluate(tree, values)
        except exprtree.EvaluationError:
            continue
        trials += 1
        canon = exprtree.canonicalize(tree)
        if exprtree.evaluate(canon, values) != expected:
            failures += 1
            continue
        if exprtree.canonicalize(canon) != canon:
            failures += 1
            continue
        used = sorted(exprtree.used_indices(canon))
        for qi, qj in itertools.combinations(used, 2):
            op = exprtree.op_lca(canon, qi, qj)
            if op not in exprtree.OPS:
                failures += 1
    ok = failures == 0
    _report(5, ok, f"1000 random raw trees: exact value preservation, idempotence, "
                   f"total LCA ops; {failures} failures")


#: The (tree, graph) tuples criterion 6 scores over its 50 problems: every
#: consistent graph of every enumerated tree.
CRITERION_6_TUPLES = 20_177_894


def _edge_combo(k: int, choices) -> tuple:
    """The ``k``-th combination of ``itertools.product(*choices)``."""
    edges = []
    for options in reversed(choices):
        k, r = divmod(k, len(options))
        edges.append(options[r])
    return tuple(reversed(edges))


@pytest.mark.slow
def test_criterion_6_beam_equals_exhaustive():
    problems = synth.gen_synthetic_corpus(seed=11, size=50)
    suite = learn.train_suite(problems, learn.FeatureConfig(), epochs=3, seed=0)
    params = ScalingParams(lambda_rel=1.0, lambda_vertex=1.0, lambda_edge=0.5)
    mismatches = tuples = 0
    assert all(p.n <= 3 for p in problems)
    for p in problems:
        tables = infer.build_score_tables(p, suite)
        vertex_denominator, edge_denominator, _, _ = tables.denominators
        pairs = udg.vertex_pairs(p.n)
        result = JointCandidates(tables, p.values, beam=None).solve(params)
        best = best_key = best_total = None
        for tree in exprtree.enumerate_trees(p.values):
            rel_sum, lca_sum = infer.tree_term_sums(tree, tables)
            nodes, serial = exprtree.node_count(tree), exprtree.serialize(tree)
            base = params.lambda_rel * rel_sum + lca_sum
            # the graphs consistent with the tree are each labeling's product
            # of per-pair options (enumerate_consistent_udgs); each graph's
            # exact edge sum extends its prefix's by one pair at a time, and
            # is rounded once (an int division is correctly rounded). A graph
            # is built only for a total that reaches the incumbent
            for labeling, choices in udg.consistent_edge_choices(tree, p.n):
                rates = sum(tables.vertex_score(v, learn.RATE) for v, rate in enumerate(labeling) if rate)
                head = base + params.lambda_vertex * (rates / vertex_denominator)
                sums = [0]
                for (i, j), options in zip(pairs, choices):
                    scores = [tables.edge_score(i, j, e) for e in options]
                    sums = [s + x for s in sums for x in scores]
                tuples += len(sums)
                for k, edge_sum in enumerate(sums):
                    total = head + params.lambda_edge * (edge_sum / edge_denominator)
                    if best_total is not None and total < best_total:
                        continue
                    graph = UnitDependencyGraph.from_labeling(labeling, _edge_combo(k, choices))
                    key = (-total, nodes, serial, graph.sort_key)
                    if best is None or key < best_key:
                        best, best_key, best_total = (tree, graph), key, total
        if result.tree != best[0] or result.graph != best[1]:
            mismatches += 1
    ok = mismatches == 0 and tuples == CRITERION_6_TUPLES
    _report(6, ok, f"untruncated joint inference == exhaustive tuple argmax on "
                   f"{len(problems)} problems (<=3 quantities), {tuples} tuples; {mismatches} mismatches")


@pytest.mark.slow
def test_criterion_7_learning_sanity(full_eval, synthetic_corpus):
    report, elapsed = full_eval
    full_acc = report.aggregate["solve_accuracy"]["full"]
    hard = [p.id for p in synthetic_corpus if "rate" in p.id or "distractor" in p.id]
    subset_full = report.subset_accuracy(hard, "full")
    subset_base = report.subset_accuracy(hard, "base")
    gap = subset_full - subset_base
    ok = full_acc >= 0.90 and gap >= 0.02 and elapsed < 600.0
    _report(7, ok, f"5-fold beam-200 eval: full={full_acc:.3f} (>=0.90), "
                   f"hard-subset gap={gap:+.3f} (>=0.02), runtime {elapsed:.0f}s (<600s)")


@pytest.mark.slow
def test_criterion_8_ablation_structure(full_eval):
    report, _ = full_eval
    vertex = report.aggregate["vertex_accuracy"]
    edge = report.aggregate["edge_accuracy"]
    solve = report.aggregate["solve_accuracy"]
    ok = (
        vertex["all_features"] >= vertex["no_rule_features"]
        and vertex["all_features"] >= vertex["no_context_features"]
        and edge["all_features"] >= edge["no_rule_features"]
        and edge["all_features"] >= edge["no_context_features"]
        and solve["full"] >= solve["no_vertex"] >= solve["base"]
        and solve["full"] >= solve["no_edge"] >= solve["base"]
    )
    _report(8, ok, "feature ablations ordered: vertex "
                   f"{vertex['all_features']:.3f}/{vertex['no_rule_features']:.3f}/"
                   f"{vertex['no_context_features']:.3f}, edge "
                   f"{edge['all_features']:.3f}/{edge['no_rule_features']:.3f}/"
                   f"{edge['no_context_features']:.3f}")


def test_criterion_9_annotation_derivation(synthetic_corpus):
    derived = []
    inconsistent = 0
    for p in synthetic_corpus:
        d = annotate.derive_udg_gold(p)
        derived.append(d)
        if not is_consistent(d.to_graph(), p.gold.tree):
            inconsistent += 1
    noise = annotate.noise_rate(derived)
    ok = inconsistent == 0 and noise < 0.15
    _report(9, ok, f"derived graphs consistent with gold trees "
                   f"({inconsistent} failures), edge noise {noise:.3f} (<0.15)")


@pytest.mark.slow
def test_criterion_10_corpus_tooling(synthetic_corpus, tmp_path):
    kept = corpus.prune_near_duplicates(synthetic_corpus, 0.8)
    over = 0
    for i, p in enumerate(kept):
        for q in kept[:i]:
            if corpus.ngram_overlap(p, q) > 0.8:
                over += 1
    split = corpus.make_folds(synthetic_corpus, 5, seed=0)
    ids = {p.id for p in synthetic_corpus}
    seen = set()
    partition_ok = True
    for fold in split.folds:
        if set(fold) & seen:
            partition_ok = False
        seen.update(fold)
    partition_ok = partition_ok and seen == ids

    small = synth.gen_synthetic_corpus(seed=4, size=60)
    config = RunConfig(seed=4, folds=2, epochs=3, beam=50)
    first = run_eval(small, config).to_json()
    second = run_eval(small, config).to_json()
    ok = over == 0 and partition_ok and first == second
    _report(10, ok, f"pruning leaves no pair over threshold ({over} offenders), "
                    f"folds partition the corpus, reports byte-identical across runs")
