import hashlib

import pytest

from udgsolver import annotate, corpus, evalharness, infer, learn, synth
from udgsolver.evalharness import FEATURE_VARIANTS, RunConfig, run_eval
from udgsolver.learn import EDGE_LABELS, VERTEX_LABELS, FeatureConfig

from conftest import oracle_dot

# sha256 of the report below; any change to training, tuning, inference or
# report formatting that alters a single byte of it changes this value
REPORT_SHA256 = "7e22a1e56e9c9dfba483e1c394312eaec89b15b100ab24068b92b706c6d16fca"


@pytest.fixture(scope="module")
def counted_eval():
    """The pinned report's eval, with its ``infer._unconstrained_rows`` calls counted."""
    calls = []
    rows = infer._unconstrained_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infer, "_unconstrained_rows", lambda tables: calls.append(1) or rows(tables))
        # the first 30 problems cover 12 of the 15 synth families, at two and three quantities
        problems = synth.gen_synthetic_corpus(0, 50)[:30]
        report = run_eval(problems, RunConfig(folds=3))
    return report, len(calls)


def test_report_bytes_pinned(counted_eval):
    report, _ = counted_eval
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256


def test_eval_scores_unconstrained_rows_once_per_problem(counted_eval):
    # 30 test problems and 12 dev problems over 3 folds: one search each, and
    # the test problems' standalone graphs come from their searches' rows
    _, calls = counted_eval
    assert calls == 42


def _oracle_accuracy(model, examples):
    # each example's label: the first label of the highest oracle score over
    # its expanded vector
    hits = 0
    for blocks, gold in examples:
        fv = learn.expand(blocks)
        scores = [oracle_dot(fv, model.weights[label]) for label in model.labels]
        hits += model.labels[scores.index(max(scores))] == gold
    return hits / len(examples)


@pytest.mark.parametrize(
    "config", [RunConfig(), RunConfig(rule_features=False), RunConfig(context_features=False)]
)
def test_classifier_accuracies_equal_a_per_example_oracle(monkeypatch, config):
    scored_suites = []
    build = infer.build_score_tables
    monkeypatch.setattr(
        evalharness, "build_score_tables", lambda p, suite: scored_suites.append(suite) or build(p, suite)
    )
    problems = synth.gen_synthetic_corpus(1, 50)[:30]
    report = run_eval(problems, config)
    by_id = {p.id: p for p in problems}
    split = corpus.make_folds(problems, config.folds, config.seed, config.dev_fraction)
    for fold in range(config.folds):
        train, dev, test = ([by_id[i] for i in ids] for ids in split.train_dev_test(fold))
        for variant in FEATURE_VARIANTS:
            if variant == "all_features":
                variant_config = config.feature_config()
            else:
                variant_config = FeatureConfig(
                    rule_features=variant != "no_rule_features",
                    context_features=variant != "no_context_features",
                )
            # the vertex and edge models, trained on train + dev as the eval trains them
            sets = learn.training_blocks(train + dev, variant_config, ("vertex", "edge"))
            vertex = learn.train_model(VERTEX_LABELS, sets["vertex"], config.epochs, config.seed)
            edge = learn.train_model(EDGE_LABELS, sets["edge"], config.epochs, config.seed)
            examples = learn.training_blocks(test, variant_config, ("vertex", "edge"))
            result = report.folds[fold]
            assert result.vertex_accuracy[variant] == _oracle_accuracy(vertex, examples["vertex"])
            assert result.edge_accuracy[variant] == _oracle_accuracy(edge, examples["edge"])
    # each variant suite scores through its own table, built from its own models
    suites = list({id(s): s for s in scored_suites}.values())
    assert len(suites) == config.folds * len(FEATURE_VARIANTS)
    assert len({id(s.inference_table()) for s in suites}) == len(suites)
    for suite in suites:
        vertex_weights = suite.inference_table()._weights["vertex"]
        assert all(w is suite.vertex.weights[label] for w, label in zip(vertex_weights, suite.vertex.labels))


def test_classifier_accuracy_breaks_ties_as_predict_does(fig1_problem):
    # a suite with no weights scores every label 0, so each argmax is a tie
    # that goes to the model's first label, as LinearModel.predict breaks it,
    # also when the models list their labels in another order than the score
    # tables' layout
    derived = annotate.derive_udg_gold(fig1_problem)
    for order in (lambda labels: labels, lambda labels: labels[::-1]):
        models = {
            part: learn.LinearModel(order(labels), {label: {} for label in labels}) for part, labels in learn.PARTS
        }
        suite = learn.ClassifierSuite(**models)
        examples = learn.training_blocks([fig1_problem], suite.config, ("vertex", "edge"))
        expected = [
            sum(model.predict(learn.expand(blocks)) == gold for blocks, gold in examples[name]) / len(examples[name])
            for name, model in (("vertex", suite.vertex), ("edge", suite.edge))
        ]
        assert 0 < expected[0] < 1
        tables = infer.build_score_tables(fig1_problem, suite)
        assert list(evalharness._classifier_accuracy(suite, [tables], [derived])) == expected


@pytest.mark.parametrize("beam", [0, -3, 2.0, True])
def test_run_config_rejects_bad_beam(beam):
    with pytest.raises(ValueError, match="beam must be None or an int >= 1"):
        RunConfig(beam=beam)
    assert RunConfig(beam=1).beam == 1 and RunConfig(beam=None).beam is None


@pytest.mark.parametrize("epochs", [0, -3, 2.0, True])
def test_run_config_rejects_epochs_below_one(epochs):
    with pytest.raises(ValueError, match="epochs must be an int >= 1"):
        RunConfig(epochs=epochs)
    assert RunConfig(epochs=1).epochs == 1


@pytest.mark.parametrize("field", ["fixed_lambda_vertex", "fixed_lambda_edge"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_run_config_rejects_bad_fixed_scale(field, value):
    # the rule ScalingParams applies, checked before any training
    name = field.removeprefix("fixed_")
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        RunConfig(**{field: value})
    assert RunConfig(**{field: 0.0}).tune_grid() == {name: (0.0,)}
