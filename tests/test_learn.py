import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udgsolver import learn
from udgsolver.corpus import QUESTION, build_problem
from udgsolver.learn import (
    EDGE_LABELS,
    FeatureConfig,
    LinearModel,
    edge_features,
    lca_features,
    relevance_features,
    train_model,
    vertex_features,
)


# --- feature extraction -------------------------------------------------------

def test_vertex_features_fig1_rate_quantity(fig1_problem):
    fv = vertex_features(fig1_problem, 1)
    assert "b:8 flowers" in fv
    assert "b:in each" in fv
    assert "rule:rate" in fv


def test_vertex_features_deterministic(fig1_problem):
    a = vertex_features(fig1_problem, 1)
    b = vertex_features(fig1_problem, 1)
    assert a == b and list(a) == list(b)


def test_vertex_features_degenerate_window():
    p = build_problem("x", "7")
    fv = vertex_features(p, 0)
    assert "bias" in fv
    assert fv == vertex_features(p, 0)


def test_vertex_features_question(fig1_problem):
    fv = vertex_features(fig1_problem, QUESTION)
    assert "is_question" in fv
    assert "u:bouquets" in fv


def test_feature_family_flags(fig1_problem):
    no_ctx = vertex_features(fig1_problem, 1, FeatureConfig(context_features=False))
    assert "rule:rate" in no_ctx
    assert not any(k.startswith(("u:", "b:", "p:")) for k in no_ctx)
    no_rule = vertex_features(fig1_problem, 1, FeatureConfig(rule_features=False))
    assert "rule:rate" not in no_rule
    assert "b:8 flowers" in no_rule


def test_edge_features_shared_unit(fig1_problem):
    fv = edge_features(fig1_problem, 0, 2)
    assert "shared_unit" in fv


def test_edge_features_rule_flag_role(fig1_problem):
    fv = edge_features(fig1_problem, 1, QUESTION)
    assert "i|rule:rate" in fv


def test_edge_feature_names_disjoint_from_vertex(fig1_problem):
    vertex_names = set(vertex_features(fig1_problem, 0))
    edge_names = set(edge_features(fig1_problem, 0, 1))
    assert not (vertex_names & edge_names)
    lca_names = set(lca_features(fig1_problem, 0, 1))
    assert not (vertex_names & lca_names)


def test_relevance_features_have_unit_match(fig1_problem):
    fv = relevance_features(fig1_problem, 0)
    assert "rel|unit_mismatch_question" in fv  # flowers vs bouquets


# --- training -------------------------------------------------------------------

def _toy_examples():
    return [({"a": 1.0}, "L1"), ({"b": 1.0}, "L2")] * 5


def test_train_separable_reaches_full_accuracy():
    model = train_model(("L1", "L2"), _toy_examples(), epochs=10, seed=0)
    for fv, label in _toy_examples():
        assert model.predict(fv) == label


def test_train_single_example():
    model = train_model(("L1", "L2"), [({"a": 1.0}, "L2")], epochs=10, seed=0)
    assert model.predict({"a": 1.0}) == "L2"


def test_train_deterministic():
    m1 = train_model(("L1", "L2"), _toy_examples(), epochs=5, seed=3)
    m2 = train_model(("L1", "L2"), _toy_examples(), epochs=5, seed=3)
    assert m1.weights == m2.weights


def test_train_unknown_label():
    with pytest.raises(ValueError):
        train_model(("L1",), [({"a": 1.0}, "LX")])


def test_train_empty():
    with pytest.raises(ValueError):
        train_model(("L1", "L2"), [])


# --- scoring ---------------------------------------------------------------------

def test_score_empty_fv_is_zero():
    model = LinearModel(("A", "B"), {"A": {"x": 2.0}, "B": {}})
    assert model.score({}, "A") == 0.0
    assert model.score({}, "B") == 0.0


def test_score_single_term():
    model = LinearModel(("A",), {"A": {"a": 2.0}})
    assert model.score({"a": 1.0}, "A") == 2.0


def test_score_unknown_label():
    model = LinearModel(("A",), {"A": {}})
    with pytest.raises(KeyError):
        model.score({"a": 1.0}, "B")


def test_argmax_invariant_to_positive_scaling():
    weights = {"A": {"x": 2.0, "y": -1.0}, "B": {"x": 1.0, "y": 3.0}}
    doubled = {l: {f: 2 * w for f, w in tab.items()} for l, tab in weights.items()}
    m1 = LinearModel(("A", "B"), weights)
    m2 = LinearModel(("A", "B"), doubled)
    for fv in ({"x": 1.0}, {"y": 1.0}, {"x": 1.0, "y": 2.0}):
        assert m1.predict(fv) == m2.predict(fv)


@settings(max_examples=40)
@given(
    st.dictionaries(st.sampled_from("abcdef"), st.integers(-5, 5).map(float), max_size=4),
    st.dictionaries(st.sampled_from("abcdef"), st.integers(-5, 5).map(float), max_size=4),
)
def test_score_linear(fv1, fv2):
    model = LinearModel(("A",), {"A": {"a": 1.5, "b": -2.0, "c": 0.5, "d": 3.0}})
    combined = dict(fv1)
    for k, v in fv2.items():
        combined[k] = combined.get(k, 0.0) + v
    assert model.score(combined, "A") == pytest.approx(
        model.score(fv1, "A") + model.score(fv2, "A")
    )


# --- serialization -----------------------------------------------------------------

def test_model_json_round_trip():
    model = train_model(("L1", "L2"), _toy_examples(), epochs=4, seed=1)
    clone = LinearModel.from_json_obj(json.loads(json.dumps(model.to_json_obj())))
    assert clone.labels == model.labels
    for fv, _ in _toy_examples():
        for label in model.labels:
            assert clone.score(fv, label) == pytest.approx(model.score(fv, label))


def test_suite_save_load(tmp_path, trained_suite, fig1_problem):
    path = tmp_path / "suite.json"
    trained_suite.save(path)
    clone = learn.ClassifierSuite.load(path)
    fv = vertex_features(fig1_problem, 1, clone.config)
    for label in learn.VERTEX_LABELS:
        assert clone.vertex.score(fv, label) == pytest.approx(trained_suite.vertex.score(fv, label))
    assert clone.config == trained_suite.config


def test_suite_label_sets(trained_suite):
    assert trained_suite.vertex.labels == ("Rate", "NotRate")
    assert trained_suite.edge.labels == EDGE_LABELS
    assert trained_suite.relevance.labels == ("Relevant", "Irrelevant")
    assert set(trained_suite.lca.labels) == {"+", "-", "-r", "*", "/", "/r"}


def test_training_sets_cover_all_classifiers(synthetic_corpus):
    sets = learn.build_training_sets(synthetic_corpus[:40])
    assert all(sets[k] for k in ("vertex", "edge", "relevance", "lca"))
    labels = {label for _, label in sets["edge"]}
    assert "SameUnit" in labels and "NoRelation" in labels


def test_vertex_classifier_sanity_on_held_out(trained_suite):
    from udgsolver import annotate, synth
    from udgsolver.corpus import QUESTION

    held_out = synth.gen_synthetic_corpus(seed=9, size=120)
    hits = total = 0
    for p in held_out:
        derived = annotate.derive_udg_gold(p)
        for v in range(p.n + 1):
            fv = vertex_features(p, QUESTION if v == p.n else v, trained_suite.config)
            gold = "Rate" if derived.vertex_labels[v] else "NotRate"
            hits += trained_suite.vertex.predict(fv) == gold
            total += 1
    assert hits / total > 0.9
