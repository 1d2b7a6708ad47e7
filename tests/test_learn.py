import hashlib
import json
import random
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from udgsolver import learn, synth, units
from udgsolver.corpus import QUESTION, build_problem
from udgsolver.udg import vertex_pairs
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

from conftest import format_1, oracle_dot


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


def _train_model_all_epochs(labels, examples, epochs=10, seed=0):
    # train_model as it was before the fixed-point stop and the per-example
    # score cache, in exact arithmetic: every epoch runs, every step scores
    # every label, and each weight's average is a Fraction. The values are
    # whole numbers, so every weight and score is an int
    examples = [({name: _exact_int(v) for name, v in fv.items()}, label) for fv, label in examples]
    w = {label: {} for label in labels}
    acc = {label: {} for label in labels}
    last = {label: {} for label in labels}
    step = 0

    def apply(label, fv, sign):
        table, atab, ltab = w[label], acc[label], last[label]
        for name, v in fv.items():
            atab[name] = atab.get(name, 0) + (step - ltab.get(name, 0)) * table.get(name, 0)
            ltab[name] = step
            table[name] = table.get(name, 0) + sign * v

    rng = random.Random(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            fv, gold = examples[idx]
            step += 1
            gold_score = _int_dot(fv, w[gold])
            rival, rival_score = None, None
            for label in labels:
                if label == gold:
                    continue
                s = _int_dot(fv, w[label])
                if rival_score is None or s > rival_score:
                    rival, rival_score = label, s
            if rival is not None and gold_score - rival_score < 1:
                apply(gold, fv, +1)
                apply(rival, fv, -1)
    total = max(step, 1)
    averaged = {}
    for label in labels:
        table, atab, ltab = w[label], acc[label], last[label]
        averaged[label] = {
            name: Fraction(atab.get(name, 0) + (total - ltab.get(name, 0)) * weight, total)
            for name, weight in table.items()
        }
    return LinearModel(labels=tuple(labels), weights=averaged, epochs=epochs, seed=seed)


def _exact_int(value):
    assert Fraction(value).denominator == 1
    return int(value)


def _int_dot(fv, weights):
    return sum(v * weights.get(name, 0) for name, v in fv.items())


def _model_value(model):
    # labels, epochs, seed and every nonzero weight as its exact ratio
    return (
        model.labels,
        model.epochs,
        model.seed,
        {label: {name: Fraction(a, model.denominator) for name, a in model.weights[label].items() if a}
         for label in model.labels},
    )


def _trained_value(labels, examples, epochs, seed):
    # train_model's model, checked to hold int numerators over its step count
    model = train_model(labels, examples, epochs, seed)
    assert model.denominator == epochs * len(examples)
    assert all(type(a) is int for table in model.weights.values() for a in table.values())
    return _model_value(model)


@pytest.fixture(scope="module")
def training_sets_120():
    return learn.build_training_sets(synth.gen_synthetic_corpus(0, 120))


_CLASSIFIER_LABELS = {
    "vertex": learn.VERTEX_LABELS,
    "edge": learn.EDGE_LABELS,
    "relevance": learn.RELEVANCE_LABELS,
    "lca": learn.OP_LABELS,
}


@pytest.mark.parametrize("kind", sorted(_CLASSIFIER_LABELS))
def test_fixed_point_stop_equals_all_epochs(training_sets_120, kind):
    labels, examples = _CLASSIFIER_LABELS[kind], training_sets_120[kind]
    for epochs in (1, 3, 10):
        for seed in (0, 3):
            expected = _train_model_all_epochs(labels, examples, epochs, seed)
            assert _trained_value(labels, examples, epochs, seed) == _model_value(expected)


@contextmanager
def _counting_rescorings():
    # each call of a training kernel scores one example against one label
    calls = Counter()

    def counted(name, kernel):
        return lambda *args: calls.update((name,)) or kernel(*args)

    with mock.patch.object(learn, "_score", counted("_score", learn._score)):
        yield calls


@pytest.fixture
def rescorings():
    with _counting_rescorings() as calls:
        yield calls


def test_non_separable_set_runs_every_epoch(rescorings):
    # one vector under two labels: every epoch has a margin mistake
    examples = [({"a": 1.0, "b": 2.0}, "L1"), ({"a": 1.0, "b": 2.0}, "L2")] * 3
    model = train_model(("L1", "L2"), examples, epochs=7, seed=1)
    assert sum(rescorings.values()) == 2 * len(examples) * 7  # gold and rival, every step
    expected = _train_model_all_epochs(("L1", "L2"), examples, epochs=7, seed=1)
    assert _model_value(model) == _model_value(expected)


def test_separable_set_stops_after_first_clean_epoch(rescorings):
    # epoch 1 separates the toy set with margin 2, epoch 2 updates nothing,
    # and epochs 3-10 are not run. Epoch 1 scores every example against both
    # labels (20 calls); its only updates are at its first two steps, so
    # epoch 2 rescores just the two examples scored by then (4 calls) and
    # keeps the other eight examples' scores
    model = train_model(("L1", "L2"), _toy_examples(), epochs=10, seed=0)
    assert sum(rescorings.values()) == 2 * len(_toy_examples()) + 2 * 2
    expected = _train_model_all_epochs(("L1", "L2"), _toy_examples(), epochs=10, seed=0)
    assert _model_value(model) == _model_value(expected)


# whole numbers, as floats (the extractor's) and as ints
_sparse_vectors = st.dictionaries(
    st.sampled_from(("bias", "a", "b", "c", "d")),
    st.sampled_from((-1.0, 0.0, 1.0, 2.0, 3.0)) | st.integers(-3, 3),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(tuple(f"L{k}" for k in range(n))),
            st.lists(st.tuples(_sparse_vectors, st.sampled_from([f"L{k}" for k in range(n)])),
                     min_size=1, max_size=12),
        )
    ),
    st.integers(1, 5),
    st.integers(0, 3),
)
def test_score_cache_equals_all_epochs_on_random_sets(labeled, epochs, seed):
    # empty vectors and untouched labels keep rival scores tied, so the
    # first-label tie-break is drawn often
    labels, examples = labeled
    expected = _train_model_all_epochs(labels, examples, epochs, seed)
    assert _trained_value(labels, examples, epochs, seed) == _model_value(expected)


def test_large_values_train_exactly():
    # scores near 2**90 that cancel: a float sum in feature order would round
    # the "c" term away and, with 4 epochs, flip a margin test
    big = 2**45
    examples = [({"b": float(big)}, "L2"), ({"c": 1.0, "d": -big, "b": big}, "L1")]
    expected = _train_model_all_epochs(("L1", "L2"), examples, epochs=4, seed=0)
    assert _trained_value(("L1", "L2"), examples, 4, 0) == _model_value(expected)


@pytest.mark.parametrize("value", [0.5, -1.5, 1e-300, float("inf"), float("nan"), "1", None])
def test_train_rejects_values_that_are_not_whole_numbers(value):
    examples = [({"a": 1.0, "b": value}, "L1"), ({"a": 1.0}, "L2")]
    with pytest.raises(ValueError, match="is not a whole number"):
        train_model(("L1", "L2"), examples)
    with pytest.raises(ValueError, match="is not a whole number"):
        train_model(("L1", "L2"), [((("p|", examples[0][0]),), "L1")])


def test_score_kernel_equals_the_exact_sum():
    # past 2**53 too, where a float sum would round
    rng = random.Random(7)
    for _ in range(200):
        weights = [rng.randint(-2**70, 2**70) for _ in range(30)]
        ones = tuple(rng.sample(range(30), rng.randint(0, 12)))
        ids = tuple(rng.sample(range(30), rng.randint(0, 6)))
        values = tuple(rng.randint(-3, 3) for _ in ids)
        exact = sum(Fraction(weights[i]) for i in ones) + sum(Fraction(v * weights[i]) for v, i in zip(values, ids))
        assert learn._score((ones, ids, values), weights) == exact


@pytest.mark.parametrize("kind", sorted(_CLASSIFIER_LABELS))
def test_extracted_training_sets_train_to_int_numerators(training_sets_120, kind):
    # the feature extractor emits whole-number counts, flags and biases
    examples = training_sets_120[kind]
    assert {type(v) for fv, _ in examples for v in fv.values()} == {float}
    _trained_value(_CLASSIFIER_LABELS[kind], examples, 10, 0)


# --- block-vector examples ------------------------------------------------------

def _score_bits(scores):
    # the exact scores, each checked to be an int
    assert all(type(s) in (int, Fraction) for s in scores)
    return [Fraction(s) for s in scores]


def _expanded(fv):
    return dict(fv) if isinstance(fv, dict) else learn.expand(fv)


def _oracle_scores(model, fv):
    return [oracle_dot(fv, model.weights[label]) for label in model.labels]


def _oracle_predict(model, fv):
    # the first label whose oracle score is the highest
    scores = _oracle_scores(model, fv)
    return model.labels[scores.index(max(scores))]


@pytest.fixture(scope="module")
def training_blocks_120():
    return learn.training_blocks(synth.gen_synthetic_corpus(0, 120))


@pytest.mark.parametrize("kind", sorted(_CLASSIFIER_LABELS))
def test_block_examples_train_as_their_expanded_dicts(training_blocks_120, training_sets_120, kind):
    labels, blocks, dicts = _CLASSIFIER_LABELS[kind], training_blocks_120[kind], training_sets_120[kind]
    assert [(list(learn.expand(b).items()), label) for b, label in blocks] == [
        (list(fv.items()), label) for fv, label in dicts
    ]
    for epochs, seed in ((10, 0), (3, 3)):
        model = train_model(labels, blocks, epochs, seed)
        assert _model_value(model) == _trained_value(labels, dicts, epochs, seed)
    for fv, _ in dicts:
        assert all(type(s) is int for s in model.scores(fv))
        assert _score_bits(model.scores(fv)) == _score_bits(_oracle_scores(model, fv))
        assert model.predict(fv) == _oracle_predict(model, fv)


_block_names = st.sampled_from(("bias", "a", "b", "c"))
_prefixes = st.sampled_from(("", "i|", "j|", "rel|"))


@st.composite
def _block_sets(draw):
    # a pool of blocks, empty ones included, that examples share under one
    # or more prefixes; names carry no "|", so an example's blocks, each under
    # its own prefix, are disjoint. The values are whole numbers, or not
    whole = draw(st.booleans())
    values = st.sampled_from((1.0, 2.0, -1.0, 0.0) if whole else (1.0, 0.5, 2.0, -1.5))
    pool = draw(st.lists(st.dictionaries(_block_names, values, max_size=4), min_size=1, max_size=4))
    block = st.integers(0, len(pool) - 1).map(pool.__getitem__)
    vector = st.lists(st.tuples(_prefixes, block), max_size=4, unique_by=lambda b: b[0]).map(tuple)
    labels = tuple(f"L{k}" for k in range(draw(st.integers(2, 5))))
    # a plain dict is one block with the prefix ""
    examples = draw(st.lists(st.tuples(vector | block, st.sampled_from(labels)), min_size=1, max_size=10))
    return labels, examples


@settings(max_examples=200, deadline=None)
@given(_block_sets(), st.integers(1, 5), st.integers(0, 3))
def test_random_block_examples_train_as_their_expanded_dicts(labeled, epochs, seed):
    labels, examples = labeled
    dicts = [(_expanded(fv), label) for fv, label in examples]
    if not all(float(v).is_integer() for fv, _ in dicts for v in fv.values()):
        for given in (examples, dicts):
            with pytest.raises(ValueError, match="is not a whole number"):
                train_model(labels, given, epochs, seed)
        return
    model = train_model(labels, examples, epochs, seed)
    assert _model_value(model) == _trained_value(labels, dicts, epochs, seed)
    for expanded, _ in dicts:
        assert _score_bits(model.scores(expanded)) == _score_bits(_oracle_scores(model, expanded))
        assert model.predict(expanded) == _oracle_predict(model, expanded)


def test_a_name_spelled_with_two_prefixes_is_one_feature():
    # ("", "i|a") and ("i|", "a") expand to one name, so they share one weight
    examples = [
        ((("", {"i|a": 1.0, "b": 2.0}),), "L1"),
        ((("i|", {"a": 1.0}), ("", {"b": 1.0})), "L2"),
    ] * 2
    dicts = [(learn.expand(fv), label) for fv, label in examples]
    model = train_model(("L1", "L2"), examples, epochs=3, seed=0)
    assert set(model.weights["L1"]) == {"i|a", "b"}
    assert _model_value(model) == _trained_value(("L1", "L2"), dicts, 3, 0)


def test_train_suite_peak_memory_is_below_half_the_dict_sets():
    # training reads block vectors that point into the feature passes, so
    # its traced peak (models included) stays below half of what the same
    # examples hold as expanded dicts; train_suite runs first, so it also
    # pays for the caches the feature pass fills
    problems = synth.gen_synthetic_corpus(0, 200)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        suite = learn.train_suite(problems)
        peak = tracemalloc.get_traced_memory()[1] - start
        del suite
        start = tracemalloc.get_traced_memory()[0]
        sets = learn.build_training_sets(problems)
        size = tracemalloc.get_traced_memory()[0] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert all(sets.values()) and peak < size / 2


def test_tied_rivals_go_to_first_label():
    # every rival ties at 0 on the first visits, and the first non-gold
    # label, "A", takes the update each time; "B" is never updated. The empty
    # vector is a margin mistake on every visit, so every epoch runs
    labels = ("A", "B", "C", "D")
    examples = [({"x": 1.0}, "D"), ({"y": 1.0}, "C"), ({}, "D")]
    model = train_model(labels, examples, epochs=4, seed=2)
    assert model.weights["A"]["x"] < 0 and model.weights["A"]["y"] < 0
    assert model.weights["B"] == {}
    assert _model_value(model) == _model_value(_train_model_all_epochs(labels, examples, 4, 2))


@pytest.mark.parametrize("epochs", [0, -3, True, 2.0, "10"])
def test_train_rejects_epochs_below_one(epochs):
    with pytest.raises(ValueError, match="epochs must be an int >= 1"):
        train_model(("L1", "L2"), _toy_examples(), epochs=epochs)
    with pytest.raises(ValueError, match="epochs must be an int >= 1"):
        learn.train_suite([], epochs=epochs)  # before the empty set is found


def test_train_rejects_duplicate_labels():
    # the cache indexes labels by position, so a repeated label would be
    # taken as its own rival
    with pytest.raises(ValueError, match="duplicate labels"):
        train_model(("A", "A"), [({"x": 1.0}, "A")])
    with pytest.raises(ValueError, match="duplicate labels"):
        train_model(("A", "B", "A"), [({"x": 1.0}, "B")])


# sha256 of the saved train_suite(gen_synthetic_corpus(0, 200)) file, in
# model format 2; it pins every trained numerator and denominator
SUITE_200_SHA256 = "7b18f161303cee103a327d81e62e4ae3942dea73052948fec9ed9af8dccb73e9"
# sha256 of the same suite rewritten as format 1, each weight the float
# nearest its exact ratio: the file float training wrote before weights were
# exact, recorded before training stopped at its first mistake-free epoch
SUITE_200_FORMAT_1_SHA256 = "1f51b3461eed39f230a8124c06e59cbeb456f71034c48190907765453a4a248f"


def test_trained_suite_file_pinned(tmp_path):
    path = tmp_path / "suite.json"
    learn.train_suite(synth.gen_synthetic_corpus(0, 200)).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_200_SHA256
    rewritten = json.dumps(format_1(json.loads(path.read_text())), sort_keys=True)
    assert hashlib.sha256(rewritten.encode()).hexdigest() == SUITE_200_FORMAT_1_SHA256


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
    assert model.score(combined, "A") == model.score(fv1, "A") + model.score(fv2, "A")


# --- serialization -----------------------------------------------------------------

def test_model_json_round_trip():
    model = train_model(("L1", "L2"), _toy_examples(), epochs=4, seed=1)
    clone = LinearModel.from_json_obj(json.loads(json.dumps(model.to_json_obj())))
    assert clone == model and clone.denominator == 4 * len(_toy_examples())


def test_suite_save_load(tmp_path, trained_suite, fig1_problem):
    path, again = tmp_path / "suite.json", tmp_path / "again.json"
    trained_suite.save(path)
    clone = learn.ClassifierSuite.load(path)
    fv = vertex_features(fig1_problem, 1, clone.config)
    for label in learn.VERTEX_LABELS:
        assert clone.vertex.score(fv, label) == trained_suite.vertex.score(fv, label)
    assert clone == trained_suite
    assert json.loads(path.read_text())["format"] == 2
    clone.save(again)
    assert again.read_bytes() == path.read_bytes()


def test_format_1_suite_loads_as_exact_ratios(tmp_path, trained_suite):
    # each float weight is its exact ratio; saved again, the suite is format
    # 2, and that file loads and saves to the same bytes
    path, old, again = tmp_path / "suite.json", tmp_path / "old.json", tmp_path / "again.json"
    trained_suite.save(path)
    obj = format_1(json.loads(path.read_text()))
    old.write_text(json.dumps(obj))
    loaded = learn.ClassifierSuite.load(old)
    for part, _ in learn.PARTS:
        model = getattr(loaded, part)
        expected = {label: {} for label in model.labels}
        for key, w in obj[part]["weights"].items():
            label, _, name = key.partition("\x1f")
            expected[label][name] = Fraction(w)
        assert _model_value(model)[3] == expected
    loaded.save(path)
    learn.ClassifierSuite.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()


def test_suite_label_sets(trained_suite):
    assert trained_suite.vertex.labels == ("Rate", "NotRate")
    assert trained_suite.edge.labels == EDGE_LABELS
    assert trained_suite.relevance.labels == ("Relevant", "Irrelevant")
    assert set(trained_suite.lca.labels) == {"+", "-", "-r", "*", "/", "/r"}


# sha256 of json.dumps(build_training_sets(synthetic_corpus[:40])), recorded
# before the feature pass was shared; it pins each vector's names, values and
# insertion order (the order the dot products add in)
TRAINING_SETS_SHA256 = "482cb5ddb84035cdcfd0ba04da0ed9131ef69df1b8c0b083ea72e1348ad140b0"


def test_training_sets_cover_all_classifiers(synthetic_corpus):
    sets = learn.build_training_sets(synthetic_corpus[:40])
    assert all(sets[k] for k in ("vertex", "edge", "relevance", "lca"))
    labels = {label for _, label in sets["edge"]}
    assert "SameUnit" in labels and "NoRelation" in labels
    assert hashlib.sha256(json.dumps(sets).encode()).hexdigest() == TRAINING_SETS_SHA256


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


# --- all-labels scoring ----------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d", "e", "f", "g"])
# whole numbers only: the extractor's floats and ints
_values = st.integers(-5, 5).map(float) | st.integers(-3, 3) | st.sampled_from([1.0, 2.0, 3.0, 1])


def _old_predict(model, fv):
    # the per-label scan predict ran before the all-labels scorer
    best = model.labels[0]
    best_score = model.score(fv, best)
    for label in model.labels[1:]:
        s = model.score(fv, label)
        if s > best_score:
            best, best_score = label, s
    return best


@settings(max_examples=80)
@given(
    st.dictionaries(_names, _values, max_size=5),
    st.dictionaries(_names, _values, max_size=5),
    st.dictionaries(_names, st.floats(-10, 10, allow_nan=False), max_size=6),
)
def test_scores_equal_per_label_score(fv1, fv2, table):
    weights = {"A": table, "B": {k: -v for k, v in table.items()}, "C": {}}
    model = LinearModel(("A", "B", "C"), weights)
    assert model.scores(fv1) == tuple(model.score(fv1, label) for label in model.labels)
    # the dot product of a vector joined from two disjoint blocks is the
    # sum of the blocks' dot products, as the inference table adds a pair's
    # blocks
    second = {f"2|{k}": v for k, v in fv2.items()}
    joined = {**fv1, **second}
    model2 = LinearModel(
        ("A", "B", "C"),
        {label: {**tab, **{f"2|{k}": w for k, w in tab.items()}} for label, tab in weights.items()},
    )
    assert model2.denominator == model.denominator
    assert model2.scores(joined) == tuple(map(add, model2.scores(fv1), model2.scores(second)))
    assert model.predict(fv1) == _old_predict(model, fv1)


_weights = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e308, -1e308]) | st.floats(
    -1e3, 1e3, allow_nan=False
)
# a format-1 model may hold int weights, past 2**53 too
_mixed_weights = _weights | st.integers(-3, 3) | st.sampled_from([2**60, 2**53 + 1])
_weight_names = st.sampled_from(["a", "b", "c", "p|a", "p|b", "p|d", "q|a"])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.dictionaries(_weight_names, _weights, max_size=6)
        | st.dictionaries(_weight_names, _mixed_weights, max_size=6),
        min_size=1,
        max_size=4,
    ),
    st.dictionaries(_names, _values, max_size=6),
    st.sampled_from(["", "p|", "q|", "z|"]),
)
def test_scores_equal_the_exact_dot_product(weights, fv, prefix):
    # names absent under some labels, signed zeros, subnormal and huge
    # weights, int weights and empty vectors (the int 0): each score over
    # the denominator is the exact dot product of the weights as given, and
    # its float is that Fraction rounded once
    labels = tuple(f"L{k}" for k in range(len(weights)))
    model = LinearModel(labels, dict(zip(labels, weights)))
    prefixed = {prefix + name: value for name, value in fv.items()}
    expected = [oracle_dot(prefixed, table) for table in weights]
    scores = model.scores(prefixed)
    assert all(type(s) is int for s in scores)
    assert [Fraction(s, model.denominator) for s in scores] == expected
    assert [s / model.denominator for s in scores if abs(s) < 2**1000 * model.denominator] == [
        float(e) for e in expected if abs(e) < 2**1000
    ]
    assert [model.score(prefixed, label) for label in labels] == list(scores)
    assert model.predict(prefixed) == labels[expected.index(max(expected))]


@pytest.mark.parametrize(
    "fv",
    [{}, {"y": 1.0}, {"y": 1}, {"y": 3.0}, {"x": 1.0, "y": 1.0}, {"y": 1.0, "x": 2.0}],
)
def test_format_1_weights_score_as_exact_ratios(fv):
    model = LinearModel.from_json_obj(_model_obj(), 1)  # "A" weighs "x" 1.5, "B" weighs "y" with the int -2
    assert model.weights == {"A": {"x": 3}, "B": {"y": -4}} and model.denominator == 2
    expected = [oracle_dot(fv, {"x": 1.5}), oracle_dot(fv, {"y": -2})]
    assert [Fraction(s, 2) for s in model.scores(fv)] == expected


@pytest.mark.parametrize("value", [0.5, "1", float("inf")])
def test_scores_reject_values_that_are_not_whole_numbers(value):
    model = LinearModel(("A", "B"), {"A": {"x": 2}, "B": {}})
    with pytest.raises(ValueError, match="is not a whole number"):
        model.scores({"x": 1.0, "y": value})


def test_weights_are_taken_as_exact_ratios():
    ints = LinearModel(("A", "B"), {"A": {"i|x": 2}, "B": {"x": -1}})
    assert LinearModel(("A", "B"), {"A": {"i|x": 2.0}, "B": {"x": -1.0}}) == ints
    assert ints.denominator == 1 and repr(ints) == repr(LinearModel(("A", "B"), {"A": {"i|x": 2}, "B": {"x": -1}}))
    quarters = LinearModel(("A",), {"A": {"x": 0.75, "y": -2}}, denominator=3)
    assert quarters.weights == {"A": {"x": 3, "y": -8}} and quarters.denominator == 12
    thirds = LinearModel(("A",), {"A": {"x": Fraction(1, 3), "y": 0.5}})
    assert thirds.weights == {"A": {"x": 2, "y": 3}} and thirds.denominator == 6


@pytest.mark.parametrize("denominator", [0, -4, 1.0, True, "2"])
def test_model_rejects_a_denominator_below_one(denominator):
    with pytest.raises(ValueError, match="denominator must be an int >= 1"):
        LinearModel(("A",), {"A": {"x": 1}}, denominator=denominator)


def test_predict_ties_go_to_first_label():
    model = LinearModel(("A", "B", "C"), {"A": {"x": 1.0}, "B": {"x": 2.0}, "C": {"x": 2.0}})
    assert model.predict({"x": 1.0}) == "B"
    assert model.predict({"y": 1.0}) == "A"  # all zero
    assert model.predict({}) == _old_predict(model, {}) == "A"


def test_score_is_exact_where_floats_would_cancel():
    # a float sum gives 0.0 in feature order and 2.0 compensated (sum() from
    # Python 3.12 on); the exact score is 2
    model = LinearModel(("A",), {"A": {"a": 1.0, "b": 1e100, "c": 1.0, "d": -1e100}})
    assert model.score({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}, "A") == 2


# --- model validation ------------------------------------------------------------

def _model_obj():
    return {"labels": ["A", "B"], "epochs": 10, "seed": 0, "weights": {"A\x1fx": 1.5, "B\x1fy": -2}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o["weights"].update({"A\x1fz": "1.0"}), "finite number"),
        (lambda o: o["weights"].update({"A\x1fz": True}), "finite number"),
        (lambda o: o["weights"].update({"A\x1fz": float("nan")}), "finite number"),
        (lambda o: o["weights"].update({"A\x1fz": float("inf")}), "finite number"),
        (lambda o: o["weights"].update({"A\x1fz": float("-inf")}), "finite number"),
        (lambda o: o["weights"].update({"A\x1fz": 10**400}), "finite number"),
        (lambda o: o["weights"].update({"C\x1fz": 1.0}), "names no label"),
        (lambda o: o["weights"].update({"Az": 1.0}), "names no label"),
        (lambda o: o.update(labels=["A", "B", "A"]), "duplicate labels"),
        (lambda o: o.update(labels="AB"), "list of strings"),
        (lambda o: o.update(epochs="10"), "epochs must be an int"),
        (lambda o: o.update(epochs=True), "epochs must be an int"),
        (lambda o: o.update(epochs=0), "epochs must be an int >= 1"),
        (lambda o: o.update(epochs=-5), "epochs must be an int >= 1"),
        (lambda o: o.update(seed=1.0), "seed must be an int"),
    ],
)
def test_model_from_json_rejects_bad_values(edit, message):
    obj = _model_obj()
    assert LinearModel.from_json_obj(obj, 1).weights == {"A": {"x": 3}, "B": {"y": -4}}
    edit(obj)
    with pytest.raises(ValueError, match=message):
        LinearModel.from_json_obj(obj, 1)


def _model_obj_2():
    return {"labels": ["A", "B"], "epochs": 10, "seed": 0, "denominator": 4, "weights": {"A": {"x": 6}, "B": {"y": -2}}}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda o: o["weights"]["A"].update(z=1.5), "'A' 'z' must be an int, got 1.5"),
        (lambda o: o["weights"]["A"].update(z=1.0), "'A' 'z' must be an int, got 1.0"),
        (lambda o: o["weights"]["B"].update(z=True), "'B' 'z' must be an int, got True"),
        (lambda o: o["weights"]["B"].update(z="3"), "must be an int"),
        (lambda o: o["weights"].update(C={"z": 1}), "names no label"),
        (lambda o: o.update(denominator=0), "denominator must be an int >= 1"),
        (lambda o: o.update(denominator=-4), "denominator must be an int >= 1"),
        (lambda o: o.update(denominator=4.0), "denominator must be an int >= 1"),
        (lambda o: o.update(denominator=True), "denominator must be an int >= 1"),
        (lambda o: o.update(denominator="4"), "denominator must be an int >= 1"),
        (lambda o: o.update(labels=["A", "B", "A"]), "duplicate labels"),
        (lambda o: o.update(epochs=0), "epochs must be an int >= 1"),
        (lambda o: o.update(seed=1.0), "seed must be an int"),
    ],
)
def test_format_2_model_rejects_bad_values(edit, message):
    obj = _model_obj_2()
    model = LinearModel.from_json_obj(obj)
    assert model.weights == {"A": {"x": 6}, "B": {"y": -2}} and model.denominator == 4
    assert LinearModel.from_json_obj(json.loads(json.dumps(model.to_json_obj()))) == model
    edit(obj)
    with pytest.raises(ValueError, match=message):
        LinearModel.from_json_obj(obj)


def test_suite_load_rejects_wrong_label_set(tmp_path, trained_suite):
    path = tmp_path / "suite.json"
    trained_suite.save(path)
    obj = json.loads(path.read_text())
    obj["edge"]["labels"] = obj["edge"]["labels"][1:]
    del obj["edge"]["weights"][trained_suite.edge.labels[0]]
    path.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="bad 'edge'.*labels must be"):
        learn.ClassifierSuite.load(path)


# --- the inference table's packed sums ------------------------------------------

_VERTEX_NAMES = ("bias", "a", "b", "c")
# the names each part's model may weigh: every role's prefixed vertex names,
# its bias and flag names, and one name no query of the part reads
_PART_NAMES = {
    "vertex": _VERTEX_NAMES,
    "edge": (
        "pair_bias", "shared_unit", "no_shared_unit", "i_den_matches_j", "j_den_matches_i", "a",
        *(prefix + name for prefix in ("i|", "j|") for name in _VERTEX_NAMES),
    ),
    "relevance": (
        "rel|unit_matches_question", "rel|unit_mismatch_question", "rel|den_matches_question", "a",
        *("rel|" + name for name in _VERTEX_NAMES),
    ),
    "lca": ("lca_bias", "a", *(prefix + name for prefix in ("lcai|", "lcaj|") for name in _VERTEX_NAMES)),
}
_UNITS = (
    units.QuantityUnit(("apple",)),
    units.QuantityUnit(("pear",)),
    units.QuantityUnit(("apple",), ("apple",), ("box",)),
    units.QuantityUnit(("box",)),
)
# zero, small, at and past a limb's bounds, past a word, and as wide as
# JSON's default digit limit lets a file hold (up to 4,300 digits), with
# sparse and dense high digits
_numerators = (
    st.integers(-3, 3)
    | st.sampled_from([2**23 - 1, -(2**23), 2**23, -(2**23) - 1, 2**24 + 5, 2**63, -(2**64), 10**4299, -(10**4299)])
    | st.builds(lambda a, k, b: (a << k) + b, st.integers(-(2**30), 2**30), st.integers(0, 300), st.integers(-(2**30), 2**30))
    | st.builds(lambda a, k, b: a * 10**k + b, st.integers(-9, 9), st.integers(0, 4298), st.integers(-(2**40), 2**40))
)
_whole_values = st.integers(-5, 5) | st.integers(-5, 5).map(float)


@st.composite
def _suites(draw):
    # some labels weigh nothing at all
    models = {
        part: LinearModel(
            labels,
            {label: draw(st.dictionaries(st.sampled_from(_PART_NAMES[part]), _numerators, max_size=5)) for label in labels},
            denominator=draw(st.integers(1, 7)),
        )
        for part, labels in learn.PARTS
    }
    return learn.ClassifierSuite(**models)


@st.composite
def _passes(draw):
    n = draw(st.integers(1, 4))
    vectors = tuple(draw(st.dictionaries(st.sampled_from(_VERTEX_NAMES), _whole_values, max_size=4)) for _ in range(n + 1))
    found = draw(st.none() | st.tuples(*[st.sampled_from(_UNITS)] * (n + 1)))
    return learn.ProblemFeatures(vectors, found)


def _assert_table_equals_the_models(suite, feats):
    n = len(feats.vectors) - 1
    vertex, edge, relevance, lca = suite.inference_table().scores(feats)
    assert [tuple(s) for s in vertex] == [suite.vertex.scores(fv) for fv in feats.vectors]
    assert [tuple(s) for s in edge] == [
        suite.edge.scores(learn.expand(feats.pair_blocks(learn.EDGE_LAYOUT, i, j))) for i, j in vertex_pairs(n)
    ]
    assert [tuple(s) for s in relevance] == [
        suite.relevance.scores(learn.expand(feats.relevance_blocks(q))) for q in range(n)
    ]
    assert [tuple(s) for s in lca] == [
        suite.lca.scores(learn.expand(feats.pair_blocks(learn.LCA_LAYOUT, i, j)))
        for i, j in combinations(range(n), 2)
    ]


@settings(max_examples=150, deadline=None)
@given(_suites(), _passes())
def test_inference_table_scores_equal_the_models(suite, feats):
    # every query's scores off the packed rows, wide numerators, zero and
    # missing names, empty vectors and 0 values included, are the models'
    # ints for its expanded vector
    _assert_table_equals_the_models(suite, feats)


def _extreme_suite():
    # "a" in every role, each label's numerator at a digit's bounds, past
    # them, or wide, with its sign alternating
    half = 2 ** (learn.LIMB_BITS - 1)
    pool = [half - 1, -half, 2 * half - 1, -2 * half, half * 2**24 + 3, -(10**4299) + half, 0, 1]
    models = {}
    for k, (part, labels) in enumerate(learn.PARTS):
        names = [name for name in _PART_NAMES[part] if name.endswith("a")]
        models[part] = LinearModel(
            labels,
            {label: {name: pool[(k + m + x) % len(pool)] for x, name in enumerate(names)} for m, label in enumerate(labels)},
        )
    return learn.ClassifierSuite(**models)


@pytest.mark.parametrize(
    "vector",
    [
        {"a": 2**40 - 1},
        {"a": -(2**40 - 1)},
        {"a": float(2**40 - 1)},
        {"a": 2**39, "b": -(2**39 - 2), "c": 1.0},
        {"a": 2**39 - 1, "bias": 2**39},
    ],
)
def test_inference_table_is_exact_up_to_mass_two_to_the_forty(vector):
    suite = _extreme_suite()
    for n in (1, 2):
        vectors = [{"a": 1.0}] * (n + 1)
        for k in range(n + 1):
            feats = learn.ProblemFeatures(tuple(vectors[:k] + [vector] + vectors[k + 1 :]), None)
            _assert_table_equals_the_models(suite, feats)


@pytest.mark.parametrize("vector", [{"a": 2**40}, {"a": -(2**40)}, {"a": 2**39, "b": -(2**39)}, {"b": 2.0**40}])
def test_inference_table_refuses_mass_two_to_the_forty(vector):
    suite = _extreme_suite()
    feats = learn.ProblemFeatures(({"a": 1.0}, {"a": 1.0}, vector), None)
    with pytest.raises(ValueError, match=r"vertex 2: feature mass 1099511627776 reaches 2\*\*40"):
        suite.inference_table().scores(feats)
