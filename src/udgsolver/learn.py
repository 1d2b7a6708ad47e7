"""Sparse feature extraction and averaged-perceptron linear classifiers.

Four classifiers drive inference: a binary rate detector per vertex, a
six-way edge classifier per vertex pair, a binary relevance classifier per
quantity, and a six-way lowest-common-ancestor operation classifier per
quantity pair. One feature pass per (problem, config) tags the tokens and
finds the sentence bounds once (``units.tag_tokens``), for each vertex's
unit and feature vector. Every classifier's vectors are block vectors that
point into it: a tuple of (prefix, vector) blocks, such as an edge pair's
bias, its first vertex's vector under "i|", its second's under "j|" and its
unit flags.
The blocks of one vector are disjoint, so ``expand`` gives the one dict
they stand for, in block order; training reads the blocks themselves, and
the per-query functions expand the same assembly over just the vertices
they name.

A label's score is the dot product of the model's weights with the
expanded vector: each value times its weight, added one at a time in
feature order from the int 0 (``LinearModel.scores``, the definition). A
suite's ``InferenceTable`` gives the same floats for a whole feature pass:
it maps each feature name to its weights under every label of all six
roles a vertex vector is read in, so each vertex's names are looked up
once per solve. Only the features whose value is not the float 1.0 are
multiplied out, since ``1.0 * w`` is ``w`` bit for bit for every float
``w`` (signed zeros included); weights that are not all floats (a JSON
model may hold the int -2) multiply every value, as do int and bool
values, so each term keeps the type the product gives (``_columns``).
The extractor's values are floats, so every term is a float. Each label's
score then adds its terms one at a time in feature order, from the block's
start, in one ``ordered.ordered_sums`` per block (a block with no rows adds
nothing): the same float operations in the same order as the dot product,
so scores are the same floats on every supported Python version. Both the
solve and the eval's classifier accuracies score through that table.
Trained models and suites are immutable apart from the table, which is
built on first use and holds nothing a rebuild would not reproduce, so
they are safe for concurrent scoring.

Training compiles each distinct block once per classifier: its feature
names get int ids, and the weights live in dense per-label lists. The
extractor's values are whole-number counts, flags and biases, so while
training every weight, score and margin is an integer; when a bound on the
set proves all of them stay below 2**53, float arithmetic on them is exact,
and scores are summed with ``sum()``, whose compensation from Python 3.12
on then adds nothing. Any other set is scored one term at a time, as
``LinearModel.scores`` adds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache, reduce
from itertools import chain, combinations, repeat
from operator import add, itemgetter, mul
from typing import Iterable, Mapping, Sequence

from . import annotate, exprtree, units
from .corpus import QUESTION, Problem
from .ordered import ordered_sum, ordered_sums
from .udg import EdgeType, vertex_pairs

RATE, NOT_RATE = "Rate", "NotRate"
RELEVANT, IRRELEVANT = "Relevant", "Irrelevant"

VERTEX_LABELS = (RATE, NOT_RATE)
EDGE_LABELS = tuple(e.value for e in EdgeType)
RELEVANCE_LABELS = (RELEVANT, IRRELEVANT)
OP_LABELS = exprtree.OPS

#: The suite's four classifiers with their labels, in the order they are
#: built, trained, saved and loaded.
PARTS = (
    ("vertex", VERTEX_LABELS),
    ("edge", EDGE_LABELS),
    ("relevance", RELEVANCE_LABELS),
    ("lca", OP_LABELS),
)

#: Context window radius around a quantity mention, in tokens.
CONTEXT_WINDOW = 3

FeatureVector = dict[str, float]
#: A feature vector as a tuple of disjoint (prefix, vector) blocks; see ``expand``.
BlockVector = tuple[tuple[str, Mapping[str, float]], ...]
TrainingSet = list[tuple[FeatureVector, str]]
BlockSet = list[tuple[BlockVector, str]]


@dataclass(frozen=True)
class FeatureConfig:
    """Feature-family switches; both families are on by default."""

    context_features: bool = True
    rule_features: bool = True
    window: int = CONTEXT_WINDOW

    def __post_init__(self):
        for name in ("context_features", "rule_features"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if isinstance(self.window, bool) or not isinstance(self.window, int) or self.window < 0:
            raise ValueError(f"window must be an int >= 0, got {self.window!r}")


def _context_names(toks: Sequence[str], tags: Sequence[str], lo: int, hi: int, anchor: int) -> list[str]:
    names = []
    for i in range(lo, hi):
        tok, tag = toks[i], tags[i]
        names += (f"u:{tok}", f"u@{i - anchor}:{tok}", f"p:{tag}", f"wp:{tok}_{tag}")
    for i in range(lo, hi - 1):
        a, b = toks[i], toks[i + 1]
        ta, tb = tags[i], tags[i + 1]
        names += (f"b:{a} {b}", f"pb:{ta} {tb}")
        if ta == units.NUM:
            names.append(f"bn:<n> {b}")
        if tb == units.NUM:
            names.append(f"bn:{a} <n>")
    return names


def _vertex_window(problem: Problem, vertex: int | str, window: int) -> tuple[int, int, int]:
    if vertex == QUESTION:
        lo, hi = problem.question_span
        return lo, hi, lo
    q = problem.quantities[vertex]
    lo = max(0, q.token_index - window)
    hi = min(len(problem.tokens), q.token_index + window + 1)
    return lo, hi, q.token_index


def _rule_names(unit: units.QuantityUnit) -> list[str]:
    names = ["rule:rate"] if unit.rule_rate_flag else []
    names += [f"unit:{tok}" for tok in unit.surface_unit]
    if unit.den_unit:
        names += [f"denu:{tok}" for tok in unit.den_unit]
    return names


def vertex_features(
    problem: Problem,
    vertex: int | str,
    config: FeatureConfig = FeatureConfig(),
    unit: units.QuantityUnit | None = None,
    tagged: units.Tagged | None = None,
) -> FeatureVector:
    """Windowed context features plus rule-based rate extraction features.

    ``unit`` is the vertex's unit and ``tagged`` the problem's
    ``units.tag_tokens``, when the caller already has them; otherwise they
    are computed here. The names are counted in first-seen order, as a
    feature pass needs them. A vertex that is neither a quantity index nor
    QUESTION raises ValueError."""
    units.check_vertices(problem, vertex)
    tagged = tagged or units.tag_tokens(problem)
    names = ["is_question"] if vertex == QUESTION else []
    if config.context_features:
        names += _context_names(tagged[0], tagged[1], *_vertex_window(problem, vertex, config.window))
    if config.rule_features:
        names += _rule_names(unit if unit is not None else units.unit_at(problem, vertex, tagged))
    fv: FeatureVector = {"bias": 1.0}
    get = fv.get
    for name in names:  # a first count is the one constant 1.0, not a new float per feature
        count = get(name)
        fv[name] = 1.0 if count is None else count + 1.0
    return fv


def expand(blocks: Iterable[tuple[str, Mapping[str, float]]]) -> FeatureVector:
    """The one vector that disjoint blocks stand for: each block's names with
    its prefix before them, in block order."""
    return {prefix + name: value for prefix, fv in blocks for name, value in fv.items()}


@lru_cache(maxsize=32)
def _flag_block(names: tuple[str, ...]) -> Mapping[str, float]:
    """A block of 1.0-valued ``names``, one dict shared per name tuple (the
    names come from a fixed set of biases and unit flags); callers must not
    change it. A plain dict, not a read-only proxy: scoring a proxy costs
    about 12 µs more per solve."""
    return dict.fromkeys(names, 1.0)


@dataclass(frozen=True)
class PairLayout:
    """A pair vector's blocks: ``bias``, the first vertex's features
    prefixed by ``first``, the second's prefixed by ``second``, then (when
    ``unit_flags`` and rule features are on) the shared-unit indicators.
    The prefixes keep the blocks disjoint, so a pair vector's dot product is
    its blocks' dot products added in that order."""

    bias: str
    first: str
    second: str
    unit_flags: bool


EDGE_LAYOUT = PairLayout("pair_bias", "i|", "j|", unit_flags=True)
LCA_LAYOUT = PairLayout("lca_bias", "lcai|", "lcaj|", unit_flags=False)

#: The relevance vector's prefix, on the quantity's features and its flags.
RELEVANCE_PREFIX = "rel|"


def _denominator_matches(rate: units.QuantityUnit, other: units.QuantityUnit) -> bool:
    return bool(rate.den_unit and set(rate.den_unit) & set(other.surface_unit))


@dataclass(frozen=True)
class ProblemFeatures:
    """One feature pass: the feature vector and (with rule features) the
    unit of each vertex, computed once; the last vertex is the question.

    Every classifier's vectors are block vectors over these: a vertex's
    vector is never copied or prefixed, but is one block, under its role's
    prefix, of each vector that uses it. Bias and flag blocks are shared
    dicts (``_flag_block``). Training compiles each (role, vertex) block
    once, and inference reads each vertex vector once for all its roles
    (``InferenceTable``)."""

    vectors: tuple[FeatureVector, ...]
    vertex_units: tuple[units.QuantityUnit, ...] | None

    def sharing(self, names: dict[str, str]) -> ProblemFeatures:
        """This pass with each feature name replaced by its equal in
        ``names`` (added there when new), so that the passes of one training
        walk hold each distinct name once."""
        vectors = tuple(dict(zip(map(names.setdefault, fv, fv), fv.values())) for fv in self.vectors)
        return ProblemFeatures(vectors, self.vertex_units)

    def _pair_flag_names(self, layout: PairLayout, i: int, j: int) -> tuple[str, ...]:
        names = []
        if layout.unit_flags and self.vertex_units is not None:
            ui, uj = self.vertex_units[i], self.vertex_units[j]
            names.append("shared_unit" if units.units_share_tokens(ui, uj) else "no_shared_unit")
            if _denominator_matches(ui, uj):
                names.append("i_den_matches_j")
            if _denominator_matches(uj, ui):
                names.append("j_den_matches_i")
        return tuple(names)

    def _relevance_flag_names(self, q: int) -> tuple[str, ...]:
        # unprefixed: the relevance vector carries them under RELEVANCE_PREFIX
        names = []
        if self.vertex_units is not None:
            unit_q, unit_question = self.vertex_units[q], self.vertex_units[-1]
            match = "matches" if units.units_share_tokens(unit_q, unit_question) else "mismatch"
            names.append(f"unit_{match}_question")
            if _denominator_matches(unit_q, unit_question):
                names.append("den_matches_question")
        return tuple(names)

    def pair_blocks(self, layout: PairLayout, i: int, j: int) -> BlockVector:
        return (
            ("", _flag_block((layout.bias,))),
            (layout.first, self.vectors[i]),
            (layout.second, self.vectors[j]),
            ("", _flag_block(self._pair_flag_names(layout, i, j))),
        )

    def relevance_blocks(self, q: int) -> BlockVector:
        flags = _flag_block(self._relevance_flag_names(q))
        return ((RELEVANCE_PREFIX, self.vectors[q]), (RELEVANCE_PREFIX, flags))


def _feature_pass(
    problem: Problem, vertices: Sequence[int | str], config: FeatureConfig
) -> ProblemFeatures:
    # tokens, tags and sentence bounds, once per pass for every unit and window
    tagged = units.tag_tokens(problem)
    found = tuple(units.unit_at(problem, v, tagged) for v in vertices) if config.rule_features else None
    vectors = tuple(
        vertex_features(problem, v, config, unit, tagged)
        for v, unit in zip(vertices, found or repeat(None))
    )
    return ProblemFeatures(vectors, found)


def problem_features(problem: Problem, config: FeatureConfig = FeatureConfig()) -> ProblemFeatures:
    """The feature pass over quantities 0..n-1 and the question (vertex n)."""
    return _feature_pass(problem, (*range(problem.n), QUESTION), config)


def edge_features(
    problem: Problem,
    vi: int | str,
    vj: int | str,
    config: FeatureConfig = FeatureConfig(),
) -> FeatureVector:
    """Role-prefixed per-vertex features plus shared-unit indicators."""
    units.check_vertices(problem, vi, vj)
    return expand(_feature_pass(problem, (vi, vj), config).pair_blocks(EDGE_LAYOUT, 0, 1))


def relevance_features(
    problem: Problem, qi: int, config: FeatureConfig = FeatureConfig()
) -> FeatureVector:
    units.check_vertices(problem, qi)
    return expand(_feature_pass(problem, (qi, QUESTION), config).relevance_blocks(0))


def lca_features(
    problem: Problem, qi: int, qj: int, config: FeatureConfig = FeatureConfig()
) -> FeatureVector:
    units.check_vertices(problem, qi, qj)
    return expand(_feature_pass(problem, (qi, qj), config).pair_blocks(LCA_LAYOUT, 0, 1))


# ---------------------------------------------------------------------------
# averaged perceptron

def _finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _columns(
    rows: list[Sequence[float]], values: Iterable[float], floats: bool, width: int
) -> list[tuple[float, ...]]:
    """Weight rows, one per feature in feature order and ``width`` weights
    wide, turned into ``width`` columns of terms. A row is multiplied by its
    feature's value unless the value is the float 1.0 and ``floats`` says
    every weight is a float: ``1.0 * w`` is ``w`` bit for bit for every
    float ``w`` (signed zeros included), so each term has the type the
    product would give. No rows give ``width`` empty columns. Replaces the
    multiplied entries of ``rows``."""
    for k, value in enumerate(values):
        if value != 1.0 or type(value) is not float or not floats:
            rows[k] = tuple([value * w for w in rows[k]])
    return list(zip(*rows)) or [()] * width


@dataclass(frozen=True)
class LinearModel:
    """Per-label sparse weight table; a label's score is a dot product.

    ``_floats`` caches ``_all_floats`` and is no part of the model's value.
    Inference over a whole feature pass reads the models through their
    suite's ``InferenceTable`` instead of ``scores``."""

    labels: tuple[str, ...]
    weights: Mapping[str, Mapping[str, float]]  # label -> feature -> weight
    epochs: int = 10
    seed: int = 0
    _floats: list[bool] = field(default_factory=list, init=False, repr=False, compare=False)

    def _all_floats(self) -> bool:
        """Whether every weight is a float: recorded by ``train_model``
        (whose weights always are) and ``from_json_obj`` (which checks each
        weight's type), else computed on first use."""
        if not self._floats:
            values = chain.from_iterable(self.weights[label].values() for label in self.labels)
            self._floats.append(set(map(type, values)) <= {float})
        return self._floats[0]

    def score(self, fv: Mapping[str, float], label: str) -> float:
        if label not in self.labels:
            raise KeyError(f"unknown label {label!r}")
        return self.scores(fv)[self.labels.index(label)]

    def scores(self, fv: Mapping[str, float]) -> tuple[float, ...]:
        """Every label's score of ``fv``, in ``labels`` order: each value
        times the label's weight (0.0 where it has none), added one at a time
        in ``fv`` order from the int 0, so an empty vector scores 0."""
        return tuple(
            reduce(add, map(mul, fv.values(), map(self.weights[label].get, fv, repeat(0.0))), 0)
            for label in self.labels
        )

    def predict(self, fv: Mapping[str, float]) -> str:
        """The best-scoring label of ``fv``; ties go to the earliest in
        ``labels``."""
        scores = self.scores(fv)
        return self.labels[max(range(len(scores)), key=scores.__getitem__)]

    def to_json_obj(self) -> dict:
        flat = {}
        for label in self.labels:
            for name, w in sorted(self.weights[label].items()):
                if w != 0.0:
                    flat[f"{label}\x1f{name}"] = w
        return {
            "labels": list(self.labels),
            "epochs": self.epochs,
            "seed": self.seed,
            "weights": flat,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LinearModel":
        """Inverse of ``to_json_obj``. Raises ValueError unless the labels
        are distinct strings, ``epochs`` is an int >= 1, ``seed`` is an int,
        and every weight is a finite number keyed by one of the labels."""
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ValueError(f"labels must be a list of strings, got {labels!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels!r}")
        check_epochs(obj["epochs"])
        if isinstance(obj["seed"], bool) or not isinstance(obj["seed"], int):
            raise ValueError(f"seed must be an int, got {obj['seed']!r}")
        weights: dict[str, dict[str, float]] = {label: {} for label in labels}
        floats = True
        for key, w in obj["weights"].items():
            label, sep, name = key.partition("\x1f")
            if not sep or label not in weights:
                raise ValueError(f"weight key {key!r} names no label in {labels!r}")
            # a finite float passes the first test; anything else gets the full check
            if not (type(w) is float and -math.inf < w < math.inf):
                if not _finite_number(w):
                    raise ValueError(f"weight {key!r} must be a finite number, got {w!r}")
                floats = False
            weights[label][name] = w
        model = cls(labels=tuple(labels), weights=weights, epochs=obj["epochs"], seed=obj["seed"])
        model._floats.append(floats)
        return model


def check_epochs(epochs) -> None:
    """Raise ValueError unless ``epochs`` is an int >= 1."""
    if isinstance(epochs, bool) or not isinstance(epochs, int) or epochs < 1:
        raise ValueError(f"epochs must be an int >= 1, got {epochs!r}")


#: ``train_model`` scores with ``sum()`` only below this bound (see there).
_EXACT_BOUND = 2**52


def _blocks(fv: Mapping[str, float] | BlockVector) -> BlockVector:
    """A block vector's blocks; a plain mapping is one block under the empty
    prefix."""
    return fv if isinstance(fv, tuple) else (("", fv),)


def _compile(
    examples: Sequence[tuple[Mapping[str, float] | BlockVector, str]],
) -> tuple[list[str], dict[str, dict[str, int]], list[tuple[tuple, tuple, tuple]]]:
    """The expanded feature names in first-seen order, each prefix's table
    from a block's names to their ids, and each example's split row: the ids
    of its 1.0-valued features, then the ids and the values of the others,
    each in feature order.

    Each distinct block object is split once, and each (prefix, name) gets
    its id, and its prefixed name is built, once; an example's row joins its
    blocks' splits. Ids go by the prefixed name, so a name that two blocks
    spell with different prefixes has one id, and the ids follow the
    first-seen order of the expanded vectors' names."""
    ids: dict[str, int] = {}
    tables: dict[str, dict[str, int]] = {}
    split: dict[tuple[str, int], tuple[tuple, tuple, tuple]] = {}
    rows = []
    for fv, _ in examples:
        parts = []
        for prefix, block in _blocks(fv):
            key = (prefix, id(block))
            part = split.get(key)
            if part is None:
                table = tables.setdefault(prefix, {})
                ones, rest_ids, rest_values = [], [], []
                for name, v in block.items():
                    i = table.get(name)
                    if i is None:
                        i = table[name] = ids.setdefault(prefix + name, len(ids))
                    if v == 1.0:
                        ones.append(i)
                    else:
                        rest_ids.append(i)
                        rest_values.append(v)
                part = split[key] = (tuple(ones), tuple(rest_ids), tuple(rest_values))
            parts.append(part)
        if len(parts) == 1:
            rows.append(parts[0])
        else:  # column by column, from an empty split, so that () gives one too
            rows.append(tuple(map(tuple, map(chain.from_iterable, zip(((), (), ()), *parts)))))
    return list(ids), tables, rows


def _exact_in_floats(rows: Sequence[tuple[tuple, tuple, tuple]], steps: int) -> bool:
    """Whether training over these split rows for ``steps`` steps computes
    every weight, score, margin and averaging term exactly: every value is a
    float holding a whole number and (steps+1)**2 * max(V, 1) * max(L, 1) <
    2**52, where V is the largest |value| and L the largest sum of |values|
    of one row (see ``train_model``)."""
    most = widest = 1
    try:
        for ones, _, values in rows:
            if not all(map(float.is_integer, values)):  # also false for inf and nan
                return False
            most = max(most, max(map(abs, values), default=0))
            widest = max(widest, len(ones) + sum(map(abs, values)))
    except TypeError:  # a value that is not a float
        return False
    # with every |value| below 2**52 a row's sum is finite, and exact unless
    # it reaches 2**53, where the bound fails anyway
    return most < _EXACT_BOUND and (steps + 1) ** 2 * int(most) * int(widest) < _EXACT_BOUND


def _exact_score(row: tuple[tuple, tuple, tuple], weights: Sequence[float]) -> float:
    """One label's score of a split row, summed with ``sum()``: only for
    rows and weights that ``_exact_in_floats`` proves add without rounding."""
    ones, ids, values = row
    get = weights.__getitem__
    return sum(map(get, ones), sum(map(mul, values, map(get, ids)), 0.0))


def _ordered_score(
    row: Iterable[tuple[Sequence[int], Iterable[float]]], weights: Sequence[float]
) -> float:
    """One label's score of a row of (ids, values) blocks in feature order,
    added one term at a time from the int 0, each block continuing the sum
    of the one before, as ``LinearModel.scores`` adds them."""
    total = 0
    for ids, values in row:
        total = ordered_sum(map(mul, values, map(weights.__getitem__, ids)), total)
    return total


def train_model(
    labels: Sequence[str],
    examples: Sequence[tuple[Mapping[str, float] | BlockVector, str]],
    epochs: int = 10,
    seed: int = 0,
) -> LinearModel:
    """Margin-1 mistake-driven online training with weight averaging.

    Deterministic given the seed; raises on fewer than one epoch, duplicate
    labels, or an example whose label is outside the label set.

    Each example keeps its last score per label, and a label is rescored
    only if its weights changed at or after the step that last scored the
    example (an update lands in the step whose scoring found the mistake).
    This is exact: a score depends only on the example and that label's
    weights, so a kept score is the same float a rescoring would give.

    Training stops after the first epoch with no margin mistake, and the
    averaging then counts every remaining epoch's steps as if they had run.
    This is exact: the mistake test reads only the current weights and the
    example, and an epoch without an update checked every example against
    one fixed set of weights, so every later epoch, in any shuffle order,
    would update nothing either. The averaged weights are the same floats,
    in the same order, as those of all ``epochs`` epochs.

    An example is a mapping or a block vector (a tuple of blocks, see
    ``expand``); either trains exactly as its expanded vector would. Each
    distinct block is compiled once (``_compile``), feature names get int ids in the
    first-seen order of the expanded names, and the weights live in dense
    per-label lists indexed by id. Scores are added in one of two
    ways, chosen once per call. Write S = epochs * len(examples) for the
    steps, V for the largest |value| and L for the largest sum of |values|
    of one example. When every value is a float holding a whole number (the
    feature extractor's counts, flags and biases are) and (S+1)**2 * max(V, 1) *
    max(L, 1) < 2**52, every weight is a whole number of magnitude at most
    S*V, every product, partial score and margin is one of magnitude at
    most 2*S*V*L, and every averaging term is one of magnitude at most
    S**2*V: all are integers below 2**53, so every float operation on them
    is exact and the order of a score's additions cannot change it. Those
    scores are summed with ``sum()``; with no rounding, the compensation
    that ``sum()`` adds from Python 3.12 on stays 0.0, so they are the same
    floats on every version. Any other set is scored one term at a time in
    feature order, exactly as ``LinearModel.scores`` adds. Either way the
    updates and the averaging are the same float operations as ever, so the
    weights are the same floats.
    """
    check_epochs(epochs)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate labels in {labels!r}")
    if not examples:
        raise ValueError("no training examples")
    for _, label in examples:
        if label not in labels:
            raise ValueError(f"unknown label {label!r}")
    position = {label: k for k, label in enumerate(labels)}
    golds = [position[label] for _, label in examples]
    names, tables, rows = _compile(examples)
    total = epochs * len(examples)  # every epoch's steps, run or not
    if _exact_in_floats(rows, total):
        score = _exact_score
    else:
        score = _ordered_score
        rows = [
            tuple((tuple(map(tables[prefix].__getitem__, block)), block.values())
                  for prefix, block in _blocks(fv))
            for fv, _ in examples
        ]
    w = [[0.0] * len(names) for _ in labels]
    acc = [[0.0] * len(names) for _ in labels]
    last = [[0] * len(names) for _ in labels]
    touched = [[] for _ in labels]  # each label's ids in first-update order
    step = 0
    changed = [-1] * len(labels)  # the step of each label's last update
    scored = [-1] * len(examples)  # the step that last scored each example
    cached = [[0.0] * len(labels) for _ in examples]  # each example's scores, by label

    def apply(k: int, fv: Mapping[str, float] | BlockVector, sign: float) -> None:
        changed[k] = step
        table, atab, ltab, first = w[k], acc[k], last[k], touched[k]
        for prefix, block in _blocks(fv):
            for i, v in zip(map(tables[prefix].__getitem__, block), block.values()):
                if not ltab[i]:
                    first.append(i)
                atab[i] += (step - ltab[i]) * table[i]
                ltab[i] = step
                table[i] += sign * v

    rng = random.Random(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        mistakes = 0
        for idx in order:
            step += 1
            scores, since, row = cached[idx], scored[idx], rows[idx]
            for k, when in enumerate(changed):
                if when >= since:
                    scores[k] = score(row, w[k])
            scored[idx] = step
            gold = golds[idx]
            gold_score = scores[gold]
            rival, rival_score = None, None
            for k, s in enumerate(scores):
                if k == gold:
                    continue
                if rival_score is None or s > rival_score:
                    rival, rival_score = k, s
            if rival is not None and gold_score - rival_score < 1.0:
                mistakes += 1
                fv = examples[idx][0]
                apply(gold, fv, +1.0)
                apply(rival, fv, -1.0)
        if not mistakes:  # a fixed point: the remaining epochs would update nothing
            break
    del rows, cached, tables  # the examples' state, before the averaged tables are built
    averaged = {}
    for k, label in enumerate(labels):
        table, atab, ltab = w[k], acc[k], last[k]
        averaged[label] = {
            names[i]: (atab[i] + (total - ltab[i]) * table[i]) / total for i in touched[k]
        }
    model = LinearModel(labels=tuple(labels), weights=averaged, epochs=epochs, seed=seed)
    model._floats.append(True)  # each average is a float divided by an int
    return model


# ---------------------------------------------------------------------------
# classifier suite

#: The roles a vertex vector is scored in, as (classifier, prefix), in the
#: order of an ``InferenceTable`` row: vertex, edge first and second vertex,
#: relevance, LCA first and second vertex.
VERTEX_ROLES = (
    ("vertex", ""),
    ("edge", EDGE_LAYOUT.first),
    ("edge", EDGE_LAYOUT.second),
    ("relevance", RELEVANCE_PREFIX),
    ("lca", LCA_LAYOUT.first),
    ("lca", LCA_LAYOUT.second),
)


class InferenceTable:
    """A suite's weights laid out to score one feature pass at a time.

    ``_rows`` maps each feature name to its weights under every label of
    every role in ``VERTEX_ROLES``, concatenated in that order (2 + 6 + 6 +
    2 + 6 + 6 = 28 floats for a trained suite), with 0.0 where a role lacks
    the name, built straight from each model's weights. ``scores`` looks
    each vertex's names up once, multiplies the rows that need it
    (``_columns``, with ``_floats`` telling whether every weight of the
    suite is a float) and reads every role's terms off the vertex's
    columns; bias and flag blocks are read as columns cached per block. The
    table holds the models' weight dicts but never the suite, so it keeps no
    suite alive.

    ``keys(n)`` gives the score tables' keys over n quantities, with the
    edge labels as ``EdgeType``s, each built once."""

    def __init__(self, suite: ClassifierSuite):
        models = {part: getattr(suite, part) for part, _ in PARTS}
        edge_types = tuple(map(EdgeType, suite.edge.labels))
        self._labels = (suite.vertex.labels, edge_types, suite.relevance.labels, suite.lca.labels)
        self._keys: dict[int, tuple[tuple, ...]] = {}
        self._weights = {part: [m.weights[label] for label in m.labels] for part, m in models.items()}
        self._floats = all(m._all_floats() for m in models.values())
        names = {part: list(dict.fromkeys(chain.from_iterable(t))) for part, t in self._weights.items()}
        self._zero = (0.0,) * sum(len(self._weights[part]) for part, _ in VERTEX_ROLES)
        self._slices: list[slice] = []  # each role's part of a row
        self._rows: dict[str, list[float]] = {}  # lists, filled here and never changed after
        for part, prefix in VERTEX_ROLES:
            tabs, kept = self._weights[part], names[part]
            stripped = kept
            if prefix:
                kept = [name for name in kept if name.startswith(prefix)]
                stripped = map(itemgetter(slice(len(prefix), None)), kept)
            start = self._slices[-1].stop if self._slices else 0
            role = slice(start, start + len(tabs))
            self._slices.append(role)
            for name, role_row in zip(stripped, zip(*(map(w.get, kept, repeat(0.0)) for w in tabs))):
                row = self._rows.get(name)
                if row is None:
                    row = self._rows[name] = list(self._zero)
                row[role] = role_row
        self._blocks: dict[tuple[str, str, tuple[str, ...]], list[tuple[float, ...]]] = {}

    def keys(self, n: int) -> tuple[tuple, ...]:
        """The keys of ``scores``' floats over n quantities, in order: (vertex,
        label), (i, j, ``EdgeType``), (quantity, label), (i, j, operation);
        kept for n up to ``exprtree.MAX_ENUM_LEAVES`` (no wider n is cached)."""
        keys = self._keys.get(n)
        if keys is None:
            vertices, quantities = [(v,) for v in range(n + 1)], [(q,) for q in range(n)]
            queries = (vertices, vertex_pairs(n), quantities, combinations(range(n), 2))
            keys = tuple(tuple((*q, label) for q in qs for label in ls) for qs, ls in zip(queries, self._labels))
            if n <= exprtree.MAX_ENUM_LEAVES:
                self._keys[n] = keys
        return keys

    def _vertex_columns(self, fv: Mapping[str, float]) -> list[list[tuple[float, ...]]]:
        """Each role's columns of terms for one vertex vector."""
        rows = list(map(self._rows.get, fv, repeat(self._zero)))
        columns = _columns(rows, fv.values(), self._floats, len(self._zero))
        return [columns[role] for role in self._slices]

    def _block_columns(self, part: str, prefix: str, names: tuple[str, ...]) -> list[tuple[float, ...]]:
        """The columns of the ``_flag_block`` of ``names`` under ``prefix``
        in ``part``'s model, cached per block: bias and flag blocks come
        from a fixed set of names."""
        key = (part, prefix, names)
        columns = self._blocks.get(key)
        if columns is None:
            tabs = self._weights[part]
            rows = [tuple(w.get(prefix + name, 0.0) for w in tabs) for name in names]
            columns = _columns(rows, _flag_block(names).values(), self._floats, len(tabs))
            self._blocks[key] = columns
        return columns

    def _pair_scores(
        self,
        feats: ProblemFeatures,
        columns: Sequence[list[list[tuple[float, ...]]]],
        part: str,
        layout: PairLayout,
        pairs: Iterable[tuple[int, int]],
    ) -> list[tuple[float, ...]]:
        """``part``'s model's scores of ``expand(feats.pair_blocks(layout,
        i, j))`` for each pair: each vertex's first-role terms are added once
        to the bias's sums, and a pair continues those sums through the
        second vertex's terms and its flags."""
        first = VERTEX_ROLES.index((part, layout.first))
        second = VERTEX_ROLES.index((part, layout.second))
        bias = ordered_sums(self._block_columns(part, "", (layout.bias,)), repeat(0))
        firsts: dict[int, tuple[float, ...]] = {}
        out = []
        for i, j in pairs:
            start = firsts.get(i)
            if start is None:
                start = firsts[i] = ordered_sums(columns[i][first], bias)
            scores = ordered_sums(columns[j][second], start)
            flags = self._block_columns(part, "", feats._pair_flag_names(layout, i, j))
            out.append(ordered_sums(flags, scores))
        return out

    def scores(self, feats: ProblemFeatures) -> tuple[list[tuple[float, ...]], ...]:
        """Every query's scores, in each model's ``labels`` order, off one
        feature pass over n quantities and the question: the vertex model's
        for each vertex, the edge model's for each pair of
        ``vertex_pairs(n)``, the relevance model's for each quantity and the
        LCA model's for each pair of ``combinations(range(n), 2)``. Each is
        the float ``LinearModel.scores`` gives for the query's expanded
        vector: every label's terms are the same products, added one at a
        time in the same order from the int 0."""
        n = len(feats.vectors) - 1
        columns = list(map(self._vertex_columns, feats.vectors))
        vertex_role = VERTEX_ROLES.index(("vertex", ""))
        relevance_role = VERTEX_ROLES.index(("relevance", RELEVANCE_PREFIX))
        vertex = [ordered_sums(c[vertex_role], repeat(0)) for c in columns]
        edge = self._pair_scores(feats, columns, "edge", EDGE_LAYOUT, vertex_pairs(n))
        relevance = [
            ordered_sums(
                self._block_columns("relevance", RELEVANCE_PREFIX, feats._relevance_flag_names(q)),
                ordered_sums(columns[q][relevance_role], repeat(0)),
            )
            for q in range(n)
        ]
        lca = self._pair_scores(feats, columns, "lca", LCA_LAYOUT, combinations(range(n), 2))
        return vertex, edge, relevance, lca


@dataclass(frozen=True)
class ClassifierSuite:
    """The four classifiers and the feature config they were trained with.

    ``_inference`` caches the suite's ``InferenceTable``, built on first use
    by ``inference_table``. It is no part of the suite's value, and since it
    is an ``init=False`` field, a suite made by ``dataclasses.replace``
    starts with none and builds its own. The table holds no reference to
    the suite, so a suite is freed as soon as its last reference goes."""

    vertex: LinearModel
    edge: LinearModel
    relevance: LinearModel
    lca: LinearModel
    config: FeatureConfig = field(default_factory=FeatureConfig)
    _inference: list[InferenceTable] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    def inference_table(self) -> InferenceTable:
        """The suite's ``InferenceTable``, built on first use."""
        if not self._inference:
            self._inference.append(InferenceTable(self))
        return self._inference[0]

    def save(self, path) -> None:
        obj = {name: getattr(self, name).to_json_obj() for name, _ in PARTS}
        obj["config"] = asdict(self.config)
        # the bytes of json.dump(obj, fh, sort_keys=True), which always runs
        # the pure-Python encoder; here the C one encodes each part, so the
        # whole file is never one string in memory
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{")
            for k, key in enumerate(sorted(obj)):
                fh.write(f"{', ' if k else ''}{json.dumps(key)}: {json.dumps(obj[key], sort_keys=True)}")
            fh.write("}")

    @classmethod
    def load(cls, path) -> "ClassifierSuite":
        """Read a suite written by ``save``. A malformed file raises
        ValueError naming the file and the missing or bad key."""
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"model {path}: not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"model {path}: expected a JSON object")

        def part(key, build):
            if key not in obj:
                raise ValueError(f"model {path}: missing key {key!r}")
            try:
                return build(obj[key])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"model {path}: bad {key!r}: {exc!r}") from exc

        def model(key, labels):
            loaded = part(key, LinearModel.from_json_obj)
            if set(loaded.labels) != set(labels):
                raise ValueError(
                    f"model {path}: bad {key!r}: labels must be {list(labels)}, "
                    f"got {list(loaded.labels)}"
                )
            return loaded

        models = {name: model(name, labels) for name, labels in PARTS}
        return cls(**models, config=part("config", lambda cfg: FeatureConfig(**cfg)))


def training_blocks(
    problems: Iterable[Problem],
    config: FeatureConfig = FeatureConfig(),
    names: Sequence[str] = tuple(name for name, _ in PARTS),
) -> dict[str, BlockSet]:
    """The (block vector, label) examples of the classifiers in ``names``,
    from gold trees and derived graph labels, in one walk with one feature
    pass per problem; every block points into that pass. Problems without
    gold trees are skipped."""
    sets: dict[str, BlockSet] = {name: [] for name in names}
    shared: dict[str, str] = {}  # each feature name seen, once
    for problem in problems:
        if problem.gold is None or problem.gold.tree is None:
            continue
        derived = annotate.derive_udg_gold(problem)
        feats = problem_features(problem, config).sharing(shared)
        if "vertex" in sets:
            sets["vertex"] += (
                ((("", fv),), RATE if is_rate else NOT_RATE)
                for fv, is_rate in zip(feats.vectors, derived.vertex_labels)
            )
        if "edge" in sets:
            sets["edge"] += (
                (feats.pair_blocks(EDGE_LAYOUT, i, j), label.value)
                for (i, j), label in zip(vertex_pairs(problem.n), derived.edges)
            )
        tree = problem.gold.tree
        used = sorted(exprtree.used_indices(tree))
        if "relevance" in sets:
            sets["relevance"] += (
                (feats.relevance_blocks(q), RELEVANT if q in used else IRRELEVANT)
                for q in range(problem.n)
            )
        if "lca" in sets:
            sets["lca"] += (
                (feats.pair_blocks(LCA_LAYOUT, i, j), exprtree.op_lca(tree, i, j))
                for i, j in combinations(used, 2)
            )
    return sets


def build_training_sets(
    problems: Iterable[Problem], config: FeatureConfig = FeatureConfig()
) -> dict[str, TrainingSet]:
    """``training_blocks`` of all four classifiers, each block vector
    expanded into its (features, label) pair."""
    return {
        name: [(expand(blocks), label) for blocks, label in examples]
        for name, examples in training_blocks(problems, config).items()
    }


def train_suite(
    problems: Iterable[Problem],
    config: FeatureConfig = FeatureConfig(),
    epochs: int = 10,
    seed: int = 0,
) -> ClassifierSuite:
    """The four classifiers, each trained on its ``training_blocks`` set."""
    check_epochs(epochs)  # before any feature work
    sets = training_blocks(problems, config)
    models = {name: train_model(labels, sets[name], epochs, seed) for name, labels in PARTS}
    return ClassifierSuite(**models, config=config)
