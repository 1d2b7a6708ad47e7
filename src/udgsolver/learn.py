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

Every model is exact: its weights are int numerators over one int
denominator (``LinearModel``), and a label's score is the int dot product of
the numerators with the expanded vector, whose values are whole numbers
(``LinearModel.scores``, the definition). Integer sums do not depend on the
order of their additions, so a score is the same int in any order and on
every Python version; a caller that needs a float divides once by the
denominator. A suite's ``InferenceTable`` gives the same ints for a whole
feature pass: it packs the low digit of each feature name's numerators under
every label of all six roles a vertex vector is read in into one int, a
field per (role, label), so each vertex's names are looked up once per solve
and its sums in every role are one int ``sum()``, read back field by field;
the rest of the few numerators wider than a digit is added apart, for the
vertices that carry their names. Both the solve and the eval's classifier
accuracies score through that table. Trained models and suites are immutable
apart from the table, which is built on first use and holds nothing a
rebuild would not reproduce, so they are safe for concurrent scoring.

Training compiles each distinct block once per classifier: its feature
names get int ids, and the weights live in dense per-label lists. The
extractor's values are whole-number counts, flags and biases, so every
weight, score and margin is an int while training, and each averaged
weight is an int numerator over the step count.

Suites are saved as model format 2, JSON with each part's numerators and
denominator, so a file holds every weight exactly; format 1, with float
weights, still loads.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import chain, combinations, compress, product, repeat
from operator import add, itemgetter, mul, ne, sub
from struct import Struct
from typing import Iterable, Mapping, Sequence

from . import annotate, exprtree, units
from .corpus import QUESTION, Problem
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

#: A pair vector's unit flag names, by (the units share a token, the first
#: vertex's denominator unit meets the second's unit, the second's meets
#: the first's).
_PAIR_FLAGS = {
    (shared, i_den, j_den): ("shared_unit" if shared else "no_shared_unit",)
    + ("i_den_matches_j",) * i_den
    + ("j_den_matches_i",) * j_den
    for shared, i_den, j_den in product((False, True), repeat=3)
}
#: A relevance vector's flag names, by (the quantity's unit shares a token
#: with the question's, its denominator unit meets the question's unit).
_RELEVANCE_FLAGS = {
    (match, den): (f"unit_{'matches' if match else 'mismatch'}_question",) + ("den_matches_question",) * den
    for match, den in product((False, True), repeat=2)
}


@dataclass(frozen=True)
class ProblemFeatures:
    """One feature pass: the feature vector and (with rule features) the
    unit of each vertex, computed once; the last vertex is the question.

    Every classifier's vectors are block vectors over these: a vertex's
    vector is never copied or prefixed, but is one block, under its role's
    prefix, of each vector that uses it. Bias and flag blocks are shared
    dicts (``_flag_block``). Training compiles each (role, vertex) block
    once, and inference reads each vertex vector once for all its roles
    (``InferenceTable``). The unit flags of each vertex pair and of each
    quantity against the question are found once per pass, off each unit's
    lemma sets, for training and scoring alike."""

    vectors: tuple[FeatureVector, ...]
    vertex_units: tuple[units.QuantityUnit, ...] | None
    _pair_flags: dict[tuple[int, int], tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _relevance_flags: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Find each vertex pair's unit flags, by pair of ``vertex_pairs``,
        and each quantity's relevance flags, unprefixed (the relevance
        vector carries them under RELEVANCE_PREFIX); none without units.
        Each unit's surface-lemma and denominator sets are built once."""
        n = len(self.vectors) - 1
        if self.vertex_units is None:
            pairs, relevance = dict.fromkeys(vertex_pairs(n), ()), ((),) * n
        else:
            surfaces = [set(u.surface_unit) for u in self.vertex_units]
            # only a rate has a denominator unit
            dens = [set(u.den_unit) if u.den_unit else None for u in self.vertex_units]
            pairs = {}
            for i, j in vertex_pairs(n):
                si, sj, di, dj = surfaces[i], surfaces[j], dens[i], dens[j]
                pairs[i, j] = _PAIR_FLAGS[
                    not si.isdisjoint(sj),
                    di is not None and not di.isdisjoint(sj),
                    dj is not None and not dj.isdisjoint(si),
                ]
            question = surfaces[n]
            relevance = tuple(
                _RELEVANCE_FLAGS[not s.isdisjoint(question), d is not None and not d.isdisjoint(question)]
                for s, d in zip(surfaces, dens[:n])
            )
        object.__setattr__(self, "_pair_flags", pairs)
        object.__setattr__(self, "_relevance_flags", relevance)

    def sharing(self, names: dict[str, str]) -> ProblemFeatures:
        """This pass with each feature name replaced by its equal in
        ``names`` (added there when new), so that the passes of one training
        walk hold each distinct name once."""
        vectors = tuple(dict(zip(map(names.setdefault, fv, fv), fv.values())) for fv in self.vectors)
        shared = copy.copy(self)  # the units, and so the flags, stay: no second flag search
        object.__setattr__(shared, "vectors", vectors)
        return shared

    def pair_flags(self, layout: PairLayout, i: int, j: int) -> tuple[str, ...]:
        """The flag names of pair (i, j)'s vector under ``layout``."""
        return self._pair_flags[i, j] if layout.unit_flags else ()

    def pair_blocks(self, layout: PairLayout, i: int, j: int) -> BlockVector:
        return (
            ("", _flag_block((layout.bias,))),
            (layout.first, self.vectors[i]),
            (layout.second, self.vectors[j]),
            ("", _flag_block(self.pair_flags(layout, i, j))),
        )

    def relevance_flags(self, q: int) -> tuple[str, ...]:
        return self._relevance_flags[q]

    def relevance_blocks(self, q: int) -> BlockVector:
        flags = _flag_block(self.relevance_flags(q))
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


def _whole(value) -> int:
    """A feature value as an int: ValueError unless it is an int (a bool
    included) or a float holding a whole number (the extractor's counts,
    flags and biases are)."""
    if isinstance(value, int) or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"feature value {value!r} is not a whole number")


def _all_ints(tables: Iterable[Mapping]) -> bool:
    """Whether every value of ``tables`` is an int (not a bool)."""
    return set(map(type, chain.from_iterable(table.values() for table in tables))) <= {int}


def as_numerators(tables: Sequence[Mapping], denominator: int) -> tuple[Sequence[Mapping], int]:
    """The values of ``tables``, which stand over ``denominator``, as int
    numerators over one denominator, and that denominator. Tables of ints
    come back as they are; otherwise every value is taken as its exact ratio
    (every finite float is one), and ``denominator`` is multiplied by the
    least common multiple of their denominators."""
    if _all_ints(tables):
        return tables, denominator
    ratios = [{key: v.as_integer_ratio() for key, v in table.items()} for table in tables]
    scale = math.lcm(*(d for table in ratios for _, d in table.values()))
    return [{key: n * (scale // d) for key, (n, d) in table.items()} for table in ratios], denominator * scale


#: The format ``ClassifierSuite.save`` writes; ``load`` also reads format 1.
MODEL_FORMAT = 2


@dataclass(frozen=True)
class LinearModel:
    """Per-label sparse weights, exact: each weight is the int numerator
    ``weights[label][name]`` over the model's one int ``denominator``, so a
    label's score is an int dot product over that denominator, the same in
    any order of addition.

    ``train_model`` gives the averaged perceptron's numerators and its step
    count. Weights given as other numbers (a float, a Fraction) are taken as
    their exact ratios (``as_numerators``). Inference over a whole feature
    pass reads the models through their suite's ``InferenceTable`` instead
    of ``scores``."""

    labels: tuple[str, ...]
    weights: Mapping[str, Mapping[str, int]]  # label -> feature -> numerator
    epochs: int = 10
    seed: int = 0
    denominator: int = 1

    def __post_init__(self):
        if type(self.denominator) is not int or self.denominator < 1:
            raise ValueError(f"denominator must be an int >= 1, got {self.denominator!r}")
        tables, denominator = as_numerators(list(self.weights.values()), self.denominator)
        object.__setattr__(self, "weights", dict(zip(self.weights, tables)))
        object.__setattr__(self, "denominator", denominator)

    def score(self, fv: Mapping[str, float], label: str) -> int:
        if label not in self.labels:
            raise KeyError(f"unknown label {label!r}")
        return self.scores(fv)[self.labels.index(label)]

    def scores(self, fv: Mapping[str, float]) -> tuple[int, ...]:
        """Every label's score of ``fv``, in ``labels`` order, as its int
        numerator over ``denominator``: each value times the label's
        numerator (0 where it has none), summed, so an empty vector scores
        0. A value that is not a whole number raises ValueError."""
        values = list(map(_whole, fv.values()))
        return tuple(sum(map(mul, values, map(self.weights[label].get, fv, repeat(0)))) for label in self.labels)

    def predict(self, fv: Mapping[str, float]) -> str:
        """The best-scoring label of ``fv``; ties go to the earliest in
        ``labels``."""
        scores = self.scores(fv)
        return self.labels[max(range(len(scores)), key=scores.__getitem__)]

    def to_json_obj(self) -> dict:
        """The model as a part of a format-2 file: its nonzero numerators
        under each label, and its denominator."""
        return {
            "labels": list(self.labels),
            "epochs": self.epochs,
            "seed": self.seed,
            "denominator": self.denominator,
            "weights": {label: {name: a for name, a in self.weights[label].items() if a} for label in self.labels},
        }

    @classmethod
    def from_json_obj(cls, obj: dict, version: int = MODEL_FORMAT) -> "LinearModel":
        """Inverse of ``to_json_obj``, or a part of a format-1 file, whose
        weights are finite numbers keyed "label\\x1fname", each taken as its
        exact ratio. Raises ValueError unless the labels are distinct
        strings, ``epochs`` is an int >= 1 and ``seed`` an int, and, in
        format 2, the denominator is an int >= 1 and every weight an int
        under one of the labels."""
        labels = obj["labels"]
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ValueError(f"labels must be a list of strings, got {labels!r}")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels!r}")
        check_epochs(obj["epochs"])
        if type(obj["seed"]) is not int:
            raise ValueError(f"seed must be an int, got {obj['seed']!r}")
        weights: dict[str, dict[str, float]] = {label: {} for label in labels}
        denominator = 1
        if version == 1:
            for key, w in obj["weights"].items():
                label, sep, name = key.partition("\x1f")
                if not sep or label not in weights:
                    raise ValueError(f"weight key {key!r} names no label in {labels!r}")
                if not _finite_number(w):
                    raise ValueError(f"weight {key!r} must be a finite number, got {w!r}")
                weights[label][name] = w
        else:
            denominator = obj["denominator"]
            if type(denominator) is not int or denominator < 1:
                raise ValueError(f"denominator must be an int >= 1, got {denominator!r}")
            for label, table in obj["weights"].items():
                if label not in weights:
                    raise ValueError(f"weights key {label!r} names no label in {labels!r}")
                if not _all_ints([table]):
                    name, a = next((name, a) for name, a in table.items() if type(a) is not int)
                    raise ValueError(f"weight {label!r} {name!r} must be an int, got {a!r}")
                weights[label] = table
        return cls(tuple(labels), weights, obj["epochs"], obj["seed"], denominator)


def check_epochs(epochs) -> None:
    """Raise ValueError unless ``epochs`` is an int >= 1."""
    if isinstance(epochs, bool) or not isinstance(epochs, int) or epochs < 1:
        raise ValueError(f"epochs must be an int >= 1, got {epochs!r}")


def _blocks(fv: Mapping[str, float] | BlockVector) -> BlockVector:
    """A block vector's blocks; a plain mapping is one block under the empty
    prefix."""
    return fv if isinstance(fv, tuple) else (("", fv),)


def _compile(
    examples: Sequence[tuple[Mapping[str, float] | BlockVector, str]],
) -> tuple[list[str], list[tuple[tuple, tuple, tuple]]]:
    """The expanded feature names in first-seen order, and each example's
    split row: the ids of its features of value 1, then the ids and the int
    values of the others, each in feature order. A value that is not a
    whole number raises ValueError.

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
                        rest_values.append(_whole(v))
                part = split[key] = (tuple(ones), tuple(rest_ids), tuple(rest_values))
            parts.append(part)
        if len(parts) == 1:
            rows.append(parts[0])
        else:  # column by column, from an empty split, so that () gives one too
            rows.append(tuple(map(tuple, map(chain.from_iterable, zip(((), (), ()), *parts)))))
    return list(ids), rows


def _score(row: tuple[tuple, tuple, tuple], weights: Sequence[int]) -> int:
    """One label's score of a split row."""
    ones, ids, values = row
    get = weights.__getitem__
    return sum(map(get, ones), sum(map(mul, values, map(get, ids))))


def train_model(
    labels: Sequence[str],
    examples: Sequence[tuple[Mapping[str, float] | BlockVector, str]],
    epochs: int = 10,
    seed: int = 0,
) -> LinearModel:
    """Margin-1 mistake-driven online training with weight averaging.

    Deterministic given the seed; raises on fewer than one epoch, duplicate
    labels, an example whose label is outside the label set, or a feature
    value that is not a whole number.

    Every value is a whole number, so every weight, score and margin is an
    int, and so is every averaged weight's numerator: with T = epochs *
    len(examples) steps, a weight w last changed at step ``last`` after
    accumulating ``acc`` averages to (acc + (T - last) * w) / T, and the
    model keeps that numerator over T, undivided.

    Each example keeps its last score per label, and a label is rescored
    only if its weights changed at or after the step that last scored the
    example (an update lands in the step whose scoring found the mistake).
    This is exact: a score depends only on the example and that label's
    weights.

    Training stops after the first epoch with no margin mistake, and the
    averaging then counts every remaining epoch's steps as if they had run.
    This is exact: the mistake test reads only the current weights and the
    example, and an epoch without an update checked every example against
    one fixed set of weights, so every later epoch, in any shuffle order,
    would update nothing either.

    An example is a mapping or a block vector (a tuple of blocks, see
    ``expand``); either trains exactly as its expanded vector would. Each
    distinct block is compiled once (``_compile``), feature names get int
    ids in the first-seen order of the expanded names, and the weights live
    in dense per-label lists indexed by id.
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
    names, rows = _compile(examples)
    total = epochs * len(examples)  # every epoch's steps, run or not
    w = [[0] * len(names) for _ in labels]
    acc = [[0] * len(names) for _ in labels]
    last = [[0] * len(names) for _ in labels]
    step = 0
    changed = [-1] * len(labels)  # the step of each label's last update
    scored = [-1] * len(examples)  # the step that last scored each example
    cached = [[0] * len(labels) for _ in examples]  # each example's scores, by label

    def apply(k: int, row: tuple[tuple, tuple, tuple], sign: int) -> None:
        changed[k] = step
        table, atab, ltab = w[k], acc[k], last[k]
        ones, ids, values = row
        for i, v in chain(zip(ones, repeat(1)), zip(ids, values)):
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
                    scores[k] = _score(row, w[k])
            scored[idx] = step
            gold = golds[idx]
            gold_score = scores[gold]
            rival, rival_score = None, None
            for k, s in enumerate(scores):
                if k == gold:
                    continue
                if rival_score is None or s > rival_score:
                    rival, rival_score = k, s
            if rival is not None and gold_score - rival_score < 1:
                mistakes += 1
                apply(gold, row, +1)
                apply(rival, row, -1)
        if not mistakes:  # a fixed point: the remaining epochs would update nothing
            break
    del rows, cached  # the examples' state, before the averaged tables are built
    weights = {}
    for label, table, atab, ltab in zip(labels, w, acc, last):
        numerators = map(add, atab, map(mul, map(total.__sub__, ltab), table))
        weights[label] = {name: a for name, a in zip(names, numerators) if a}
    return LinearModel(labels=tuple(labels), weights=weights, epochs=epochs, seed=seed, denominator=total)


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


#: A vertex vector's mass, the sum of its values' magnitudes, must stay
#: below 2**MASS_BITS for ``InferenceTable`` to score it; an extracted
#: vector's mass is 1 + its name count.
MASS_BITS = 40
#: The width of a numerator's low digit (limb), the part of it that a
#: packed row holds.
LIMB_BITS = 24
_HALF_LIMB = 1 << LIMB_BITS - 1
#: The width of one packed field. A low digit times a mass below
#: 2**MASS_BITS lies in [-2**(FIELD_BITS - 1), 2**(FIELD_BITS - 1)), so one
#: field's sum never reaches into the next; with 24-bit digits a field is
#: one signed 8-byte word.
FIELD_BITS = LIMB_BITS + MASS_BITS


def _low_digit(a: int) -> int:
    """``a``'s balanced low base-2**``LIMB_BITS`` digit, in
    [-2**(LIMB_BITS - 1), 2**(LIMB_BITS - 1)); ``a`` itself if it lies there."""
    return (a + _HALF_LIMB & (1 << LIMB_BITS) - 1) - _HALF_LIMB


class InferenceTable:
    """A suite's weights laid out to score one feature pass at a time.

    Each role in ``VERTEX_ROLES`` reads a vertex vector under every label of
    its model, so a vertex has one field per (role, label): 2 + 6 + 6 + 2 +
    6 + 6 = 28 fields, numbered in that order, each role's labels in their
    ``PARTS`` order. A model may list its labels in another order (a loaded
    file may), so its weights are permuted into that order once, here, and
    every score comes out in the layout of ``infer.ScoreTables``. ``_packed``
    maps each feature name to one int holding the low digit of its
    numerator of every field, field k at bit k * ``FIELD_BITS`` (SIMD within
    a register: Lamport 1975, "Multiple byte processing with full-word
    instructions"). Integer sums are linear, so a vertex's field sums are
    the fields of one ``sum()`` of its names' ints, each times its value
    (``_vertex_fields``). A low digit times a mass below 2**``MASS_BITS``
    fits a field, so the fields decode exactly, and a vertex whose mass
    reaches that raises ValueError. ``_high`` keeps, for the few names
    with a numerator past one digit, each such field and the rest of its
    numerator, added to the decoded sums of the vertices that carry the
    name. A query's score is then its blocks' sums added: its vertices'
    fields in their roles, and its bias and flag blocks' sums, cached per
    block. That is the int ``LinearModel.scores`` gives for the query's
    expanded vector. The table holds the models' weight dicts but never the
    suite, so it keeps no suite alive. ``denominators`` holds each model's
    denominator, in ``PARTS`` order. A model whose labels are not its part's
    raises ValueError."""

    def __init__(self, suite: ClassifierSuite):
        self._weights: dict[str, list[Mapping[str, int]]] = {}
        for part, labels in PARTS:
            model = getattr(suite, part)
            if sorted(model.labels) != sorted(labels):
                raise ValueError(f"{part} model labels must be {list(labels)}, got {list(model.labels)}")
            self._weights[part] = [model.weights[label] for label in labels]
        self.denominators = tuple(getattr(suite, part).denominator for part, _ in PARTS)
        names = {part: list(dict.fromkeys(chain.from_iterable(t))) for part, t in self._weights.items()}
        self._slices: list[slice] = []  # each role's fields
        for part, _ in VERTEX_ROLES:
            start = self._slices[-1].stop if self._slices else 0
            self._slices.append(slice(start, start + len(self._weights[part])))
        fields = self._slices[-1].stop
        # the offset holds a field's half, 2**(FIELD_BITS - 1), in every
        # field; the words read each field as a signed 8-byte word
        half = bytes(FIELD_BITS // 8 - 1) + b"\x80"
        self._offset, self._words = int.from_bytes(half * fields, "little"), Struct(f"<{fields}q")
        rows: dict[str, list[int]] = {}  # each name's numerators, field by field
        for (part, prefix), role in zip(VERTEX_ROLES, self._slices):
            tabs, kept = self._weights[part], names[part]
            stripped = kept
            if prefix:
                kept = [name for name in kept if name.startswith(prefix)]
                stripped = map(itemgetter(slice(len(prefix), None)), kept)
            for name, role_row in zip(stripped, zip(*(map(w.get, kept, repeat(0)) for w in tabs))):
                row = rows.get(name)
                if row is None:
                    row = rows[name] = [0] * fields
                row[role] = role_row
        self._packed: dict[str, int] = {}
        self._high: dict[str, list[tuple[int, int]]] = {}
        offset, words = self._offset, self._words
        while rows:  # each row freed as it is packed
            name, row = rows.popitem()
            # a row with a numerator past one digit packs its low digits and
            # keeps the rest of each such numerator apart
            if not (-_HALF_LIMB <= min(row) and max(row) < _HALF_LIMB):
                low = list(map(_low_digit, row))
                self._high[name] = [(k, a - d) for k, (a, d) in enumerate(zip(row, low)) if a != d]
                row = low
            # the inverse of the decode in _vertex_fields
            self._packed[name] = (int.from_bytes(words.pack(*row), "little") ^ offset) - offset
        self._blocks: dict[tuple[str, str, tuple[str, ...]], list[int]] = {}

    def _vertex_fields(self, fv: Mapping[str, float], vertex: int) -> Sequence[int]:
        """Each field's sum for one vertex vector, vertex ``vertex`` of its
        pass: its names' numerators, each times its value, added. Raises
        ValueError for a value that is not a whole number, or for a mass
        (the sum of the values' magnitudes) that reaches 2**``MASS_BITS``."""
        values = list(fv.values())
        packed = list(map(self._packed.get, fv, repeat(0)))
        total, mass = sum(packed), len(values)
        others = list(map(ne, values, repeat(1.0)))  # the extractor's counts past 1
        if any(others):
            counts = list(map(_whole, compress(values, others)))
            total += sum(map(mul, map(sub, counts, repeat(1)), compress(packed, others)))
            mass += sum(map(abs, counts)) - len(counts)
        if mass >> MASS_BITS:
            raise ValueError(f"vertex {vertex}: feature mass {mass} reaches 2**{MASS_BITS}")
        # every field sum lies in [-2**(FIELD_BITS-1), 2**(FIELD_BITS-1)), so
        # the offset add makes each field its sum plus half, with no borrow
        # between fields; the XOR then flips each field's top bit, which
        # gives the sum's two's complement, read as a signed 8-byte word
        offset, words = self._offset, self._words
        sums = words.unpack(((total + offset) ^ offset).to_bytes(words.size, "little"))
        wide = fv.keys() & self._high.keys() if self._high else ()
        if wide:
            sums = list(sums)
            for name in wide:
                value = _whole(fv[name])
                for k, high in self._high[name]:
                    sums[k] += value * high
        return sums

    def _block_sums(self, part: str, prefix: str, names: tuple[str, ...]) -> list[int]:
        """The per-label sums of 1-valued ``names`` under ``prefix`` in
        ``part``'s model, cached per names: a pair's bias and flag blocks, or
        a quantity's relevance flags, come from a fixed set of names."""
        key = (part, prefix, names)
        sums = self._blocks.get(key)
        if sums is None:
            sums = self._blocks[key] = [sum(w.get(prefix + name, 0) for name in names) for w in self._weights[part]]
        return sums

    def _pair_scores(
        self,
        feats: ProblemFeatures,
        fields: Sequence[Sequence[int]],
        part: str,
        layout: PairLayout,
        pairs: Iterable[tuple[int, int]],
    ) -> list[list[int]]:
        """``part``'s model's scores of ``expand(feats.pair_blocks(layout,
        i, j))`` for each pair: the first vertex's fields in its role, the
        second's, and the sums of the bias and flag blocks, added."""
        first = self._slices[VERTEX_ROLES.index((part, layout.first))]
        second = self._slices[VERTEX_ROLES.index((part, layout.second))]
        return [
            list(map(add, map(add, fields[i][first], fields[j][second]), self._block_sums(
                part, "", (layout.bias, *feats.pair_flags(layout, i, j))
            )))
            for i, j in pairs
        ]

    def scores(self, feats: ProblemFeatures) -> tuple[list[Sequence[int]], ...]:
        """Every query's scores, in its part's ``PARTS`` label order, off one
        feature pass over n quantities and the question: the vertex model's
        for each vertex, the edge model's for each pair of
        ``vertex_pairs(n)``, the relevance model's for each quantity and the
        LCA model's for each pair of ``combinations(range(n), 2)``. Each is
        the int ``LinearModel.scores`` gives for the query's expanded
        vector. Each vertex's fields are summed once, and only the roles a
        query reads are taken from them."""
        n = len(feats.vectors) - 1
        fields = list(map(self._vertex_fields, feats.vectors, range(n + 1)))
        vertex_role = self._slices[VERTEX_ROLES.index(("vertex", ""))]
        relevance_role = self._slices[VERTEX_ROLES.index(("relevance", RELEVANCE_PREFIX))]
        vertex = [f[vertex_role] for f in fields]
        edge = self._pair_scores(feats, fields, "edge", EDGE_LAYOUT, vertex_pairs(n))
        relevance = [
            list(map(add, fields[q][relevance_role], self._block_sums(
                "relevance", RELEVANCE_PREFIX, feats.relevance_flags(q)
            )))
            for q in range(n)
        ]
        lca = self._pair_scores(feats, fields, "lca", LCA_LAYOUT, combinations(range(n), 2))
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
        """Write the suite as a format-2 file: a JSON object with its
        ``format``, its feature ``config``, and each model under its part's
        name (``LinearModel.to_json_obj``), keys sorted."""
        obj = {name: getattr(self, name).to_json_obj() for name, _ in PARTS}
        obj["config"] = asdict(self.config)
        obj["format"] = MODEL_FORMAT
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
        """Read a suite written by ``save``, or a format-1 file (one with no
        ``format``). A malformed file raises ValueError naming the file and
        the missing or bad key."""
        with open(path, encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"model {path}: not JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ValueError(f"model {path}: expected a JSON object")
        version = obj.get("format", 1)
        if type(version) is not int or version not in (1, MODEL_FORMAT):
            raise ValueError(f"model {path}: bad 'format': unknown model format {version!r}")

        def part(key, build):
            if key not in obj:
                raise ValueError(f"model {path}: missing key {key!r}")
            try:
                return build(obj[key])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"model {path}: bad {key!r}: {exc!r}") from exc

        def model(key, labels):
            loaded = part(key, lambda model_obj: LinearModel.from_json_obj(model_obj, version))
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
