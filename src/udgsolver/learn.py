"""Sparse feature extraction and averaged-perceptron linear classifiers.

Four classifiers drive inference: a binary rate detector per vertex, a
six-way edge classifier per vertex pair, a binary relevance classifier per
quantity, and a six-way lowest-common-ancestor operation classifier per
quantity pair. Feature extraction is a pure function of (problem, query);
trained models are immutable and safe for concurrent scoring.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
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

#: Context window radius around a quantity mention, in tokens.
CONTEXT_WINDOW = 3

FeatureVector = dict[str, float]


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


def _bump(fv: FeatureVector, name: str) -> None:
    fv[name] = fv.get(name, 0.0) + 1.0


def _context_block(problem: Problem, lo: int, hi: int, anchor: int, fv: FeatureVector) -> None:
    toks = problem.token_texts()
    window = list(range(lo, hi))
    for i in window:
        tok = toks[i]
        tag = units.pos_tag(tok)
        _bump(fv, f"u:{tok}")
        _bump(fv, f"u@{i - anchor}:{tok}")
        _bump(fv, f"p:{tag}")
        _bump(fv, f"wp:{tok}_{tag}")
    for i in window[:-1]:
        a, b = toks[i], toks[i + 1]
        _bump(fv, f"b:{a} {b}")
        ta, tb = units.pos_tag(a), units.pos_tag(b)
        _bump(fv, f"pb:{ta} {tb}")
        if ta == units.NUM:
            _bump(fv, f"bn:<n> {b}")
        if tb == units.NUM:
            _bump(fv, f"bn:{a} <n>")


def _vertex_window(problem: Problem, vertex: int | str, window: int) -> tuple[int, int, int]:
    if vertex == QUESTION:
        lo, hi = problem.question_span
        return lo, hi, lo
    q = problem.quantities[vertex]
    lo = max(0, q.token_index - window)
    hi = min(len(problem.tokens), q.token_index + window + 1)
    return lo, hi, q.token_index


def _rule_block(problem: Problem, vertex: int | str, fv: FeatureVector) -> None:
    unit = units.extract_unit(problem, vertex)
    if unit.rule_rate_flag:
        _bump(fv, "rule:rate")
    for tok in unit.surface_unit:
        _bump(fv, f"unit:{tok}")
    if unit.den_unit:
        for tok in unit.den_unit:
            _bump(fv, f"denu:{tok}")


def vertex_features(
    problem: Problem, vertex: int | str, config: FeatureConfig = FeatureConfig()
) -> FeatureVector:
    """Windowed context features plus rule-based rate extraction features."""
    fv: FeatureVector = {"bias": 1.0}
    if vertex == QUESTION:
        _bump(fv, "is_question")
    if config.context_features:
        lo, hi, anchor = _vertex_window(problem, vertex, config.window)
        _context_block(problem, lo, hi, anchor, fv)
    if config.rule_features:
        _rule_block(problem, vertex, fv)
    return fv


def edge_features(
    problem: Problem,
    vi: int | str,
    vj: int | str,
    config: FeatureConfig = FeatureConfig(),
) -> FeatureVector:
    """Role-prefixed per-vertex features plus shared-unit indicators."""
    fv: FeatureVector = {"pair_bias": 1.0}
    for role, v in (("i", vi), ("j", vj)):
        for name, weight in vertex_features(problem, v, config).items():
            fv[f"{role}|{name}"] = fv.get(f"{role}|{name}", 0.0) + weight
    if config.rule_features:
        ui = units.extract_unit(problem, vi)
        uj = units.extract_unit(problem, vj)
        if units.units_share_tokens(ui, uj):
            _bump(fv, "shared_unit")
        else:
            _bump(fv, "no_shared_unit")
        if ui.den_unit and set(ui.den_unit) & set(uj.surface_unit):
            _bump(fv, "i_den_matches_j")
        if uj.den_unit and set(uj.den_unit) & set(ui.surface_unit):
            _bump(fv, "j_den_matches_i")
    return fv


def relevance_features(
    problem: Problem, qi: int, config: FeatureConfig = FeatureConfig()
) -> FeatureVector:
    fv = vertex_features(problem, qi, config)
    fv = {f"rel|{k}": v for k, v in fv.items()}
    if config.rule_features:
        unit_q = units.extract_unit(problem, qi)
        unit_question = units.extract_unit(problem, QUESTION)
        if units.units_share_tokens(unit_q, unit_question):
            _bump(fv, "rel|unit_matches_question")
        else:
            _bump(fv, "rel|unit_mismatch_question")
        if unit_q.den_unit and set(unit_q.den_unit) & set(unit_question.surface_unit):
            _bump(fv, "rel|den_matches_question")
    return fv


def lca_features(
    problem: Problem, qi: int, qj: int, config: FeatureConfig = FeatureConfig()
) -> FeatureVector:
    fv: FeatureVector = {"lca_bias": 1.0}
    for role, v in (("i", qi), ("j", qj)):
        for name, weight in vertex_features(problem, v, config).items():
            fv[f"lca{role}|{name}"] = fv.get(f"lca{role}|{name}", 0.0) + weight
    return fv


# ---------------------------------------------------------------------------
# averaged perceptron

@dataclass(frozen=True)
class LinearModel:
    """Per-label sparse weight table; score is a plain dot product."""

    labels: tuple[str, ...]
    weights: Mapping[str, Mapping[str, float]]  # label -> feature -> weight
    epochs: int = 10
    seed: int = 0

    def score(self, fv: Mapping[str, float], label: str) -> float:
        if label not in self.weights:
            raise KeyError(f"unknown label {label!r}")
        w = self.weights[label]
        return sum(value * w.get(name, 0.0) for name, value in fv.items())

    def predict(self, fv: Mapping[str, float]) -> str:
        best = self.labels[0]
        best_score = self.score(fv, best)
        for label in self.labels[1:]:
            s = self.score(fv, label)
            if s > best_score:
                best, best_score = label, s
        return best

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
        weights: dict[str, dict[str, float]] = {label: {} for label in obj["labels"]}
        for key, w in obj["weights"].items():
            label, name = key.split("\x1f", 1)
            weights[label][name] = w
        return cls(
            labels=tuple(obj["labels"]),
            weights=weights,
            epochs=obj["epochs"],
            seed=obj["seed"],
        )


def train_model(
    labels: Sequence[str],
    examples: Sequence[tuple[Mapping[str, float], str]],
    epochs: int = 10,
    seed: int = 0,
) -> LinearModel:
    """Margin-1 mistake-driven online training with weight averaging.

    Deterministic given the seed; raises on an example whose label is outside
    the label set.
    """
    if not examples:
        raise ValueError("no training examples")
    for _, label in examples:
        if label not in labels:
            raise ValueError(f"unknown label {label!r}")
    w = {label: {} for label in labels}
    acc = {label: {} for label in labels}
    last = {label: {} for label in labels}
    step = 0

    def raw_score(label: str, fv: Mapping[str, float]) -> float:
        table = w[label]
        return sum(v * table.get(name, 0.0) for name, v in fv.items())

    def apply(label: str, fv: Mapping[str, float], sign: float) -> None:
        table, atab, ltab = w[label], acc[label], last[label]
        for name, v in fv.items():
            atab[name] = atab.get(name, 0.0) + (step - ltab.get(name, 0)) * table.get(name, 0.0)
            ltab[name] = step
            table[name] = table.get(name, 0.0) + sign * v

    rng = random.Random(seed)
    order = list(range(len(examples)))
    for _ in range(epochs):
        rng.shuffle(order)
        for idx in order:
            fv, gold = examples[idx]
            step += 1
            gold_score = raw_score(gold, fv)
            rival, rival_score = None, None
            for label in labels:
                if label == gold:
                    continue
                s = raw_score(label, fv)
                if rival_score is None or s > rival_score:
                    rival, rival_score = label, s
            if rival is not None and gold_score - rival_score < 1.0:
                apply(gold, fv, +1.0)
                apply(rival, fv, -1.0)
    total = max(step, 1)
    averaged = {}
    for label in labels:
        table, atab, ltab = w[label], acc[label], last[label]
        averaged[label] = {
            name: (atab.get(name, 0.0) + (total - ltab.get(name, 0)) * weight) / total
            for name, weight in table.items()
        }
    return LinearModel(labels=tuple(labels), weights=averaged, epochs=epochs, seed=seed)


# ---------------------------------------------------------------------------
# classifier suite

@dataclass(frozen=True)
class ClassifierSuite:
    vertex: LinearModel
    edge: LinearModel
    relevance: LinearModel
    lca: LinearModel
    config: FeatureConfig = field(default_factory=FeatureConfig)

    def save(self, path) -> None:
        obj = {
            "config": {
                "context_features": self.config.context_features,
                "rule_features": self.config.rule_features,
                "window": self.config.window,
            },
            "vertex": self.vertex.to_json_obj(),
            "edge": self.edge.to_json_obj(),
            "relevance": self.relevance.to_json_obj(),
            "lca": self.lca.to_json_obj(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "ClassifierSuite":
        """Read a suite written by ``save``. A malformed file raises
        ValueError naming the file and the missing or bad key."""
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(f"model {path}: expected a JSON object")

        def part(key, build):
            if key not in obj:
                raise ValueError(f"model {path}: missing key {key!r}")
            try:
                return build(obj[key])
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"model {path}: bad {key!r}: {exc!r}") from exc

        return cls(
            vertex=part("vertex", LinearModel.from_json_obj),
            edge=part("edge", LinearModel.from_json_obj),
            relevance=part("relevance", LinearModel.from_json_obj),
            lca=part("lca", LinearModel.from_json_obj),
            config=part("config", lambda cfg: FeatureConfig(**cfg)),
        )


def build_training_sets(
    problems: Iterable[Problem], config: FeatureConfig = FeatureConfig()
) -> dict[str, list[tuple[FeatureVector, str]]]:
    """Assemble (features, label) pairs for all four classifiers from gold
    trees and derived graph labels. Problems without gold trees are skipped."""
    sets: dict[str, list[tuple[FeatureVector, str]]] = {
        "vertex": [], "edge": [], "relevance": [], "lca": [],
    }
    for problem in problems:
        if problem.gold is None or problem.gold.tree is None:
            continue
        derived = annotate.derive_udg_gold(problem)
        n = problem.n
        tree = problem.gold.tree
        used = exprtree.used_indices(tree)
        for v in range(n):
            label = RATE if derived.vertex_labels[v] else NOT_RATE
            sets["vertex"].append((vertex_features(problem, v, config), label))
        qlabel = RATE if derived.vertex_labels[n] else NOT_RATE
        sets["vertex"].append((vertex_features(problem, QUESTION, config), qlabel))
        graph = derived.to_graph()
        for i, j in vertex_pairs(n):
            vi = i
            vj = QUESTION if j == n else j
            sets["edge"].append(
                (edge_features(problem, vi, vj, config), graph.edge(i, j).value)
            )
        for q in range(n):
            label = RELEVANT if q in used else IRRELEVANT
            sets["relevance"].append((relevance_features(problem, q, config), label))
        for i in sorted(used):
            for j in sorted(used):
                if i < j:
                    op = exprtree.op_lca(tree, i, j)
                    sets["lca"].append((lca_features(problem, i, j, config), op))
    return sets


def train_suite(
    problems: Iterable[Problem],
    config: FeatureConfig = FeatureConfig(),
    epochs: int = 10,
    seed: int = 0,
) -> ClassifierSuite:
    sets = build_training_sets(problems, config)
    return ClassifierSuite(
        vertex=train_model(VERTEX_LABELS, sets["vertex"], epochs, seed),
        edge=train_model(EDGE_LABELS, sets["edge"], epochs, seed),
        relevance=train_model(RELEVANCE_LABELS, sets["relevance"], epochs, seed),
        lca=train_model(OP_LABELS, sets["lca"], epochs, seed),
        config=config,
    )
