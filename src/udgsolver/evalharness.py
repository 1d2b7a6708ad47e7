"""Cross-validation evaluation harness.

Per fold: train the classifier suite on the training split minus its dev
slice, tune scaling parameters on dev, retrain on the full training split,
then solve the held-out test problems. Reports solve accuracy for the full
system and its lambda ablations, graph-prediction metrics against derived
(noisy) gold, and classifier accuracies under feature-family ablations.
Each test problem's gold graph is derived once per fold. Its vertex and
edge classifier accuracies are argmaxes read off the score tables its
solve built; each ablation scores the fold's suite, with its vertex and
edge models retrained on the ablated features, through its own table.
Fixed seeds make the report byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from . import annotate, corpus, exprtree, infer, learn
from .corpus import Problem
from .infer import JointCandidates, ScalingParams, ScoreTables, build_score_tables, values_match
from .learn import EDGE_LABELS, NOT_RATE, RATE, VERTEX_LABELS, ClassifierSuite, FeatureConfig
from .udg import EdgeType, vertex_pairs

SOLVE_VARIANTS = ("full", "no_vertex", "no_edge", "base")
FEATURE_VARIANTS = ("all_features", "no_rule_features", "no_context_features")


@dataclass(frozen=True)
class RunConfig:
    """Defaults reproduce the standard protocol: 5 folds, 20% dev, beam 200."""

    seed: int = 0
    folds: int = 5
    dev_fraction: float = 0.2
    beam: int | None = 200
    epochs: int = 10
    context_features: bool = True
    rule_features: bool = True
    fixed_lambda_vertex: float | None = None
    fixed_lambda_edge: float | None = None

    def __post_init__(self):
        infer.check_beam(self.beam)
        learn.check_epochs(self.epochs)
        # refuse a bad fixed scale now, by ScalingParams' rule, not after training
        infer.ScalingParams(**{name: values[0] for name, values in self.tune_grid().items()})

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            context_features=self.context_features, rule_features=self.rule_features
        )

    def tune_grid(self) -> dict[str, Sequence[float]]:
        grid = {}
        if self.fixed_lambda_vertex is not None:
            grid["lambda_vertex"] = (self.fixed_lambda_vertex,)
        if self.fixed_lambda_edge is not None:
            grid["lambda_edge"] = (self.fixed_lambda_edge,)
        return grid


@dataclass(frozen=True)
class FoldResult:
    fold: int
    test_size: int
    params: dict[str, float]
    solve_correct: dict[str, int]
    solve_accuracy: dict[str, float]
    udg_exact_accuracy: float
    vertex_accuracy: dict[str, float]
    edge_accuracy: dict[str, float]


@dataclass(frozen=True)
class EvalReport:
    config: dict
    folds: tuple[FoldResult, ...]
    aggregate: dict
    per_problem: dict[str, dict]

    def to_json(self) -> str:
        obj = {
            "config": self.config,
            "folds": [vars(f) | {"fold": f.fold} for f in self.folds],
            "aggregate": self.aggregate,
            "per_problem": self.per_problem,
        }
        return json.dumps(obj, sort_keys=True, indent=1)

    def to_text(self) -> str:
        lines = []
        fold_ids = [f"fold{f.fold}" for f in self.folds]
        header = ["system"] + fold_ids + ["mean"]
        rows = []
        for variant in SOLVE_VARIANTS:
            row = [variant]
            row += [f"{f.solve_accuracy[variant]:.3f}" for f in self.folds]
            row += [f"{self.aggregate['solve_accuracy'][variant]:.3f}"]
            rows.append(row)
        lines.append("solve accuracy")
        lines.extend(_table(header, rows))
        lines.append("")
        lines.append("graph prediction (vs derived gold)")
        rows = [
            ["udg_exact"]
            + [f"{f.udg_exact_accuracy:.3f}" for f in self.folds]
            + [f"{self.aggregate['udg_exact_accuracy']:.3f}"]
        ]
        lines.extend(_table(header, rows))
        lines.append("")
        for name, accessor in (("vertex", "vertex_accuracy"), ("edge", "edge_accuracy")):
            lines.append(f"{name} classifier accuracy")
            rows = []
            for variant in FEATURE_VARIANTS:
                row = [variant]
                row += [f"{getattr(f, accessor)[variant]:.3f}" for f in self.folds]
                row += [f"{self.aggregate[accessor][variant]:.3f}"]
                rows.append(row)
            lines.extend(_table(header, rows))
            lines.append("")
        return "\n".join(lines)

    def subset_accuracy(self, ids: Sequence[str], variant: str = "full") -> float:
        hits = [self.per_problem[i]["correct"][variant] for i in ids]
        if not hits:
            raise ValueError("empty subset")
        return sum(hits) / len(hits)


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(str(r[c])) for r in [header] + rows) for c in range(len(header))]
    out = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        out.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return out


def _variant_params(tuned: ScalingParams) -> dict[str, ScalingParams]:
    return {
        "full": tuned,
        "no_vertex": replace(tuned, lambda_vertex=0.0),
        "no_edge": replace(tuned, lambda_edge=0.0),
        "base": replace(tuned, lambda_vertex=0.0, lambda_edge=0.0),
    }


def _classifier_accuracy(
    suite: ClassifierSuite, scored: Iterable[ScoreTables], derived: Sequence[annotate.DerivedUdgGold]
) -> tuple[float, float]:
    """The share of vertices the suite's vertex model, and of vertex pairs
    its edge model, labels as the derived gold does, over the problems whose
    score tables ``scored`` gives in ``derived``'s order. Each label is the
    argmax read off the tables in the model's ``labels`` order, so ties go
    to the earliest label, as ``LinearModel.predict`` breaks them."""
    edge_labels = tuple(map(EdgeType, suite.edge.labels))
    vertex_hits: list[bool] = []
    edge_hits: list[bool] = []
    for tables, gold in zip(scored, derived):
        vertex_hits += (
            max(suite.vertex.labels, key=lambda label: tables.vertex_score(v, label))
            == (RATE if is_rate else NOT_RATE)
            for v, is_rate in enumerate(gold.vertex_labels)
        )
        edge_hits += (
            max(edge_labels, key=lambda label: tables.edge_score(i, j, label)) == label
            for (i, j), label in zip(vertex_pairs(tables.n_quantities), gold.edges)
        )
    return sum(vertex_hits) / len(vertex_hits), sum(edge_hits) / len(edge_hits)


def _ablation_suite(
    suite: ClassifierSuite, problems: Sequence[Problem], config: FeatureConfig, epochs: int, seed: int
) -> ClassifierSuite:
    """``suite`` with its vertex and edge models retrained on ``config``'s
    features, as ``train_suite`` trains them. The eval reads only its
    vertex and edge scores: its relevance and LCA models are ``suite``'s,
    and the scores ``build_score_tables`` gives them over ``config``'s
    features are never read, so those sets are neither built nor trained."""
    sets = learn.training_blocks(problems, config, ("vertex", "edge"))
    return replace(
        suite,
        vertex=learn.train_model(VERTEX_LABELS, sets["vertex"], epochs, seed),
        edge=learn.train_model(EDGE_LABELS, sets["edge"], epochs, seed),
        config=config,
    )


def run_eval(problems: Sequence[Problem], config: RunConfig = RunConfig()) -> EvalReport:
    for p in problems:
        if p.gold is None or p.gold.tree is None:
            raise corpus.CorpusError(f"problem {p.id}: evaluation needs gold answers and trees")
        # every problem is tested in some fold: refuse one no search can
        # solve before any training
        if p.n > exprtree.MAX_ENUM_LEAVES:
            raise corpus.CorpusError(
                f"problem {p.id}: refusing to solve over {p.n} quantities (max {exprtree.MAX_ENUM_LEAVES})"
            )
    by_id = {p.id: p for p in problems}
    split = corpus.make_folds(problems, config.folds, config.seed, config.dev_fraction)
    feature_config = config.feature_config()

    fold_results = []
    per_problem: dict[str, dict] = {}
    for fold in range(config.folds):
        train_ids, dev_ids, test_ids = split.train_dev_test(fold)
        train = [by_id[i] for i in train_ids]
        dev = [by_id[i] for i in dev_ids]
        test = [by_id[i] for i in test_ids]

        # the tuning suite is dropped once tuned, before the final suite trains
        tuned = infer.tune_lambdas(
            dev_problems=dev,
            suite=learn.train_suite(train, feature_config, config.epochs, config.seed),
            grid=config.tune_grid(),
            beam=config.beam,
        )
        suite = learn.train_suite(train + dev, feature_config, config.epochs, config.seed)
        variants = _variant_params(tuned)

        # each test problem's derived gold, once, for its graph and every variant's accuracy
        derived = [annotate.derive_udg_gold(p) for p in test]
        scored = []
        correct = {v: 0 for v in SOLVE_VARIANTS}
        udg_exact = 0
        for p, gold in zip(test, derived):
            tables = build_score_tables(p, suite)
            scored.append(tables)
            candidates = JointCandidates(tables, p.values, beam=config.beam)
            record = {"fold": fold, "correct": {}}
            for name, params in variants.items():
                result = candidates.solve(params)
                hit = values_match(result.value, p.gold.answer)
                correct[name] += hit
                record["correct"][name] = bool(hit)
            per_problem[p.id] = record
            predicted = candidates.best_graph(ScalingParams())
            udg_exact += predicted == gold.to_graph()

        accuracy = {"all_features": _classifier_accuracy(suite, scored, derived)}
        for variant in FEATURE_VARIANTS[1:]:
            variant_config = replace(
                feature_config,
                rule_features=variant != "no_rule_features",
                context_features=variant != "no_context_features",
            )
            variant_suite = _ablation_suite(suite, train + dev, variant_config, config.epochs, config.seed)
            variant_scored = (build_score_tables(p, variant_suite) for p in test)
            accuracy[variant] = _classifier_accuracy(variant_suite, variant_scored, derived)

        fold_results.append(
            FoldResult(
                fold=fold,
                test_size=len(test),
                params={
                    "lambda_rel": tuned.lambda_rel,
                    "lambda_vertex": tuned.lambda_vertex,
                    "lambda_edge": tuned.lambda_edge,
                },
                solve_correct=dict(correct),
                solve_accuracy={v: correct[v] / len(test) for v in SOLVE_VARIANTS},
                udg_exact_accuracy=udg_exact / len(test),
                vertex_accuracy={v: vertex for v, (vertex, _) in accuracy.items()},
                edge_accuracy={v: edge for v, (_, edge) in accuracy.items()},
            )
        )

    def mean(values) -> float:
        # one addition at a time, in fold order, so the report's floats do
        # not depend on the Python version (sum() compensates from 3.12)
        return reduce(add, values, 0) / len(fold_results)

    aggregate = {
        "solve_accuracy": {
            v: mean(f.solve_accuracy[v] for f in fold_results) for v in SOLVE_VARIANTS
        },
        "udg_exact_accuracy": mean(f.udg_exact_accuracy for f in fold_results),
        "vertex_accuracy": {
            v: mean(f.vertex_accuracy[v] for f in fold_results) for v in FEATURE_VARIANTS
        },
        "edge_accuracy": {
            v: mean(f.edge_accuracy[v] for f in fold_results) for v in FEATURE_VARIANTS
        },
        "test_total": sum(f.test_size for f in fold_results),
    }
    config_obj = {
        "seed": config.seed,
        "folds": config.folds,
        "dev_fraction": config.dev_fraction,
        "beam": config.beam,
        "epochs": config.epochs,
        "context_features": config.context_features,
        "rule_features": config.rule_features,
    }
    return EvalReport(
        config=config_obj,
        folds=tuple(fold_results),
        aggregate=aggregate,
        per_problem=per_problem,
    )
