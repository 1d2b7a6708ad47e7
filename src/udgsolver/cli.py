"""Command-line interface.

Commands: normalize, folds, train, eval, solve, annotate, gen-corpus.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import annotate, corpus, exprtree, infer, learn, synth
from .corpus import CorpusError
from .evalharness import RunConfig, run_eval
from .learn import ClassifierSuite, FeatureConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="udgsolver", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="digit-normalize and deduplicate a JSONL corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--threshold", type=float, default=0.8,
                   help="n-gram overlap above which the later problem is dropped")

    p = sub.add_parser("folds", help="write a deterministic k-fold split")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen-corpus", help="generate the synthetic evaluation corpus")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=500)

    p = sub.add_parser("annotate", help="derive full graph gold labels from gold trees")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = sub.add_parser("train", help="train a classifier suite on a gold corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--no-rule-features", action="store_true")
    p.add_argument("--no-context-features", action="store_true")

    p = sub.add_parser("eval", help="cross-validated evaluation with ablations")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", default=None, help="write the JSON report here")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--beam", type=int, default=200)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--no-rule-features", action="store_true")
    p.add_argument("--no-context-features", action="store_true")
    p.add_argument("--lambda-vertex", type=float, default=None,
                   help="fix this scale instead of tuning it")
    p.add_argument("--lambda-edge", type=float, default=None,
                   help="fix this scale instead of tuning it")

    p = sub.add_parser("solve", help="solve one problem with a trained suite")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--beam", type=int, default=200)
    p.add_argument("--lambda-rel", type=float, default=1.0)
    p.add_argument("--lambda-vertex", type=float, default=1.0)
    p.add_argument("--lambda-edge", type=float, default=1.0)
    p.add_argument("--trace", type=int, default=0, help="also print the top-k tuples")
    return parser


def _cmd_normalize(args) -> int:
    problems = corpus.load_problems(args.input)
    kept = corpus.prune_near_duplicates(problems, args.threshold)
    corpus.save_problems(kept, args.output)
    print(f"kept {len(kept)} of {len(problems)} problems")
    return 0


def _cmd_folds(args) -> int:
    problems = corpus.load_problems(args.input)
    split = corpus.make_folds(problems, args.k, args.seed)
    obj = {
        "seed": split.seed,
        "dev_fraction": split.dev_fraction,
        "folds": [list(f) for f in split.folds],
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
    print(f"wrote {args.k} folds over {len(problems)} problems")
    return 0


def _cmd_gen_corpus(args) -> int:
    problems = synth.gen_synthetic_corpus(args.seed, args.size)
    corpus.save_problems(problems, args.output)
    print(f"wrote {len(problems)} problems to {args.output}")
    return 0


def _cmd_annotate(args) -> int:
    problems = corpus.load_problems(args.input)
    derived = []
    with open(args.output, "w", encoding="utf-8") as fh:
        for p in problems:
            d = annotate.derive_udg_gold(p)
            derived.append(d)
            fh.write(json.dumps({"id": p.id} | d.to_json_obj(), sort_keys=True) + "\n")
    print(f"derived {len(derived)} graphs; edge noise rate "
          f"{annotate.noise_rate(derived):.4f}")
    return 0


def _cmd_train(args) -> int:
    problems = corpus.load_problems(args.input)
    config = FeatureConfig(
        context_features=not args.no_context_features,
        rule_features=not args.no_rule_features,
    )
    suite = learn.train_suite(problems, config, epochs=args.epochs, seed=args.seed)
    suite.save(args.output)
    print(f"trained on {len(problems)} problems; model written to {args.output}")
    return 0


def _cmd_eval(args) -> int:
    problems = corpus.load_problems(args.input)
    config = RunConfig(
        seed=args.seed,
        folds=args.k,
        beam=args.beam,
        epochs=args.epochs,
        context_features=not args.no_context_features,
        rule_features=not args.no_rule_features,
        fixed_lambda_vertex=args.lambda_vertex,
        fixed_lambda_edge=args.lambda_edge,
    )
    report = run_eval(problems, config)
    print(report.to_text())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.output}")
    return 0


def _cmd_solve(args) -> int:
    if args.trace < 0:
        raise ValueError(f"--trace must be >= 0, got {args.trace}")
    suite = ClassifierSuite.load(args.model)
    problem = corpus.build_problem("cli", args.text)
    if not problem.quantities:
        raise CorpusError("the problem text contains no quantities")
    params = infer.ScalingParams(
        lambda_rel=args.lambda_rel,
        lambda_vertex=args.lambda_vertex,
        lambda_edge=args.lambda_edge,
    )
    tables = infer.build_score_tables(problem, suite)
    candidates = infer.JointCandidates(tables, problem.values, beam=args.beam)
    print(json.dumps(_result_obj(candidates.solve(params), problem), sort_keys=True, indent=1))
    if args.trace:
        for trace_tuple in candidates.top_k(params, args.trace):
            print(json.dumps(_result_obj(trace_tuple, problem), sort_keys=True))
    return 0


def _result_obj(result: infer.ScoredTuple, problem: corpus.Problem) -> dict:
    return {
        "value": corpus.format_rational(result.value),
        "tree": exprtree.serialize(result.tree, problem.values),
        "udg": result.graph.to_json_obj(),
        "score": result.score,
        "breakdown": result.breakdown(),
    }


_COMMANDS = {
    "normalize": _cmd_normalize,
    "folds": _cmd_folds,
    "gen-corpus": _cmd_gen_corpus,
    "annotate": _cmd_annotate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "solve": _cmd_solve,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (CorpusError, annotate.AnnotationError, infer.InferenceError, OSError, OverflowError, ValueError) as exc:
        # OverflowError: a model whose score sums pass the largest float
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
