"""The workloads: set-up, measured passes, answer checks and metrics.

Set-up and solve timings keep the fastest repeat: on a shared 2-vCPU Xeon VM a
fixed pure-Python loop took 0.21 to 0.81 s, in slow phases lasting up to
minutes with brief fast moments inside them, and process CPU time moved with
wall time, so the slowdown is not stolen time that CPU time would leave out.
Work repeated through a run catches the fast moments; the longer the run, the
likelier it holds one. The eval's 12-20 s wall time cannot be repeated that
often: the same eval of the same corpus took 11.8 s and 15.0 s in two fresh
processes, so it is printed, not gated.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from udgsolver import cli, corpus, evalharness, exprtree, infer, learn, udg
from udgsolver.corpus import Problem

import inputs
import layertrace

#: The researcher's protocol: 5 folds, 20% dev, beam 200, 10 epochs.
EVAL = evalharness.RunConfig(seed=0, folds=5, dev_fraction=0.2, beam=200, epochs=10)
#: Set-up repeats at least this often and for at least SETUP_SECONDS.
SETUP_REPEATS = 3
SETUP_SECONDS = 8.0
#: Problems per pass: the cv-eval corpus, or the solve-stream held-out set.
PASS_SIZE = {"cv-eval": 50, "solve-stream": 50}
#: Requests the warm-up pass of each set-up solves.
WARMUP_PROBLEMS = 8
#: Sanity floors for seeds without a recorded accuracy: they catch a search
#: that loses answers wholesale. Recorded seeds must not drop one answer.
ACCURACY_FLOOR = {"cv-eval": 0.6, "solve-stream": 0.9}
RECORDED_ACCURACY = Path(__file__).resolve().parent / "recorded_accuracy.json"
TAIL_PERCENTILES = (75, 80, 90, 95, 99, 99.9)


@dataclass
class Request:
    """One problem to solve, with the suite and scales it is solved with.

    For cv-eval these are the problem's fold suite and the fold's tuned scales
    from the eval report, and ``expected`` is whether the eval's ``full``
    variant answered it correctly."""

    problem: Problem
    suite: learn.ClassifierSuite
    fold: int | None = None
    params: infer.ScalingParams | None = None
    expected: bool | None = None


@dataclass
class PassLog:
    """Everything one run measured, before it is reduced to metrics."""

    latencies_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    eval_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failed_ids: set[str] = field(default_factory=set)
    invalid: int = 0
    nondeterministic: int = 0
    accuracies: list[float] = field(default_factory=list)
    report_digests: list[str] = field(default_factory=list)
    answers: dict = field(default_factory=dict)

    def fail(self, ids, what: str) -> None:
        self.failed += len(ids)
        self.failed_ids.update(ids)
        print(what, file=sys.stderr)


def tail_percentile(n_samples: int) -> float:
    """The highest tracked percentile with at least ten samples beyond it."""
    return max((p for p in TAIL_PERCENTILES if n_samples * (100 - p) / 100 >= 10), default=50)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Bench:
    """One workload's inputs, set-up and measured passes for one seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.corpus_path = workdir / "corpus.jsonl"
        self.requests: list[Request] = []

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Inputs, training, a model save/load round trip and a warm-up pass.

        cv-eval trains each fold's suite as the eval does for its test step
        (train + dev of the fold), so its requests are the eval's held-out
        test problems; solve-stream trains on one seed and solves another."""
        if self.workload == "cv-eval":
            with open(self.corpus_path, "w", encoding="utf-8") as fh:
                for record in inputs.cv_corpus(self.seed, PASS_SIZE["cv-eval"]):
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            problems = corpus.load_problems(self.corpus_path)
            by_id = {p.id: p for p in problems}
            split = corpus.make_folds(problems, EVAL.folds, EVAL.seed, EVAL.dev_fraction)
            self.requests = []
            for fold in range(EVAL.folds):
                train, dev, test = split.train_dev_test(fold)
                suite = self.round_trip(learn.train_suite(
                    [by_id[i] for i in train + dev], EVAL.feature_config(), EVAL.epochs, EVAL.seed))
                self.requests += [Request(by_id[i], suite, fold) for i in test]
        else:
            train, heldout = inputs.train_and_heldout(self.seed, PASS_SIZE[self.workload])
            suite = self.round_trip(learn.train_suite(train))
            self.requests = [Request(p, suite) for p in heldout]
        for request in self.requests[:WARMUP_PROBLEMS]:
            self.solve(request)

    def round_trip(self, suite: learn.ClassifierSuite) -> learn.ClassifierSuite:
        model_path = self.workdir / "model.json"
        suite.save(model_path)
        return learn.ClassifierSuite.load(model_path)

    def timed_setups(self, repeats: int, seconds: float = 0.0) -> list[float]:
        """Set up at least ``repeats`` times and for ``seconds``, each time from
        empty caches as in a new process."""
        times = []
        while len(times) < repeats or sum(times) < seconds:
            layertrace.clear_caches()
            t0 = time.perf_counter()
            self.setup()
            times.append(time.perf_counter() - t0)
        return times

    # -- passes -----------------------------------------------------------

    def solve(self, request: Request) -> infer.ScoredTuple:
        """solve-stream parses the request text as the ``solve`` user does;
        cv-eval solves the loaded problem, as the eval's test step does."""
        problem = request.problem
        if self.workload == "solve-stream":
            problem = corpus.build_problem("request", problem.text)
        return infer.solve_joint(problem, request.suite, request.params, beam=EVAL.beam)

    def solve_pass(self, log: PassLog) -> float:
        """Solve every request once, timing each; check and return accuracy."""
        results = []
        for request in self.requests:
            pid = request.problem.id
            t0 = time.perf_counter_ns()
            try:
                result = self.solve(request)
            except Exception as exc:  # every failure is counted, never skipped
                log.fail([pid], f"request {pid} failed: {type(exc).__name__}: {exc}")
                continue
            log.latencies_ns[pid].append(time.perf_counter_ns() - t0)
            results.append((request, result))
        log.attempted += len(self.requests)
        hits = 0
        for request, result in results:
            problem = request.problem
            hit = infer.values_match(result.value, problem.gold.answer)
            hits += hit
            valid = (
                exprtree.evaluate(result.tree, problem.values) == result.value
                and udg.is_consistent(result.graph, result.tree).ok
                and request.expected in (None, hit)
            )
            log.invalid += not valid
            answer = (exprtree.serialize(result.tree), result.value, result.graph)
            if log.answers.setdefault(problem.id, answer) != answer:
                log.nondeterministic += 1
        return hits / len(self.requests)

    def eval_pass(self, log: PassLog) -> float:
        """One cross-validated eval through the CLI; check it, take each
        fold's tuned scales and each problem's result for the requests, and
        return the report's accuracy."""
        report_path = self.workdir / "report.json"
        argv = ["eval", "--in", str(self.corpus_path), "--out", str(report_path),
                "--k", str(EVAL.folds), "--seed", str(EVAL.seed), "--beam", str(EVAL.beam),
                "--epochs", str(EVAL.epochs)]
        ids = [r.problem.id for r in self.requests]
        log.attempted += len(ids)
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except Exception as exc:  # every failure is counted, never skipped
            rc = f"{type(exc).__name__}: {exc}"
        log.eval_ns.append(time.perf_counter_ns() - t0)
        if rc != 0:
            log.fail(ids, f"eval failed: {rc}")
            return 0.0
        blob = report_path.read_bytes()
        log.report_digests.append(hashlib.sha256(blob).hexdigest())
        report = json.loads(blob)
        per_problem = report["per_problem"]
        hits = sum(r["correct"]["full"] for r in per_problem.values())
        if (report["aggregate"]["test_total"] != len(ids) or set(per_problem) != set(ids)
                or sum(f["solve_correct"]["full"] for f in report["folds"]) != hits):
            log.invalid += 1
            return report["aggregate"]["solve_accuracy"]["full"]
        for request in self.requests:
            record = per_problem[request.problem.id]
            log.invalid += record["fold"] != request.fold
            request.params = infer.ScalingParams(**report["folds"][request.fold]["params"])
            request.expected = record["correct"]["full"]
        return report["aggregate"]["solve_accuracy"]["full"]

    def run_pass(self, log: PassLog, seconds: float = 0.0) -> None:
        """Solve passes for ``seconds`` (at least one); record the accuracy.

        cv-eval first runs one eval, which sets each request's fold scales,
        then times its test step: each test problem solved with its fold's
        suite and scales, which must reproduce the report's answer."""
        eval_accuracy = self.eval_pass(log) if self.workload == "cv-eval" else None
        t_end = time.perf_counter() + seconds
        accuracy = self.solve_pass(log)
        while time.perf_counter() < t_end:
            self.solve_pass(log)
        log.accuracies.append(accuracy if eval_accuracy is None else eval_accuracy)


def recorded_accuracy(workload: str, seed: int) -> float | None:
    with open(RECORDED_ACCURACY, encoding="utf-8") as fh:
        return json.load(fh)[workload].get(str(seed))


def correct(workload: str, seed: int, log: PassLog) -> bool:
    recorded = recorded_accuracy(workload, seed)
    floor = ACCURACY_FLOOR[workload] if recorded is None else recorded
    if any(a < floor for a in log.accuracies):
        print(f"accuracy {min(log.accuracies)} is below {floor}, the floor for seed {seed}",
              file=sys.stderr)
    return (log.failed == 0 and log.invalid == 0 and log.nondeterministic == 0
            and all(a >= floor for a in log.accuracies)
            and len(set(log.report_digests)) <= 1 and bool(log.latencies_ns))


def end_to_end_metrics(workload: str, log: PassLog, setup_times: list[float], n_problems: int) -> dict:
    if not log.latencies_ns:
        raise SystemExit(f"{workload}: no request completed")
    best_ms = [min(times) / 1e6 for times in log.latencies_ns.values()]
    repeats = [len(times) for times in log.latencies_ns.values()]
    tail = tail_percentile(len(best_ms))
    print(f"solve latency: {len(best_ms)} problems, fastest of {min(repeats)}-{max(repeats)} "
          f"repeats each, tail is p{tail}")
    if log.report_digests:
        print(f"eval report sha256: {log.report_digests[0]}")
    if log.eval_ns:
        print(f"eval wall time (s, not a gated metric): {log.eval_ns[0] / 1e9:.4f}")
    print(f"set-up times (s): {', '.join(f'{t:.4f}' for t in setup_times)}")
    return {
        "setup_s": (min(setup_times), "s"),
        "solve_p50_ms": (statistics.median(best_ms), "ms"),
        "solve_tail_ms": (percentile(best_ms, tail), "ms"),
        "solves_per_s": (1000 * len(best_ms) / sum(best_ms), "1/s"),
        "accuracy": (statistics.median(log.accuracies), "ratio"),
        "completed_ratio": (1 - len(log.failed_ids) / n_problems, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload and return the result object the command prints."""
    inputs.check_synth_drift()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        bench = Bench(workload, seed, workdir)
        log = PassLog()
        if trace:
            metrics = layertrace.traced_run(bench, log, root / ".perfbench-out")
        else:
            setup_times = bench.timed_setups(SETUP_REPEATS, SETUP_SECONDS)
            bench.run_pass(log, seconds)
            metrics = end_to_end_metrics(workload, log, setup_times, len(bench.requests))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:<42} {value:>14.6g} {unit}")
    return {
        "correct": correct(workload, seed, log),
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
