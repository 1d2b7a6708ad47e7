"""Per-layer tracing of udgsolver from outside the package.

The tracer wraps the public functions of each module by reassigning module
attributes in the benchmark's process. Every attribute in the package that
refers to the wrapped function object is replaced, so names imported with
``from .infer import ...`` (``evalharness.build_score_tables``,
``cli.run_eval``) are traced too; methods are wrapped on their classes
(``infer.JointCandidates``, ``learn.LinearModel``, ``learn.ClassifierSuite``),
which covers every module that imported the class.

Each wrapped call records a span (name, start, end, parent, request id) kept
in memory and written out at the end. Three hot leaves are counted and timed
in aggregate instead, one span per call would dwarf the work they do:
``learn.LinearModel.score``, ``udg.permitted_edge_labels`` and each ``next()``
on ``exprtree.enumerate_trees``. Their time still counts as child time of the
enclosing span, so a span's self time is its duration minus the time its
child spans and leaves cover.
"""

from __future__ import annotations

import json
import statistics
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

import udgsolver
from udgsolver import annotate, cli, corpus, evalharness, exprtree, infer, learn, synth, udg, units

LAYERS = ("corpus", "units", "learn", "annotate", "exprtree", "udg", "infer", "evalharness", "cli", "synth")

SPANNED = (
    (corpus, "build_problem"),
    (corpus, "load_problems"),
    (units, "extract_unit"),
    (learn, "vertex_features"),
    (learn, "edge_features"),
    (learn, "relevance_features"),
    (learn, "lca_features"),
    (learn, "build_training_sets"),
    (learn, "train_suite"),
    (annotate, "derive_udg_gold"),
    (infer, "build_score_tables"),
    (infer, "solve_joint"),
    (infer, "predict_udg_from_tables"),
    (evalharness, "run_eval"),
    (cli, "main"),
    (synth, "gen_synthetic_corpus"),
)
FEATURES = ("learn.vertex_features", "learn.edge_features", "learn.relevance_features", "learn.lca_features")
CLASSIFIERS = {
    learn.VERTEX_LABELS: "vertex",
    learn.EDGE_LABELS: "edge",
    learn.RELEVANCE_LABELS: "relevance",
    learn.OP_LABELS: "lca",
}

#: Per-layer metric -> (unit, better, the end-to-end metrics it should move);
#: the one record of that prediction, which later changes cite.
#: ``busy_s`` is the total time inside a function over the traced set-up and
#: pass, ``busy_ms`` the median per call, ``self_s`` span time minus the time
#: of child spans and leaves.
PER_LAYER = {
    "corpus.build_problem.busy_ms": ("ms", "lower", "solve_p50_ms on solve-stream; cv-eval's eval time (small)"),
    "corpus.build_problem.calls": ("count", "lower", "solve_p50_ms on solve-stream"),
    "corpus.load_problems.busy_s": ("s", "lower", "cv-eval's eval time (small)"),
    "units.extract_unit.calls": ("count", "lower", "solve_p50_ms on both workloads; cv-eval's eval time"),
    "units.extract_unit.busy_s": ("s", "lower", "solve_p50_ms on both workloads; cv-eval's eval time"),
    "learn.vertex_features.per_problem": ("count", "lower", "solve_p50_ms and solves_per_s on both workloads; cv-eval's eval time"),
    "learn.features.busy_s": ("s", "lower", "solve_p50_ms and solves_per_s on both workloads; cv-eval's eval time"),
    "learn.score.calls": ("count", "lower", "solve_p50_ms and solves_per_s on both workloads; cv-eval's eval time"),
    "learn.score.busy_s": ("s", "lower", "solve_p50_ms and solves_per_s on both workloads; cv-eval's eval time"),
    "learn.build_training_sets.busy_s": ("s", "lower", "setup_s on both workloads; cv-eval's eval time; no solve latency change"),
    "learn.train_model.busy_s.vertex": ("s", "lower", "setup_s on both workloads; cv-eval's eval time"),
    "learn.train_model.busy_s.edge": ("s", "lower", "setup_s on both workloads; cv-eval's eval time"),
    "learn.train_model.busy_s.relevance": ("s", "lower", "setup_s on both workloads; cv-eval's eval time"),
    "learn.train_model.busy_s.lca": ("s", "lower", "setup_s on both workloads; cv-eval's eval time"),
    "learn.train_model.examples": ("count", "lower", "setup_s on both workloads; cv-eval's eval time"),
    "annotate.derive_udg_gold.per_problem": ("count", "lower", "cv-eval's eval time; setup_s on all"),
    "annotate.derive_udg_gold.busy_s": ("s", "lower", "cv-eval's eval time; setup_s on all"),
    "infer.build_score_tables.busy_ms": ("ms", "lower", "solve_p50_ms on both workloads"),
    "infer.tune_lambdas.busy_s": ("s", "lower", "cv-eval's eval time (cli.main.busy_s)"),
    "infer.tune.rebuilds_per_dev_problem": ("count", "lower", "cv-eval's eval time (cli.main.busy_s)"),
    "infer.JointCandidates.init.busy_s": ("s", "lower", "solve_tail_ms and solves_per_s on both workloads (the n=3 tail is ~90% search); cv-eval's eval time (~30% of tuning)"),
    "infer.JointCandidates.solve.calls": ("count", "lower", "cv-eval's eval time (cli.main.busy_s)"),
    "infer.JointCandidates.solve.busy_s": ("s", "lower", "cv-eval's eval time (cli.main.busy_s)"),
    "infer.trees_kept": ("count", "lower", "solve_tail_ms and solves_per_s on both workloads (the n=3 tail is ~90% search); cv-eval's eval time"),
    "infer.candidates_per_solve": ("count", "lower", "solve_tail_ms and solves_per_s on both workloads (the n=3 tail is ~90% search); cv-eval's eval time"),
    "infer.beam_keep_ratio": ("ratio", "higher", "solve_tail_ms once a search truncates (1.0 while n <= 3)"),
    "infer.predict_udg_from_tables.busy_s": ("s", "lower", "cv-eval's eval time"),
    "exprtree.enumerate_trees.yielded": ("count", "lower", "solve_tail_ms on both workloads; peak_rss_mb"),
    "exprtree.enumerate_trees.busy_s": ("s", "lower", "solve_tail_ms on both workloads; cv-eval's eval time"),
    "exprtree.canonical_structures.cache_size": ("trees", "lower", "peak_rss_mb; solve_tail_ms on both workloads"),
    "udg.permitted_edge_labels.calls": ("count", "lower", "solve_tail_ms on both workloads; cv-eval's eval time"),
    "udg.permitted_edge_labels.busy_s": ("s", "lower", "solve_tail_ms on both workloads; cv-eval's eval time"),
    "evalharness.run_eval.busy_s": ("s", "lower", "cv-eval's eval time"),
    "cli.main.busy_s": ("s", "lower", "cv-eval's eval time"),
    "synth.gen_synthetic_corpus.busy_s": ("s", "lower", "setup_s on all"),
    **{f"layer.{m}.self_s": ("s", "lower", "the end-to-end time of every workload that runs the layer") for m in LAYERS},
    "lru.hits": ("count", "higher", "solve latency on all; peak_rss_mb"),
    "lru.misses": ("count", "lower", "solve latency on all; peak_rss_mb"),
    "trace.spans": ("count", "lower", "none: size of the span log"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced time of the same set-up and pass"),
    "trace.overhead_ratio": ("ratio", "lower", "none: overhead over untraced time"),
}


def _package_modules():
    yield udgsolver
    for obj in list(vars(udgsolver).values()):
        if getattr(obj, "__name__", "").startswith("udgsolver.") and hasattr(obj, "__file__"):
            yield obj


def lru_caches() -> dict:
    """Every lru-cached function in the package, by qualified name."""
    found = {}
    for module in _package_modules():
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                found.setdefault(f"{obj.__module__}.{obj.__qualname__}", obj)
    return found


def clear_caches() -> None:
    """Empty every lru cache in the package, as in a fresh process."""
    for cache in lru_caches().values():
        cache.cache_clear()


class Tracer:
    """Spans, leaf counters and counts for one traced section."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index, request id, child_ns]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = "setup"
        self.leaf_calls: Counter = Counter()
        self.leaf_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.problem_ids: dict[str, set] = defaultdict(set)
        self.structures: dict[int, int] = {}
        self._labelings = weakref.WeakKeyDictionary()
        self._restore: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> list:
        record = [name, 0, 0, self.stack[-1] if self.stack else -1, self.request, 0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record: list) -> None:
        end = time.perf_counter_ns()
        record[2] = end
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][5] += end - record[1]

    def _leaf(self, name: str, elapsed: int) -> None:
        self.leaf_calls[name] += 1
        self.leaf_ns[name] += elapsed
        if self.stack:
            self.spans[self.stack[-1]][5] += elapsed

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def spanned(self, name: str, fn, before=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _replace_method(self, cls, attr, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        for module, attr in SPANNED:
            original = getattr(module, attr)
            before = {"derive_udg_gold": self._note_gold_problem,
                      "vertex_features": self._count_scoring_features}.get(attr)
            self._replace_everywhere(original, self.spanned(f"{module.__name__[10:]}.{attr}", original, before))
        self._replace_everywhere(infer.tune_lambdas, self._tune(infer.tune_lambdas))
        self._replace_everywhere(learn.train_model, self._train_model(learn.train_model))
        self._replace_everywhere(exprtree.enumerate_trees, self._enumerate(exprtree.enumerate_trees))
        self._replace_everywhere(exprtree.canonical_structures, self._structures(exprtree.canonical_structures))
        self._replace_everywhere(udg.permitted_edge_labels, self.leaf("udg.permitted_edge_labels", udg.permitted_edge_labels))
        self._replace_method(learn.LinearModel, "score", self.leaf("learn.score", learn.LinearModel.score))
        self._replace_method(learn.ClassifierSuite, "save", self.spanned("learn.ClassifierSuite.save", learn.ClassifierSuite.save))
        load = learn.ClassifierSuite.__dict__["load"].__func__
        self._replace_method(learn.ClassifierSuite, "load", classmethod(self.spanned("learn.ClassifierSuite.load", load)))
        self._replace_method(infer.JointCandidates, "__init__", self._candidates_init(infer.JointCandidates.__init__))
        self._replace_method(infer.JointCandidates, "solve", self._candidates_solve(infer.JointCandidates.solve))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- wrappers that also count -----------------------------------------

    def leaf(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf(name, time.perf_counter_ns() - t0)

        return wrapper

    def _note_gold_problem(self, args, kwargs) -> None:
        self.problem_ids["annotate.derive_udg_gold"].add(args[0].id)

    def _count_scoring_features(self, args, kwargs) -> None:
        if self._inside("infer.build_score_tables"):
            self.counts["learn.vertex_features.in_scoring"] += 1

    def _tune(self, fn):
        def before(args, kwargs):
            dev = args[1] if len(args) > 1 else kwargs["dev_problems"]
            self.counts["infer.tune.dev_problems"] += len(dev)

        return self.spanned("infer.tune_lambdas", fn, before)

    def _train_model(self, fn):
        spans = {kind: self.spanned(f"learn.train_model.{kind}", fn)
                 for kind in (*CLASSIFIERS.values(), "other")}

        def wrapper(labels, examples, *args, **kwargs):
            self.counts["learn.train_model.examples"] += len(examples)
            return spans[CLASSIFIERS.get(tuple(labels), "other")](labels, examples, *args, **kwargs)

        return wrapper

    def _enumerate(self, fn):
        def wrapper(*args, **kwargs):
            trees = fn(*args, **kwargs)
            while True:
                t0 = time.perf_counter_ns()
                try:
                    tree = next(trees)
                except StopIteration:
                    self._leaf("exprtree.enumerate_trees", time.perf_counter_ns() - t0)
                    return
                self._leaf("exprtree.enumerate_trees", time.perf_counter_ns() - t0)
                self.counts["exprtree.enumerate_trees.yielded"] += 1
                yield tree

        return wrapper

    def _structures(self, fn):
        def wrapper(k):
            trees = fn(k)
            self.structures[k] = len(trees)
            return trees

        return wrapper

    def _candidates_init(self, fn):
        init = self.spanned("infer.JointCandidates.init", fn)

        def wrapper(candidates, *args, **kwargs):
            if self._inside("infer.tune_lambdas"):
                self.counts["infer.tune.rebuilds"] += 1
            init(candidates, *args, **kwargs)
            entries = getattr(candidates, "entries", ())
            self.counts["infer.trees_kept"] += len(entries)
            self._labelings[candidates] = sum(len(getattr(e, "labelings", ())) for e in entries)

        return wrapper

    def _candidates_solve(self, fn):
        solve = self.spanned("infer.JointCandidates.solve", fn)

        def wrapper(candidates, *args, **kwargs):
            self.counts["infer.candidates_scanned"] += self._labelings.get(candidates, 0)
            return solve(candidates, *args, **kwargs)

        return wrapper

    # -- reduction --------------------------------------------------------

    def metrics(self, overhead_s: float, untraced_s: float) -> dict:
        busy = Counter()
        durations = defaultdict(list)
        self_ns = Counter()
        for name, start, end, parent, _request, child in self.spans:
            busy[name] += end - start
            durations[name].append(end - start)
            self_ns[name.split(".")[0]] += end - start - child
            if name in FEATURES and (parent < 0 or self.spans[parent][0] not in FEATURES):
                busy["learn.features"] += end - start
        for name, ns in self.leaf_ns.items():
            self_ns[name.split(".")[0]] += ns

        def busy_s(name):
            return busy[name] / 1e9

        def median_ms(name):
            return statistics.median(durations[name]) / 1e6 if durations[name] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        caches = [c.cache_info() for c in lru_caches().values()]
        solves = len(durations["infer.JointCandidates.solve"])
        values = {
            "corpus.build_problem.busy_ms": median_ms("corpus.build_problem"),
            "corpus.build_problem.calls": len(durations["corpus.build_problem"]),
            "corpus.load_problems.busy_s": busy_s("corpus.load_problems"),
            "units.extract_unit.calls": len(durations["units.extract_unit"]),
            "units.extract_unit.busy_s": busy_s("units.extract_unit"),
            "learn.vertex_features.per_problem": ratio(
                self.counts["learn.vertex_features.in_scoring"], len(durations["infer.build_score_tables"])),
            "learn.features.busy_s": busy_s("learn.features"),
            "learn.score.calls": self.leaf_calls["learn.score"],
            "learn.score.busy_s": self.leaf_ns["learn.score"] / 1e9,
            "learn.build_training_sets.busy_s": busy_s("learn.build_training_sets"),
            **{f"learn.train_model.busy_s.{kind}": busy_s(f"learn.train_model.{kind}")
               for kind in ("vertex", "edge", "relevance", "lca")},
            "learn.train_model.examples": self.counts["learn.train_model.examples"],
            "annotate.derive_udg_gold.per_problem": ratio(
                len(durations["annotate.derive_udg_gold"]), len(self.problem_ids["annotate.derive_udg_gold"])),
            "annotate.derive_udg_gold.busy_s": busy_s("annotate.derive_udg_gold"),
            "infer.build_score_tables.busy_ms": median_ms("infer.build_score_tables"),
            "infer.tune_lambdas.busy_s": busy_s("infer.tune_lambdas"),
            "infer.tune.rebuilds_per_dev_problem": ratio(
                self.counts["infer.tune.rebuilds"], self.counts["infer.tune.dev_problems"]),
            "infer.JointCandidates.init.busy_s": busy_s("infer.JointCandidates.init"),
            "infer.JointCandidates.solve.calls": solves,
            "infer.JointCandidates.solve.busy_s": busy_s("infer.JointCandidates.solve"),
            "infer.trees_kept": self.counts["infer.trees_kept"],
            "infer.candidates_per_solve": ratio(self.counts["infer.candidates_scanned"], solves),
            "infer.beam_keep_ratio": ratio(
                self.counts["infer.trees_kept"], self.counts["exprtree.enumerate_trees.yielded"]),
            "infer.predict_udg_from_tables.busy_s": busy_s("infer.predict_udg_from_tables"),
            "exprtree.enumerate_trees.yielded": self.counts["exprtree.enumerate_trees.yielded"],
            "exprtree.enumerate_trees.busy_s": self.leaf_ns["exprtree.enumerate_trees"] / 1e9,
            "exprtree.canonical_structures.cache_size": sum(self.structures.values()),
            "udg.permitted_edge_labels.calls": self.leaf_calls["udg.permitted_edge_labels"],
            "udg.permitted_edge_labels.busy_s": self.leaf_ns["udg.permitted_edge_labels"] / 1e9,
            "evalharness.run_eval.busy_s": busy_s("evalharness.run_eval"),
            "cli.main.busy_s": busy_s("cli.main"),
            "synth.gen_synthetic_corpus.busy_s": busy_s("synth.gen_synthetic_corpus"),
            **{f"layer.{m}.self_s": self_ns[m] / 1e9 for m in LAYERS},
            "lru.hits": sum(c.hits for c in caches),
            "lru.misses": sum(c.misses for c in caches),
            "trace.spans": len(self.spans),
            "trace.overhead_s": overhead_s,
            "trace.overhead_ratio": ratio(overhead_s, untraced_s),
        }
        return {name: (values[name], PER_LAYER[name][0]) for name in PER_LAYER}

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            header = header | {
                "span_fields": ["name", "start_ns", "end_ns", "parent", "request", "self_ns"],
                "leaves": {name: {"calls": self.leaf_calls[name], "ns": self.leaf_ns[name]}
                           for name in self.leaf_calls},
                "counts": dict(self.counts),
                "lru": {name: c.cache_info()._asdict() for name, c in lru_caches().items()},
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, request, child in self.spans:
                fh.write(json.dumps([name, start, end, parent, request, end - start - child]) + "\n")


def traced_run(bench, log, out_dir: Path) -> dict:
    """One set-up and one pass untraced, then the same traced.

    Both halves start from cleared caches, so the traced counts are the same
    on every run with the same seed; the time difference is the tracing
    overhead.
    """
    untraced_s = sum(bench.timed_setups(1))
    t0 = time.perf_counter()
    bench.run_pass(log)
    untraced_s += time.perf_counter() - t0

    tracer = Tracer()
    clear_caches()
    tracer.install()
    seq = Counter()

    def request(phase: str, fn):
        def wrapper(*args, **kwargs):
            outer = tracer.request
            tracer.request = f"{phase}-{seq[phase]}"
            seq[phase] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.request = outer

        return wrapper

    bench.solve = request("solve", bench.solve)
    bench.eval_pass = request("eval", bench.eval_pass)
    try:
        t0 = time.perf_counter()
        tracer.request = "setup"
        bench.setup()
        tracer.request = "pass"
        bench.run_pass(log)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        del bench.solve, bench.eval_pass
    path = out_dir / f"trace-{bench.workload}-seed{bench.seed}.jsonl"
    tracer.write(path, {"workload": bench.workload, "seed": bench.seed,
                        "traced_s": traced_s, "untraced_s": untraced_s})
    print(f"span log: {path} ({len(tracer.spans)} spans)")
    return tracer.metrics(traced_s - untraced_s, untraced_s)
