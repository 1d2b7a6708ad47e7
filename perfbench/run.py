"""Benchmark for udgsolver: two workloads, end-to-end metrics and a traced
per-layer run.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload solve-stream --seed 1 --seconds 40 --trace 0

Workloads, each one client in a closed loop in its own single-threaded process:

* ``cv-eval``: the researcher's job, one ``udgsolver eval`` (``cli.main``
  in-process: 5 folds, 20% dev, beam 200, 10 epochs) over a 50-problem
  synthetic corpus. The eval's test step is then timed on its own: each test
  problem is solved with its fold's suite (trained in set-up on the fold's
  train and dev problems, as the eval trains it) and the fold's tuned scales
  from the report, in passes, for ``--seconds`` after the eval. Every such
  answer must match the report's.
* ``solve-stream``: the ``solve`` user's request, ``corpus.build_problem``
  then ``infer.solve_joint``, on 50 held-out problems with 2 or 3 quantities
  and a suite trained in set-up on another seed, in passes for ``--seconds``.
  The median falls on n=2 problems, where features and score tables dominate;
  the tail on n=3, where tree search is ~90% of a solve.

Set-up (inputs, training, a model save/load round trip and a warm-up pass) runs
at least three times and for at least eight seconds, each from empty caches,
and its fastest time is reported as ``setup_s``; it is never inside a solve or
eval timing. Every answer is compared exactly with gold, every exception counts
as a failure, and every returned tuple is checked: its value must equal its
tree's exact evaluation and its graph must be consistent with its tree. For
cv-eval the sha256 of the eval report and the eval's wall time are printed.

Metrics (``--trace 0``): ``setup_s``, ``solve_p50_ms`` and ``solve_tail_ms``
(median and tail over problems of each problem's fastest solve; the tail is the
highest of p75..p99.9 with at least ten problems beyond it), ``solves_per_s``
(a best-case rate: problems over the sum of those fastest times), ``accuracy``
(cv-eval: the report's full solve accuracy; else the share of answers equal
to gold), ``completed_ratio`` (one minus the share of problems that failed in
any repeat) and ``peak_rss_mb``. ``correct`` is false on any failure, invalid
or changed answer, or an accuracy below the one recorded for the seed in
recorded_accuracy.json (below a sanity floor for seeds not recorded there).

With ``--trace 1`` one set-up and one pass run untraced and then traced; the
metrics are the per-layer numbers of layertrace.py plus the tracing overhead,
and the span log is written to ``.perfbench-out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cv-eval", "solve-stream")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "udgsolver" / "__init__.py").is_file():
        print(f"error: no udgsolver sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
