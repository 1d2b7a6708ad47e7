import hashlib

from udgsolver import synth
from udgsolver.evalharness import RunConfig, run_eval

# sha256 of the report below; any change to training, tuning, inference or
# report formatting that alters a single byte of it changes this value
REPORT_SHA256 = "7e22a1e56e9c9dfba483e1c394312eaec89b15b100ab24068b92b706c6d16fca"


def test_report_bytes_pinned():
    # the first 30 problems cover 12 of the 15 synth families, at two and three quantities
    problems = synth.gen_synthetic_corpus(0, 50)[:30]
    report = run_eval(problems, RunConfig(folds=3))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256
