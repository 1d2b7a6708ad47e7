import hashlib

import pytest

from udgsolver import infer, synth
from udgsolver.evalharness import RunConfig, run_eval

# sha256 of the report below; any change to training, tuning, inference or
# report formatting that alters a single byte of it changes this value
REPORT_SHA256 = "7e22a1e56e9c9dfba483e1c394312eaec89b15b100ab24068b92b706c6d16fca"


@pytest.fixture(scope="module")
def counted_eval():
    """The pinned report's eval, with its ``infer._unconstrained_rows`` calls counted."""
    calls = []
    rows = infer._unconstrained_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(infer, "_unconstrained_rows", lambda tables: calls.append(1) or rows(tables))
        # the first 30 problems cover 12 of the 15 synth families, at two and three quantities
        problems = synth.gen_synthetic_corpus(0, 50)[:30]
        report = run_eval(problems, RunConfig(folds=3))
    return report, len(calls)


def test_report_bytes_pinned(counted_eval):
    report, _ = counted_eval
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == REPORT_SHA256


def test_eval_scores_unconstrained_rows_once_per_problem(counted_eval):
    # 30 test problems and 12 dev problems over 3 folds: one search each, and
    # the test problems' standalone graphs come from their searches' rows
    _, calls = counted_eval
    assert calls == 42


@pytest.mark.parametrize("beam", [0, -3, 2.0, True])
def test_run_config_rejects_bad_beam(beam):
    with pytest.raises(ValueError, match="beam must be None or an int >= 1"):
        RunConfig(beam=beam)
    assert RunConfig(beam=1).beam == 1 and RunConfig(beam=None).beam is None


@pytest.mark.parametrize("epochs", [0, -3, 2.0, True])
def test_run_config_rejects_epochs_below_one(epochs):
    with pytest.raises(ValueError, match="epochs must be an int >= 1"):
        RunConfig(epochs=epochs)
    assert RunConfig(epochs=1).epochs == 1


@pytest.mark.parametrize("field", ["fixed_lambda_vertex", "fixed_lambda_edge"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
def test_run_config_rejects_bad_fixed_scale(field, value):
    # the rule ScalingParams applies, checked before any training
    name = field.removeprefix("fixed_")
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
        RunConfig(**{field: value})
    assert RunConfig(**{field: 0.0}).tune_grid() == {name: (0.0,)}
