import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import udgsolver
from udgsolver import cli, corpus, learn, synth

from conftest import FIG1_TEXT, MELANIE_TEXT, case_equated_letters, format_1


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    assert cli.main(["gen-corpus", "--out", str(path), "--seed", "0", "--size", "120"]) == 0
    return path


@pytest.fixture(scope="module")
def model_file(tmp_path_factory, trained_suite):
    path = tmp_path_factory.mktemp("model") / "suite.json"
    trained_suite.save(path)
    return path


def test_gen_corpus_counts(corpus_file):
    assert len(corpus.load_problems(corpus_file)) == 120


def test_normalize_dedups_and_is_idempotent(tmp_path, corpus_file):
    out1 = tmp_path / "norm1.jsonl"
    out2 = tmp_path / "norm2.jsonl"
    assert cli.main(["normalize", "--in", str(corpus_file), "--out", str(out1)]) == 0
    assert cli.main(["normalize", "--in", str(out1), "--out", str(out2)]) == 0
    assert out2.read_bytes() == out1.read_bytes()
    assert len(corpus.load_problems(out1)) <= 120


def test_normalize_drops_duplicate(tmp_path):
    src = tmp_path / "dups.jsonl"
    record = {"id": "a", "text": "Sam had 3 pears and ate 1 pear."}
    with open(src, "w") as fh:
        fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps(record | {"id": "b"}) + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["normalize", "--in", str(src), "--out", str(out)]) == 0
    assert len(corpus.load_problems(out)) == 1


def test_folds_command(tmp_path, corpus_file):
    out = tmp_path / "folds.json"
    assert cli.main(["folds", "--in", str(corpus_file), "--out", str(out), "--k", "4", "--seed", "1"]) == 0
    obj = json.loads(out.read_text())
    ids = [pid for fold in obj["folds"] for pid in fold]
    assert len(ids) == len(set(ids)) == 120


def test_annotate_command(tmp_path, corpus_file, capsys):
    out = tmp_path / "derived.jsonl"
    assert cli.main(["annotate", "--in", str(corpus_file), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 120
    first = json.loads(lines[0])
    assert {"id", "rates", "edges", "noisy"} <= set(first)
    assert "noise rate" in capsys.readouterr().out


def test_train_and_solve_round_trip(tmp_path, corpus_file):
    model = tmp_path / "model.json"
    assert cli.main(["train", "--in", str(corpus_file), "--out", str(model), "--epochs", "5"]) == 0
    assert cli.main(["solve", "--model", str(model), "--text", "Sara had 11 shells. Tom gave Sara 5 more shells. How many shells does Sara have now?"]) == 0


def test_solve_fig1_value(model_file, capsys):
    code = cli.main([
        "solve", "--model", str(model_file), "--text", FIG1_TEXT,
        "--lambda-rel", "1", "--lambda-vertex", "1", "--lambda-edge", "1",
    ])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == "7"
    assert obj["tree"] == "(/ (- 66 10) 8)"


def test_solve_melanie_value(model_file, capsys):
    code = cli.main([
        "solve", "--model", str(model_file), "--text", MELANIE_TEXT,
        "--lambda-rel", "1", "--lambda-vertex", "1", "--lambda-edge", "1",
    ])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == "4"


def test_solve_reads_fractions_and_mixed_numbers(model_file, capsys):
    text = "Sam had 3 1/2 pies. He ate 1/2 of a pie. How many pies does Sam have now?"
    assert cli.main(["solve", "--model", str(model_file), "--text", text]) == 0
    obj = json.loads(capsys.readouterr().out)
    # two quantities, 7/2 and 1/2, so three graph vertices
    leaves = re.findall(r"\d[\d.]*", obj["tree"])
    assert leaves and set(leaves) <= {"3.5", "0.5"}
    assert all(j <= 2 for _, j, _ in obj["udg"]["edges"])


def test_solve_trace_lines(model_file, capsys):
    code = cli.main([
        "solve", "--model", str(model_file), "--text", FIG1_TEXT, "--trace", "3",
    ])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{") and l.endswith("}")]
    # one compact JSON object per trace line after the main report
    assert len([l for l in lines if '"breakdown"' in l and l.count("\n") == 0]) >= 3


def test_solve_no_numbers_is_data_error(model_file, capsys):
    code = cli.main(["solve", "--model", str(model_file), "--text", "Nothing to count here."])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_infinite_lambda_is_data_error(model_file, capsys):
    code = cli.main(["solve", "--model", str(model_file), "--text", FIG1_TEXT, "--lambda-edge", "inf"])
    assert code == 2
    captured = capsys.readouterr()
    assert "Infinity" not in captured.out
    assert "lambda_edge must be finite" in captured.err


def test_solve_malformed_model_is_data_error(tmp_path, model_file, corpus_file, capsys):
    no_lca = json.loads(model_file.read_text())
    del no_lca["lca"]
    for name, obj, key in (("empty.json", {}, "'vertex'"), ("no_lca.json", no_lca, "'lca'")):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        assert cli.main(["solve", "--model", str(path), "--text", FIG1_TEXT]) == 2
        err = capsys.readouterr().err
        assert name in err and f"missing key {key}" in err
    # a corpus given as the model is one JSON object per line, not one object
    assert cli.main(["solve", "--model", str(corpus_file), "--text", FIG1_TEXT]) == 2
    err = capsys.readouterr().err
    assert f"model {corpus_file}: not JSON: Extra data: line 2 column 1" in err


@pytest.mark.parametrize(
    "key, value",
    [("window", "3"), ("window", -1), ("window", True), ("context_features", 1), ("rule_features", "yes")],
)
def test_solve_bad_config_value_is_data_error(tmp_path, model_file, capsys, key, value):
    obj = json.loads(model_file.read_text())
    obj["config"][key] = value
    path = tmp_path / "bad_config.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["solve", "--model", str(path), "--text", FIG1_TEXT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad_config.json" in captured.err and f"{key} must be" in captured.err


@pytest.mark.parametrize(
    "part, edit, message",
    [
        ("edge", lambda m: m["weights"]["SameUnit"].update(pair_bias=1.5), "'pair_bias' must be an int, got 1.5"),
        ("edge", lambda m: m["weights"]["SameUnit"].update(pair_bias=True), "'pair_bias' must be an int, got True"),
        ("edge", lambda m: m["weights"]["SameUnit"].update(pair_bias="1"), "'pair_bias' must be an int, got '1'"),
        ("vertex", lambda m: m["weights"].update(Maybe={"bias": 1}), "names no label"),
        ("vertex", lambda m: m.update(denominator=0), "denominator must be an int >= 1, got 0"),
        ("vertex", lambda m: m.update(denominator=-3), "denominator must be an int >= 1, got -3"),
        ("relevance", lambda m: m.update(denominator=2.5), "denominator must be an int >= 1, got 2.5"),
        ("relevance", lambda m: m.update(denominator=True), "denominator must be an int >= 1, got True"),
        ("lca", lambda m: m.pop("denominator"), "KeyError('denominator')"),
        ("lca", lambda m: m.update(labels=m["labels"] + ["+"]), "duplicate labels"),
        ("relevance", lambda m: m.update(seed="0"), "seed must be an int"),
        ("edge", lambda m: m.update(labels=m["labels"][:-1], weights={}), "labels must be"),
    ],
)
def test_solve_bad_model_weights_is_data_error(tmp_path, model_file, capsys, part, edit, message):
    obj = json.loads(model_file.read_text())
    edit(obj[part])
    path = tmp_path / "bad_weights.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["solve", "--model", str(path), "--text", FIG1_TEXT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad_weights.json" in captured.err and f"bad {part!r}" in captured.err
    assert message in captured.err


@pytest.mark.parametrize("version", [3, 0, "2", 2.0, True, None])
def test_solve_unknown_model_format_is_data_error(tmp_path, model_file, capsys, version):
    obj = json.loads(model_file.read_text())
    obj["format"] = version
    path = tmp_path / "bad_format.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["solve", "--model", str(path), "--text", FIG1_TEXT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad_format.json: bad 'format': unknown model format" in captured.err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400", "true", "1" + "0" * 400, '"1.5"'])
def test_solve_non_finite_or_non_number_weight_is_data_error(tmp_path, model_file, capsys, literal):
    # a format-1 file, written as raw JSON text: 1e400 parses to inf, and
    # the 401-digit integer overflows a float
    obj = format_1(json.loads(model_file.read_text()))
    obj["lca"]["weights"]["+\x1flca_bias"] = "@weight@"
    path = tmp_path / "bad_weight.json"
    path.write_text(json.dumps(obj).replace('"@weight@"', literal))
    assert cli.main(["solve", "--model", str(path), "--text", FIG1_TEXT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad_weight.json" in captured.err and "bad 'lca'" in captured.err
    assert "must be a finite number" in captured.err


def test_solve_score_sum_past_the_largest_float_is_data_error(tmp_path, model_file, capsys):
    # each pair's edge score is finite, but a graph's edge sum is not
    obj = format_1(json.loads(model_file.read_text()))
    for label in obj["edge"]["labels"]:
        obj["edge"]["weights"][f"{label}\x1fpair_bias"] = 1.5e308
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["solve", "--model", str(path), "--text", FIG1_TEXT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too large" in captured.err


def test_solve_negative_trace_is_data_error(model_file, capsys):
    assert cli.main(["solve", "--model", str(model_file), "--text", FIG1_TEXT, "--trace", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--trace must be >= 0" in captured.err


@pytest.mark.parametrize("beam", ["0", "-3"])
def test_solve_beam_below_one_is_data_error(model_file, capsys, beam):
    assert cli.main(["solve", "--model", str(model_file), "--text", FIG1_TEXT, "--beam", beam]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "beam must be None or an int >= 1" in captured.err


@pytest.mark.parametrize("beam", ["0", "-3"])
def test_eval_beam_below_one_is_data_error(tmp_path, capsys, beam):
    data = tmp_path / "small.jsonl"
    corpus.save_problems(synth.gen_synthetic_corpus(seed=2, size=50)[:10], data)
    assert cli.main(["eval", "--in", str(data), "--beam", beam]) == 2
    captured = capsys.readouterr()
    assert "solve accuracy" not in captured.out
    assert "beam must be None or an int >= 1" in captured.err


def test_train_epochs_below_one_is_data_error(tmp_path, corpus_file, capsys):
    model = tmp_path / "model.json"
    assert cli.main(["train", "--in", str(corpus_file), "--out", str(model), "--epochs", "0"]) == 2
    assert not model.exists()
    assert "epochs must be an int >= 1" in capsys.readouterr().err


def test_eval_epochs_below_one_is_data_error(tmp_path, capsys):
    data = tmp_path / "small.jsonl"
    corpus.save_problems(synth.gen_synthetic_corpus(seed=2, size=50)[:10], data)
    assert cli.main(["eval", "--in", str(data), "--epochs", "-3"]) == 2
    captured = capsys.readouterr()
    assert "solve accuracy" not in captured.out
    assert "epochs must be an int >= 1" in captured.err


@pytest.mark.parametrize("flag", ["--lambda-vertex", "--lambda-edge"])
def test_eval_bad_fixed_scale_exits_before_training(monkeypatch, tmp_path, capsys, flag):
    data = tmp_path / "small.jsonl"
    corpus.save_problems(synth.gen_synthetic_corpus(seed=2, size=50)[:10], data)
    trained = []
    monkeypatch.setattr(learn, "train_suite", lambda *args, **kwargs: trained.append(1))
    assert cli.main(["eval", "--in", str(data), flag, "-1"]) == 2
    assert trained == []
    captured = capsys.readouterr()
    assert "solve accuracy" not in captured.out
    assert "must be finite and >= 0, got -1.0" in captured.err


def test_solve_too_many_quantities_exits_2(model_file):
    # more quantities than a tree may cover are refused up front, not searched;
    # 7 is the smallest refused n
    texts = {
        10: "A farm has 1 cow, 2 pigs, 3 hens, 4 ducks, 5 goats, 6 sheep, 7 cats, "
            "8 dogs, 9 geese and 10 horses. How many animals does the farm have?",
        7: "A farm has 1 cow, 2 pigs, 3 hens, 4 ducks, 5 goats, 6 sheep and 7 cats. "
           "How many animals does the farm have?",
    }
    src = str(Path(udgsolver.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for n, text in texts.items():
        done = subprocess.run(
            [sys.executable, "-m", "udgsolver.cli", "solve", "--model", str(model_file), "--text", text],
            capture_output=True, text=True, env=env, timeout=30,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert f"{n} leaves (max 6)" in done.stderr


def test_eval_refuses_wide_problems_before_training(tmp_path, capsys):
    # every problem is tested in some fold, so one more quantities than a
    # tree may cover is refused at once, not after a suite is trained
    wide = {
        "id": "wide", "answer": "28", "tree": "(+ (+ (+ (+ (+ (+ 1 2) 3) 4) 5) 6) 7)",
        "text": "A farm has 1 cow, 2 pigs, 3 hens, 4 ducks, 5 goats, 6 sheep and 7 cats. "
                "How many animals does the farm have?",
    }
    data = tmp_path / "wide.jsonl"
    corpus.save_problems(synth.gen_synthetic_corpus(seed=2, size=60), data)
    with open(data, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(wide) + "\n")
    start = time.perf_counter()
    assert cli.main(["eval", "--in", str(data)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "problem wide: refusing to solve over 7 quantities (max 6)" in captured.err


def test_format_1_model_and_its_format_2_rewrite_solve_alike(tmp_path, model_file, capsys):
    # the file float training wrote before weights were exact, and the
    # same suite saved again in format 2, give the same answers
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(format_1(json.loads(model_file.read_text()))))
    learn.ClassifierSuite.load(old).save(new)
    assert json.loads(new.read_text())["format"] == 2
    texts = [
        FIG1_TEXT,
        "A shop sold 12 pens on Monday and 7 pens on Tuesday. Each pen costs 3 dollars and 2 pens broke. "
        "How many dollars did the shop earn?",
        "A baker made 24 muffins and 18 cookies. She sold 9 muffins and 6 cookies, and each muffin costs "
        "2 dollars. How many dollars did she earn from the muffins?",
        "Sam had twenty-one apples and a dozen pears. He ate 3 1/2 apples. How many fruits are left?",
    ]
    for text in texts:
        answers = []
        for path in (model_file, old, new):
            assert cli.main(["solve", "--model", str(path), "--text", text]) == 0
            result = json.loads(capsys.readouterr().out)
            answers.append((result["value"], result["tree"], result["udg"]))
        assert answers[0] == answers[1] == answers[2]


def test_solve_reads_number_words_spelled_with_case_equated_letters(model_file):
    # "ſix" is "six" to the case-insensitive number-word pattern, so it is
    # rewritten to 6 and solved as "six" is, with no traceback
    src = str(Path(udgsolver.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    spelled = {c: "six".replace(letter, c) for c, letter in case_equated_letters().items() if letter in "six"}
    assert set(spelled) >= {"\u0130", "\u0131", "\u017f"}
    outputs = {}
    for word in ("six", *spelled.values()):
        text = f"Sam has {word} apples and 3 pears. How many fruits does Sam have?"
        done = subprocess.run(
            [sys.executable, "-m", "udgsolver.cli", "solve", "--model", str(model_file), "--text", text],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
        outputs[word] = done.stdout
    assert "6" in json.loads(outputs["six"])["tree"]
    assert all(out == outputs["six"] for out in outputs.values())


def test_usage_error_exit_code(capsys):
    assert cli.main(["solve"]) == 1  # missing required arguments
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_file_is_data_error(tmp_path, capsys):
    assert cli.main(["normalize", "--in", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 2


def test_malformed_record_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.jsonl"
    src.write_text('{"id": "a", "text": "3 cats"}\n{broken\n')
    assert cli.main(["normalize", "--in", str(src), "--out", str(tmp_path / "o")]) == 2
    assert "line 2" in capsys.readouterr().err


_GOOD = {"id": "a", "text": "Sam had 3 pears and ate 1 pear. How many pears are left?",
         "answer": "2", "tree": "(- 3 1)"}


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "record must be a JSON object, got list"),
    ('"a problem"', "record must be a JSON object, got str"),
    (json.dumps(_GOOD | {"id": [1]}), "problem [1]: id, text and tree must be strings"),
    (json.dumps(_GOOD | {"text": 7}), "problem a: id, text and tree must be strings"),
    (json.dumps(_GOOD | {"tree": 5}), "problem a: id, text and tree must be strings"),
    (json.dumps(_GOOD | {"tree": False}), "problem a: id, text and tree must be strings"),
    (json.dumps(_GOOD | {"rates": 5}), "problem a: rates must be a list"),
    (json.dumps(_GOOD | {"rates": "question"}), "problem a: rates must be a list"),
    (json.dumps(_GOOD | {"rates": [None]}), "problem a: rate None is not a quantity index"),
    (json.dumps(_GOOD | {"rates": [1.5]}), "problem a: rate 1.5 is not a quantity index"),
    (json.dumps(_GOOD | {"rates": [True]}), "problem a: rate True is not a quantity index"),
    (json.dumps(_GOOD | {"rates": [2]}), "problem a: rate index 2 out of range"),
    (json.dumps(_GOOD | {"answer": "1/0"}), "problem a: answer '1/0' is not a rational number"),
    (json.dumps(_GOOD | {"answer": "0/0"}), "problem a: answer '0/0' is not a rational number"),
    (json.dumps(_GOOD | {"answer": "-3/0"}), "problem a: answer '-3/0' is not a rational number"),
    (json.dumps({"id": "z", "text": "Joan had 44 cookies and 0 boxes. How many cookies per box?",
                 "tree": "(/ 44 0)", "answer": "1"}), "problem z: gold tree (/ 44 0) divides by zero"),
])
def test_malformed_record_shape_is_data_error(tmp_path, capsys, line, message):
    # every command that reads a corpus exits 2 with the line; an exception
    # escaping main (a traceback) fails the test
    src = tmp_path / "bad.jsonl"
    src.write_text(json.dumps(_GOOD) + "\n" + line + "\n")
    for command in ("normalize", "folds", "annotate", "train", "eval"):
        assert cli.main([command, "--in", str(src), "--out", str(tmp_path / "o")]) == 2
        assert f"{src}, line 2: {message}" in capsys.readouterr().err


def test_eval_command_small(tmp_path, capsys):
    data = tmp_path / "small.jsonl"
    problems = synth.gen_synthetic_corpus(seed=2, size=60)
    corpus.save_problems(problems, data)
    report_path = tmp_path / "report.json"
    code = cli.main([
        "eval", "--in", str(data), "--out", str(report_path),
        "--k", "2", "--epochs", "3", "--beam", "50",
        "--lambda-vertex", "1", "--lambda-edge", "1",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "solve accuracy" in out
    report = json.loads(report_path.read_text())
    assert report["aggregate"]["test_total"] == 60
    for fold in report["folds"]:
        assert fold["solve_correct"]["full"] <= fold["test_size"]


def test_eval_too_few_problems_is_data_error(tmp_path, capsys):
    data = tmp_path / "one.jsonl"
    data.write_text(json.dumps({
        "id": "only", "text": "Sam had 3 pears and ate 1 pear. How many pears are left?",
        "answer": "2", "tree": "(- 3 1)",
    }) + "\n")
    assert cli.main(["eval", "--in", str(data), "--k", "5"]) == 2
