"""End-to-end CLI tests run main() in process and assert on exit codes,
printed lines, and the files left behind."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stlinfer
from stlinfer.cli import main
from stlinfer.datasets import LabeledDataset, gen_naval, load_csv, save_csv


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """One generated pair CSV plus one finished training run."""
    root = tmp_path_factory.mktemp("cli")
    csv = root / "pair.csv"
    rc = main([
        "generate", "--scenario", "driving", "--behaviors", "GoForward,Overtake",
        "--count", "15", "--out", str(csv),
    ])
    assert rc == 0
    cfg = root / "train.cfg"
    cfg.write_text("epochs = 2\nbatch_size = 10\nlr = 0.1\n", encoding="utf-8")
    run = root / "run"
    rc = main(["train", "--data", str(csv), "--config", str(cfg), "--out", str(run)])
    assert rc == 0
    return csv, cfg, run


# ---------------------------------------------------------------------------
# generate


def test_generate_pair_csv(cli_env, capsys):
    csv, _, _ = cli_env
    data = load_csv(csv)
    assert len(data) == 30
    labels = data.y
    assert (labels == 1).sum() == 15 and (labels == -1).sum() == 15


def test_generate_single_behavior(tmp_path, capsys):
    out = tmp_path / "sg.csv"
    rc = main([
        "generate", "--scenario", "driving", "--behaviors", "StopAndGo",
        "--count", "5", "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 5 samples" in capsys.readouterr().out
    data = load_csv(out)
    assert data.y.tolist() == [1] * 5
    assert data.length == 40


def test_generate_naval_counts_per_class(tmp_path, capsys):
    out = tmp_path / "naval.csv"
    rc = main(["generate", "--scenario", "naval", "--count", "10", "--out", str(out)])
    assert rc == 0
    assert "wrote 20 samples" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").split("\n", 1)[0] == "label,2,61"


@pytest.mark.parametrize("flag, value", [("--behaviors", "Overtake"), ("--length", "7")])
def test_generate_naval_refuses_driving_flags(tmp_path, capsys, flag, value):
    out = tmp_path / "naval.csv"
    rc = main(["generate", "--scenario", "naval", flag, value, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {flag} applies to the driving scenario only\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario, count",
    [
        (["--scenario", "naval"], "0"),
        (["--scenario", "naval"], "-3"),
        (["--scenario", "driving", "--behaviors", "GoForward,StopAndGo"], "0"),
    ],
)
def test_generate_refuses_a_count_below_one(tmp_path, capsys, scenario, count):
    out = tmp_path / "x.csv"
    rc = main(["generate", *scenario, "--count", count, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --count is samples per class and must be at least 1, got {count}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("behaviors", ["GoForward,GoForward", "GoForward,goforward"])
def test_generate_refuses_one_behavior_twice(tmp_path, capsys, behaviors):
    # the two classes of such a pair would be the same trajectories
    out = tmp_path / "x.csv"
    rc = main([
        "generate", "--scenario", "driving", "--behaviors", behaviors,
        "--count", "2", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: --behaviors names GoForward twice; a pair needs two behaviors\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "scenario",
    [
        ["--scenario", "naval"],
        ["--scenario", "driving", "--behaviors", "StopAndGo"],
        ["--scenario", "driving", "--behaviors", "GoForward,StopAndGo"],
    ],
)
def test_generate_names_a_negative_seed(tmp_path, capsys, scenario):
    out = tmp_path / "x.csv"
    rc = main(["generate", *scenario, "--count", "2", "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_generate_driving_needs_behaviors(tmp_path, capsys):
    rc = main(["generate", "--scenario", "driving", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: driving scenario needs --behaviors")


@pytest.mark.parametrize("behaviors", ["GoForward,", ",StopAndGo", "GoForward,,StopAndGo", " "])
def test_generate_refuses_an_empty_behavior_name(tmp_path, capsys, behaviors):
    # a trailing comma once wrote a single-class set with exit 0
    out = tmp_path / "x.csv"
    rc = main([
        "generate", "--scenario", "driving", "--behaviors", behaviors,
        "--count", "1", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"error: --behaviors has an empty name in '{behaviors}'\n"
    assert not out.exists()


def test_generate_rejects_three_behaviors(tmp_path, capsys):
    rc = main([
        "generate", "--scenario", "driving", "--behaviors", "GoForward,Overtake,SwitchLane",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_prints_formulas_and_writes_reports(cli_env, tmp_path, capsys):
    csv, cfg, _ = cli_env
    out = tmp_path / "run2"
    rc = main(["train", "--data", str(csv), "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "formula: " in stdout
    assert "simplified: " in stdout
    assert "final train mcr (network sign): " in stdout
    assert "report written to " in stdout
    for name in ("report.json", "curves.csv", "formula.txt"):
        assert (out / name).is_file()


def test_train_seed_override_lands_in_report(cli_env, tmp_path):
    csv, cfg, _ = cli_env
    out = tmp_path / "run5"
    rc = main(["train", "--data", str(csv), "--config", str(cfg),
               "--seed", "5", "--epochs", "1", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert payload["config"]["seed"] == 5
    assert payload["config"]["epochs"] == 1


def test_train_refuses_unsound_activation(cli_env, tmp_path, capsys):
    csv, _, _ = cli_env
    cfg = tmp_path / "unsound.cfg"
    cfg.write_text("epochs = 1\nbatch_size = 10\nbeta = 0.001\n", encoding="utf-8")
    rc = main(["train", "--data", str(csv), "--config", str(cfg),
               "--out", str(tmp_path / "r")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "sign-soundness" in err

    rc = main(["train", "--data", str(csv), "--config", str(cfg),
               "--allow-unsound", "--out", str(tmp_path / "r2")])
    assert rc == 0


def test_train_names_a_negative_seed(cli_env, tmp_path, capsys):
    csv, cfg, _ = cli_env
    rc = main(["train", "--data", str(csv), "--config", str(cfg),
               "--seed", "-1", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_train_refuses_an_out_path_that_is_a_file(cli_env, tmp_path, capsys, monkeypatch):
    # refused before the data is read or a step is trained
    csv, cfg, _ = cli_env
    out = tmp_path / "a.csv"
    out.write_bytes(b"kept\n")

    def refuse(*args, **kwargs):
        raise AssertionError("trained despite a file at --out")

    monkeypatch.setattr(stlinfer.cli, "train", refuse)
    for data in (csv, tmp_path / "nope.csv"):
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: --out {out} is a file, not a directory\n")
        # a directory under the file could not be made either
        rc = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out / "run")])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: --out {out / 'run'}: {out} is a file, not a directory\n")
    assert out.read_bytes() == b"kept\n"


def test_train_names_a_config_that_is_not_utf8(cli_env, tmp_path, capsys):
    csv, _, _ = cli_env
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"# r\xe9glages\nepochs = 1\n")
    rc = main(["train", "--data", str(csv), "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:1: not UTF-8 text (byte 0xe9)\n")


def test_train_missing_data_file(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "r")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# eval


def test_eval_formula_text(cli_env, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv), "--formula", "G[0,39](x0 > -1.97)"])
    assert rc == 0
    assert "formula_mcr=0.0" in capsys.readouterr().out
    # text longer than a file name may be is still formula text
    rc = main(["eval", "--data", str(csv), "--formula", " | ".join(["(G[0,39](x0 > -1.97))"] * 20)])
    assert rc == 0
    assert capsys.readouterr() == ("formula_mcr=0.0\n", "")


def test_eval_formula_from_file(cli_env, tmp_path, capsys):
    csv, _, _ = cli_env
    path = tmp_path / "formula.txt"
    path.write_text("G[0,39](x0 > -1.97)\n", encoding="utf-8")
    rc = main(["eval", "--data", str(csv), "--formula", str(path)])
    assert rc == 0
    assert "formula_mcr=0.0" in capsys.readouterr().out


def test_eval_model_and_agreement(cli_env, capsys):
    csv, _, run = cli_env
    model = run / "report.json"
    formula = (run / "formula.txt").read_text(encoding="utf-8").strip()
    rc = main(["eval", "--data", str(csv), "--model", str(model)])
    assert rc == 0
    assert "network_mcr=" in capsys.readouterr().out
    rc = main(["eval", "--data", str(csv), "--model", str(model), "--formula", formula])
    assert rc == 0
    out = capsys.readouterr().out
    assert "formula_mcr=" in out and "network_mcr=" in out and "sign_agreement=" in out
    assert out.endswith("extracted_sign_agreement=1.0\n")


def write_model(path, slots, b, t1, t2, M, slope=1.0, beta=25.0):
    """A report.json holding only what load_model reads."""
    payload = {
        "shape": {"m": len(M), "slots": slots},
        "activation": {"beta": beta, "h": 1.0, "eps": 1e-8, "slope": slope},
        "params": {"b": b, "t1": t1, "t2": t2, "M": M},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")


def write_data(path, X, y):
    save_csv(LabeledDataset(np.asarray(X, dtype=np.float64), np.asarray(y)), path)


def test_eval_reports_the_user_formula_and_the_extracted_pair(tmp_path, capsys):
    # extracted: (F[0,3](x0 > 0)) | (G[0,3](x0 < 0)); the user formula
    # keeps only the first clause, which an all-negative signal fails
    model, csv = tmp_path / "report.json", tmp_path / "data.csv"
    write_model(model, [[0, 1, "F"], [0, -1, "G"]], [0.0, 0.0], [0.0, 0.0], [3.0, 3.0],
                [[1.0, 0.0], [0.0, 1.0]])
    write_data(csv, [np.full((4, 1), -1.0), np.full((4, 1), 1.0)], [1, 1])
    rc = main(["eval", "--data", str(csv), "--model", str(model), "--formula", "F[0,3](x0 > 0)"])
    assert rc == 0
    assert capsys.readouterr().out.split() == [
        "formula_mcr=0.5",
        "network_mcr=0.0",
        "sign_agreement=0.5",
        "extracted_sign_agreement=1.0",
    ]


def test_eval_fails_when_the_extracted_pair_disagrees(tmp_path, capsys):
    # test_network.py::test_wide_slope_breaks_sign_agreement as a report:
    # slope 2.5 lets the network read x[3], which F[4,8](x0 > 0) never reads
    model, csv = tmp_path / "report.json", tmp_path / "data.csv"
    write_model(model, [[0, 1, "F"]], [0.0], [4.0], [8.0], [[1.0]], slope=2.5)
    x = np.full((12, 1), -1.0)
    x[3] = 5.0
    write_data(csv, [x], [-1])
    rc = main(["eval", "--data", str(csv), "--model", str(model)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.split() == ["network_mcr=1.0", "extracted_sign_agreement=0.0"]
    assert captured.err == "error: the snapped network and its extracted formula disagree in sign\n"


def test_eval_fails_when_a_precondition_of_the_guarantee_fails(tmp_path, capsys):
    # constant signals agree in sign whatever the activation, so only the
    # precondition that makes agreement a guarantee on other data can fail
    model, csv = tmp_path / "report.json", tmp_path / "data.csv"
    write_data(csv, [np.full((12, 1), -1.0), np.full((12, 1), 1.0)], [-1, 1])
    write_model(model, [[0, 1, "F"]], [0.0], [4.0], [8.0], [[1.0]], slope=1.5)
    rc = main(["eval", "--data", str(csv), "--model", str(model)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.split() == ["network_mcr=0.0", "extracted_sign_agreement=1.0"]
    assert captured.err.startswith("error: slope = 1.5 exceeds 1: the trained network's windows")
    # beta 0.5 is sound up to length 3 only
    write_model(model, [[0, 1, "F"]], [0.0], [4.0], [8.0], [[1.0]], beta=0.5)
    rc = main(["eval", "--data", str(csv), "--model", str(model)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out.split() == ["network_mcr=0.0", "extracted_sign_agreement=1.0"]
    assert captured.err.startswith("error: activation parameters fail the sign-soundness bound: ")
    assert "l=12)" in captured.err


def test_eval_names_a_data_file_that_is_not_utf8(tmp_path, capsys):
    csv = tmp_path / "latin.csv"
    csv.write_bytes(b"label,1,4\n1,0,1,2,3\n-1,0,0,0,0 caf\xe9\n")
    rc = main(["eval", "--data", str(csv), "--formula", "F[0,3](x0 > 1)"])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {csv}:3: not UTF-8 text (byte 0xe9)\n")


def test_eval_names_an_axis_beyond_the_data(cli_env, tmp_path, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv), "--formula", "G[0,3](x5 > 0)"])
    assert rc == 1
    assert capsys.readouterr().err == "error: x5 > 0 reads axis 5, but the data has dim 2\n"
    rc = main(["eval", "--data", str(csv), "--formula", "G[0,3](x5 > 0 & x1 < 2)"])
    assert rc == 1
    assert capsys.readouterr().err == "error: x5 > 0 reads axis 5, but the data has dim 2\n"
    model = tmp_path / "report.json"
    write_model(model, [[0, 1, "G"], [5, 1, "F"]], [0.0, 0.0], [0.0, 0.0], [3.0, 3.0], [[1.0, 1.0]])
    rc = main(["eval", "--data", str(csv), "--model", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == "error: slot 1 reads axis 5, but the data has dim 2\n"


def test_eval_refuses_a_window_past_the_data_before_printing(tmp_path, capsys):
    # slot 1's window ends at ceil(5.5) = 6, past the last step of length-4
    # data: the network would pool a truncated window, so no score is printed
    model, csv = tmp_path / "report.json", tmp_path / "data.csv"
    write_model(model, [[0, 1, "G"], [0, -1, "F"]], [0.0, 0.0], [0.0, 1.0], [3.0, 5.5], [[1.0, 1.0]])
    write_data(csv, [np.full((4, 1), -1.0), np.full((4, 1), 1.0)], [1, -1])
    rc = main(["eval", "--data", str(csv), "--model", str(model)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: slot 1: window end ceil(t2) = 6 lies past the last step 3 of data of length 4\n"
    )


def test_eval_of_overflowing_data_prints_only_the_error(tmp_path):
    # naval tracks times 1e300 overflow the benchmark fixture's network;
    # in a process of its own, where numpy warnings print, the one line on
    # stderr is the error naming the sample
    data = gen_naval(20, seed=3)
    csv = tmp_path / "huge.csv"
    save_csv(LabeledDataset(data.X * 1e300, data.y), csv)
    model = Path(__file__).resolve().parents[1] / "perfbench" / "fixture" / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(stlinfer.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "stlinfer", "eval", "--data", str(csv), "--model", str(model)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (1, "error: non-finite network output of sample 0\n")


def test_eval_needs_formula_or_model(cli_env, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv)])
    assert rc == 1
    assert "eval needs --formula and/or --model" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--formula", "--model"])
@pytest.mark.parametrize("value", ["", "  "])
def test_eval_refuses_an_empty_formula_or_model(cli_env, capsys, flag, value):
    # refused before anything is read, also next to a valid other flag
    csv, _, run = cli_env
    other = {
        "--formula": ["--model", str(run / "report.json")],
        "--model": ["--formula", "F[0,3](x0 > 0)"],
    }
    for extra in ([], other[flag]):
        rc = main(["eval", "--data", str(csv), flag, value, *extra])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {flag} is empty\n")


def test_eval_names_the_formula_file_at_fault(cli_env, tmp_path, capsys):
    csv, _, _ = cli_env
    path = tmp_path / "bad.txt"
    path.write_text("G[0,3](x0 > )\n", encoding="utf-8")
    rc = main(["eval", "--data", str(csv), "--formula", str(path)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {path}: expected a number at position 12\n")
    rc = main(["eval", "--data", str(csv), "--formula", "G[0,3](x0 > )"])
    assert rc == 1
    assert capsys.readouterr() == ("", "error: expected a number at position 12\n")
    path.write_text(" \n\n", encoding="utf-8")
    rc = main(["eval", "--data", str(csv), "--formula", str(path)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {path}: formula file is empty\n")
    path.write_bytes(b"G[0,3](x0 > \xff)\n")
    rc = main(["eval", "--data", str(csv), "--formula", str(path)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {path}:1: not UTF-8 text (byte 0xff)\n")


@pytest.mark.parametrize("blank", ["", " "])
def test_eval_names_a_mistyped_formula_path(cli_env, tmp_path, capsys, monkeypatch, blank):
    csv, _, _ = cli_env
    missing = f"{blank}{tmp_path / 'runs' / 'formul.txt'}"
    rc = main(["eval", "--data", str(csv), "--formula", missing])
    assert rc == 1
    assert capsys.readouterr() == (
        "",
        f"error: --formula {missing}: no such file, and not a formula: expected a "
        f"predicate, temporal operator, '!' or '(' at position {len(blank)}\n",
    )
    # relative paths that parse as far as a predicate's comparison
    monkeypatch.chdir(tmp_path)
    for missing in (f"{blank}x0.txt", f"{blank}x1_model/formula.txt"):
        rc = main(["eval", "--data", str(csv), "--formula", missing])
        assert rc == 1
        assert capsys.readouterr() == (
            "",
            f"error: --formula {missing}: no such file, and not a formula: expected '<' or '>' "
            f"at position {len(blank) + 2}\n",
        )


def test_eval_refuses_a_formula_directory(cli_env, tmp_path, capsys):
    csv, _, run = cli_env
    for directory in (run, tmp_path):
        rc = main(["eval", "--data", str(csv), "--formula", str(directory)])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: --formula {directory} is a directory, not a formula file\n")


@pytest.mark.parametrize("content", [b"not json\n", b"", b"\xff\xfe{}"])
def test_eval_names_a_model_file_that_is_not_json(cli_env, tmp_path, capsys, content):
    csv, _, _ = cli_env
    path = tmp_path / "notjson.txt"
    path.write_bytes(content)
    rc = main(["eval", "--data", str(csv), "--model", str(path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    if content.startswith(b"\xff"):
        assert err == f"error: {path}:1: not UTF-8 text (byte 0xff)\n"
    else:
        assert err.startswith(f"error: {path}: not a valid model report: ")


@pytest.mark.parametrize("flag", ["--config", "--data", "--formula", "--model"])
def test_every_input_file_may_start_with_a_byte_order_mark_and_names_a_bad_line(
    cli_env, tmp_path, capsys, flag
):
    csv, cfg, run = cli_env
    formula = tmp_path / "formula.txt"
    formula.write_text("G[0,39](x0 > -1.97)\n", encoding="utf-8")
    source = {"--config": cfg, "--data": csv, "--formula": formula, "--model": run / "report.json"}[flag]
    command = {
        "--config": ["train", "--data", str(csv), "--out", str(tmp_path / "run")],
        "--data": ["eval", "--formula", str(formula)],
        "--formula": ["eval", "--data", str(csv)],
        "--model": ["eval", "--data", str(csv)],
    }[flag]
    text = source.read_bytes()
    path = tmp_path / "input"
    seen = []
    for content in (text, b"\xef\xbb\xbf" + text):
        path.write_bytes(content)
        rc = main([*command, flag, str(path)])
        seen.append((rc, capsys.readouterr()))
    assert seen[0] == seen[1] and seen[0][0] == 0 and seen[0][1].err == ""
    head, _, tail = text.partition(b"\n")
    path.write_bytes(head + b"\n\xe9" + tail)
    rc = main([*command, flag, str(path)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {path}:2: not UTF-8 text (byte 0xe9)\n")


def test_eval_bad_formula_text(cli_env, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv), "--formula", "G[2,1](x0 > 0)"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_names_the_position_of_an_overflowing_constant(cli_env, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv), "--formula", "G[0,99](x0 > 1e999)"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: predicate offset must be finite, got inf at position 13\n"


# ---------------------------------------------------------------------------
# check-soundness


def test_check_soundness_verdicts(capsys):
    rc = main(["check-soundness", "--beta", "10", "--h", "1", "--length", "40"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("sound: ")

    rc = main(["check-soundness", "--beta", "0.001", "--h", "1", "--length", "1000"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("unsound: ")

    rc = main(["check-soundness", "--length", "1"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("sound: ")


def test_check_soundness_rejects_bad_length(capsys):
    rc = main(["check-soundness", "--length", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--beta", "-1", "--length", "40"], "beta must be positive, got -1.0"),
        (["--h", "0", "--length", "40"], "h must be positive, got 0.0"),
        (["--length", "0"], "length must be at least 1, got 0"),
    ],
)
def test_check_soundness_names_the_value_at_fault(capsys, args, message):
    rc = main(["check-soundness", *args])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# argparse plumbing


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(stlinfer.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "stlinfer", "check-soundness", "--length", "40"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("sound: ")
    done = subprocess.run(
        [sys.executable, "-m", "stlinfer", "check-soundness", "--length", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 1 and done.stderr.startswith("error:")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["bogus"])
    assert ei.value.code == 2


def test_missing_required_argument_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["generate", "--scenario", "driving"])
    assert ei.value.code == 2
