"""End-to-end CLI tests run main() in process and assert on exit codes,
printed lines, and the files left behind."""

import json

import numpy as np
import pytest

from stlinfer.cli import main
from stlinfer.datasets import LabeledDataset, load_csv, save_csv


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
    labels = data.labels()
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
    assert data.labels().tolist() == [1] * 5


def test_generate_naval_counts_per_class(tmp_path, capsys):
    out = tmp_path / "naval.csv"
    rc = main(["generate", "--scenario", "naval", "--count", "10", "--out", str(out)])
    assert rc == 0
    assert "wrote 20 samples" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").split("\n", 1)[0] == "label,2,61"


def test_generate_driving_needs_behaviors(tmp_path, capsys):
    rc = main(["generate", "--scenario", "driving", "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: driving scenario needs --behaviors")


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


def test_eval_names_an_axis_beyond_the_data(cli_env, tmp_path, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv), "--formula", "G[0,3](x5 > 0)"])
    assert rc == 1
    assert capsys.readouterr().err == "error: G[0,3](x5 > 0) reads axis 5, but the data has dim 2\n"
    # a tree that is no DNF is evaluated per signal, and names the predicate
    rc = main(["eval", "--data", str(csv), "--formula", "G[0,3](x5 > 0 & x1 < 2)"])
    assert rc == 1
    assert capsys.readouterr().err == "error: x5 > 0 reads axis 5, but the data has dim 2\n"
    model = tmp_path / "report.json"
    write_model(model, [[0, 1, "G"], [5, 1, "F"]], [0.0, 0.0], [0.0, 0.0], [3.0, 3.0], [[1.0, 1.0]])
    rc = main(["eval", "--data", str(csv), "--model", str(model)])
    assert rc == 1
    assert capsys.readouterr().err == "error: slot 1 reads axis 5, but the data has dim 2\n"


def test_eval_needs_formula_or_model(cli_env, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv)])
    assert rc == 1
    assert "eval needs --formula and/or --model" in capsys.readouterr().err


def test_eval_bad_formula_text(cli_env, capsys):
    csv, _, _ = cli_env
    rc = main(["eval", "--data", str(csv), "--formula", "G[2,1](x0 > 0)"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


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


# ---------------------------------------------------------------------------
# argparse plumbing


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["bogus"])
    assert ei.value.code == 2


def test_missing_required_argument_exits_two():
    with pytest.raises(SystemExit) as ei:
        main(["generate", "--scenario", "driving"])
    assert ei.value.code == 2
