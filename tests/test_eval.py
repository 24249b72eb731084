"""Evaluation helpers: network misclassification, network-vs-formula sign
agreement on snapped models, and report emission/reload."""

import json
import re

import numpy as np
import pytest

from stlinfer.datasets import LabeledDataset
from stlinfer.evaluate import emit_report, load_model, network_mcr, sign_agreement
from stlinfer.network import (
    ActivationParams,
    ModelParams,
    NetworkShape,
    network_output,
    soundness_bound_check,
)
from stlinfer.stl import Signal, mcr, robustness
from stlinfer.trainer import TrainConfig, extract_formula, train


def random_snapped_model(rng):
    dim = int(rng.integers(1, 4))
    length = int(rng.integers(3, 20))
    shape = NetworkShape.cycled(dim, m=int(rng.integers(1, 4)))
    M = (rng.uniform(0, 1, (shape.m, shape.k)) < 0.4).astype(np.float64)
    if not M.any():
        M[0, 0] = 1.0
    t1 = rng.integers(0, length, shape.k).astype(np.float64)
    t2 = np.array([float(rng.integers(int(a), length)) for a in t1])
    params = ModelParams(rng.uniform(-3, 3, shape.k), t1, t2, M)
    samples = [
        (Signal(rng.uniform(-4, 4, (length, dim))), int(rng.choice([-1, 1])))
        for _ in range(15)
    ]
    return params, shape, length, LabeledDataset(samples)


def test_snapped_network_matches_formula_mcr():
    rng = np.random.default_rng(7)
    p = ActivationParams(beta=25.0, slope=1.0)
    for _ in range(20):
        params, shape, length, data = random_snapped_model(rng)
        assert soundness_bound_check(p, max(length, shape.k, shape.m))
        formula = extract_formula(params, shape)
        assert network_mcr(params, shape, p, data) == mcr(data, formula)


def test_snapped_sign_agreement_is_total():
    rng = np.random.default_rng(8)
    p = ActivationParams(beta=25.0, slope=1.0)
    for _ in range(20):
        params, shape, length, data = random_snapped_model(rng)
        formula = extract_formula(params, shape)
        assert sign_agreement(params, shape, p, formula, data) == 1.0


def test_mixed_lengths_match_per_sample_evaluation():
    rng = np.random.default_rng(10)
    p = ActivationParams(beta=25.0, slope=1.0)
    params, shape, length, _ = random_snapped_model(rng)
    formula = extract_formula(params, shape)
    dim = shape.slots[-1].axis + 1
    samples = [
        (Signal(rng.uniform(-4, 4, (int(rng.integers(length, length + 4)), dim))), int(rng.choice([-1, 1])))
        for _ in range(30)
    ]
    outs = [network_output(s.values, params, shape, p) for s, _ in samples]
    wrong = sum((o > 0.0) != (y == 1) for o, (_, y) in zip(outs, samples))
    agree = sum((o > 0.0) == (robustness(s, formula) > 0.0) for o, (s, _) in zip(outs, samples))
    assert network_mcr(params, shape, p, samples) == wrong / len(samples)
    assert sign_agreement(params, shape, p, formula, samples) == agree / len(samples)


def test_eval_rejects_empty_datasets():
    rng = np.random.default_rng(9)
    params, shape, _, _ = random_snapped_model(rng)
    p = ActivationParams()
    with pytest.raises(ValueError, match="empty dataset"):
        network_mcr(params, shape, p, [])
    with pytest.raises(ValueError, match="empty dataset"):
        sign_agreement(params, shape, p, extract_formula(params, shape), [])


# ---------------------------------------------------------------------------
# report files


@pytest.fixture(scope="module")
def trained(tiny_driving_pair):
    cfg = TrainConfig(epochs=2, batch_size=10, lr=0.1, seed=0)
    return cfg, train(tiny_driving_pair, cfg)


def test_emit_report_writes_three_files(tmp_path, trained):
    cfg, report = trained
    paths = emit_report(report, tmp_path / "run")
    assert sorted(p.name for p in paths.values()) == [
        "curves.csv",
        "formula.txt",
        "report.json",
    ]
    lines = paths["curves"].read_text(encoding="utf-8").split("\n")
    assert lines[0] == "epoch,loss,mcr,seconds"
    assert len(lines) == cfg.epochs + 2 and lines[-1] == ""
    assert lines[1].startswith("0,")
    assert paths["formula"].read_text(encoding="utf-8") == report.simplified_text + "\n"


def test_report_json_is_byte_deterministic(tmp_path, trained, tiny_driving_pair):
    cfg, report = trained
    a = emit_report(report, tmp_path / "a")["report"].read_bytes()
    b = emit_report(report, tmp_path / "b")["report"].read_bytes()
    assert a == b
    # a fresh training run with the same config serializes identically too
    again = emit_report(train(tiny_driving_pair, cfg), tmp_path / "c")["report"].read_bytes()
    assert again == a


def test_load_model_round_trip(tmp_path, trained):
    _, report = trained
    paths = emit_report(report, tmp_path / "run")
    params, shape, p = load_model(paths["report"])
    assert np.array_equal(params.b, report.params.b)
    assert np.array_equal(params.t1, report.params.t1)
    assert np.array_equal(params.t2, report.params.t2)
    assert np.array_equal(params.M, report.params.M)
    assert shape == report.shape
    assert p == report.activation


def test_load_model_rejects_invalid_payload(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match="not a valid model report"):
        load_model(path)


@pytest.mark.parametrize(
    "group, name, value",
    [("params", "t1", float("nan")), ("params", "M", float("inf")), ("activation", "beta", float("nan"))],
)
def test_load_model_rejects_non_finite_values(tmp_path, trained, group, name, value):
    _, report = trained
    path = emit_report(report, tmp_path / "run")["report"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    if group == "activation":
        payload[group][name] = value
    elif name == "M":
        payload[group][name][0][0] = value
    else:
        payload[group][name][0] = value
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {group}.{name}: ")):
        load_model(path)
