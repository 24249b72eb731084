"""Evaluation helpers: network misclassification, network-vs-formula sign
agreement on snapped models, and report emission/reload."""

import json
import re

import numpy as np
import pytest

from stlinfer.evaluate import emit_report, load_model, network_mcr, sign_agreement
from stlinfer.network import (
    ActivationParams,
    ModelParams,
    NetworkShape,
    soundness_bound_check,
)
from stlinfer.stl import Signal, mcr, robustness
from stlinfer.trainer import TrainConfig, extract_formula, train
from util import dataset_from_samples


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
    return params, shape, length, dataset_from_samples(samples)


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


def test_eval_rejects_empty_datasets():
    rng = np.random.default_rng(9)
    params, shape, _, _ = random_snapped_model(rng)
    p = ActivationParams()
    empty = dataset_from_samples([])
    with pytest.raises(ValueError, match="empty dataset"):
        network_mcr(params, shape, p, empty)
    with pytest.raises(ValueError, match="empty dataset"):
        sign_agreement(params, shape, p, extract_formula(params, shape), empty)


def test_eval_refuses_windows_past_the_data():
    # checked before any network pass, for raw and snapped parameters
    rng = np.random.default_rng(10)
    params, shape, length, data = random_snapped_model(rng)
    p = ActivationParams()
    formula = extract_formula(params, shape)
    params.t2[1] = length - 1 + 0.25
    message = (
        f"slot 1: window end ceil(t2) = {length} lies past the last step {length - 1} "
        f"of data of length {length}"
    )
    for model in (params, params.snapped()):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            network_mcr(model, shape, p, data)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sign_agreement(model, shape, p, formula, data)
    params.t2[1] = length - 1
    assert 0.0 <= network_mcr(params, shape, p, data) <= 1.0


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


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(
            lambda d: d["params"].update(b=d["params"]["b"][:1]),
            "params.b: shape (1,) does not match the network shape's (8,)",
            id="params.b",
        ),
        pytest.param(lambda d: d["params"]["t1"].pop(), "params.t1: shape (7,)", id="params.t1"),
        pytest.param(lambda d: d["params"]["t2"].append(1.0), "params.t2: shape (9,)", id="params.t2"),
        pytest.param(
            lambda d: d["params"].update(M=[row[:1] for row in d["params"]["M"]]),
            "params.M: shape (2, 1)",
            id="params.M",
        ),
        pytest.param(
            lambda d: d["shape"].update(m=3),
            "params.M: shape (2, 8) does not match the network shape's (3, 8)",
            id="shape.m",
        ),
        pytest.param(
            lambda d: d["shape"]["slots"][0].__setitem__(1, 0),
            "slot sign must be +1 or -1, got 0",
            id="slot.sign",
        ),
        pytest.param(
            lambda d: d["shape"]["slots"][0].__setitem__(0, -1),
            "slot axis must be nonnegative, got -1",
            id="slot.axis",
        ),
        # int() would truncate these, and the model would load with another shape
        pytest.param(
            lambda d: d["shape"]["slots"][0].__setitem__(0, 0.9),
            "shape.slots[0]: axis must be an integer, got 0.9",
            id="slot.axis.fraction",
        ),
        pytest.param(
            lambda d: d["shape"]["slots"][1].__setitem__(1, -1.5),
            "shape.slots[1]: sign must be an integer, got -1.5",
            id="slot.sign.fraction",
        ),
        pytest.param(lambda d: d["shape"].update(m=2.5), "shape.m must be an integer, got 2.5", id="m.fraction"),
        pytest.param(lambda d: d["shape"].update(m=float("inf")), "shape.m must be an integer, got inf", id="m.inf"),
        pytest.param(lambda d: d["shape"].update(m="2"), "shape.m must be an integer, got '2'", id="m.text"),
        pytest.param(lambda d: d["shape"].update(m=True), "shape.m must be an integer, got True", id="m.bool"),
    ],
)
def test_load_model_refuses_parameters_that_disagree_with_the_shape(
    tmp_path, trained, edit, message
):
    _, report = trained
    assert (report.shape.k, report.shape.m) == (8, 2)
    path = emit_report(report, tmp_path / "run")["report"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        load_model(path)


def test_load_model_accepts_integral_floats_in_the_shape(tmp_path, trained):
    _, report = trained
    path = emit_report(report, tmp_path / "run")["report"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["shape"]["m"] = float(payload["shape"]["m"])
    payload["shape"]["slots"][0][:2] = [float(v) for v in payload["shape"]["slots"][0][:2]]
    path.write_text(json.dumps(payload), encoding="utf-8")
    _, shape, _ = load_model(path)
    assert shape == report.shape


@pytest.mark.parametrize(
    "j, t1, t2, window",
    [(0, 5.0, 4.0, "[5, 4]"), (3, -4.0, None, "[-4, "), (1, 0.0, -1.0, "[0, -1]")],
    ids=["t1>t2", "t1<0", "t2<0"],
)
def test_load_model_refuses_windows_outside_order(tmp_path, trained, j, t1, t2, window):
    _, report = trained
    path = emit_report(report, tmp_path / "run")["report"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["params"]["t1"][j] = t1
    if t2 is not None:
        payload["params"]["t2"][j] = t2
    path.write_text(json.dumps(payload), encoding="utf-8")
    message = f"{path}: params.t1[{j}]: window {window}"
    with pytest.raises(ValueError, match=re.escape(message) + ".*must satisfy 0 <= t1 <= t2"):
        load_model(path)


def test_load_model_accepts_point_windows(tmp_path, trained):
    _, report = trained
    path = emit_report(report, tmp_path / "run")["report"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["params"]["t1"][0] = payload["params"]["t2"][0] = 0.0
    payload["params"]["t1"][1] = payload["params"]["t2"][1] = 2.5
    path.write_text(json.dumps(payload), encoding="utf-8")
    params, _, _ = load_model(path)
    assert params.t1[:2].tolist() == params.t2[:2].tolist() == [0.0, 2.5]
