"""Evaluation helpers: network misclassification, network-vs-formula sign
agreement on snapped models, and report emission/reload."""

import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stlinfer import evaluate
from stlinfer.cli import main
from stlinfer.datasets import DrivingBehavior, LabeledDataset, gen_driving_pair, gen_naval, save_csv
from stlinfer.evaluate import emit_report, load_model, network_mcr, sign_agreement
from stlinfer.network import (
    ActivationParams,
    ModelParams,
    NetworkShape,
    NonFiniteError,
    network_outputs,
    soundness_bound_check,
)
from stlinfer.stl import Signal, mcr, robustness, satisfied
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
    if group == "activation":
        # ActivationParams names the field, as for a value that is not positive
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: not a valid model report: {name} must be finite, got nan"
        return
    with pytest.raises(ValueError, match=re.escape(f"{path}: {group}.{name}: ")):
        load_model(path)


def test_load_model_names_an_activation_field_that_is_not_positive(tmp_path, trained):
    _, report = trained
    path = emit_report(report, tmp_path / "run")["report"]
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["activation"]["eps"] = -1.0
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: not a valid model report: eps must be positive, got -1.0"


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


# ---------------------------------------------------------------------------
# the network's sign vector, kept on the dataset


@pytest.fixture
def passes(monkeypatch):
    """Count the network passes evaluate runs."""
    calls = []

    def counted(*args):
        calls.append(args)
        return network_outputs(*args)

    monkeypatch.setattr(evaluate, "network_outputs", counted)
    return calls


def uncached_signs(params, shape, p, data):
    """The reference for the kept vector: a fresh pass on every call."""
    evaluate._check_windows(params, data)
    return evaluate.network_outputs(data.X, params, shape, p) > 0.0


def test_kept_signs_equal_a_fresh_pass(passes):
    rng = np.random.default_rng(11)
    p = ActivationParams(beta=25.0, slope=1.0)
    for _ in range(10):
        params, shape, _, data = random_snapped_model(rng)
        params.b[:] += rng.uniform(-0.5, 0.5, shape.k)
        formula = extract_formula(params.snapped(), shape)
        fresh = network_outputs(data.X, params, shape, p) > 0.0
        del passes[:]
        assert network_mcr(params, shape, p, data) == np.mean(fresh != (data.y == 1))
        assert sign_agreement(params, shape, p, formula, data) == np.mean(
            fresh == satisfied(data.X, formula)
        )
        kept = evaluate._network_signs(params, shape, p, data)
        assert len(passes) == 1
        assert kept.dtype == bool and np.array_equal(kept, fresh)
        assert not kept.flags.writeable


def test_signs_are_recomputed_when_the_signals_or_the_model_change(passes):
    rng = np.random.default_rng(12)
    params, shape, _, data = random_snapped_model(rng)
    p = ActivationParams(beta=25.0, slope=1.0)

    def check(expect_passes, *model):
        model = model or (params, shape, p)
        signs = evaluate._network_signs(*model, data)
        assert len(passes) == expect_passes
        assert np.array_equal(signs, network_outputs(data.X, *model) > 0.0)

    check(1)
    check(1)
    # the signals cannot change: in place or by rebinding
    with pytest.raises(ValueError, match="read-only"):
        data.X[3, 0, 0] += 1.0
    with pytest.raises(AttributeError):
        data.X = data.X + 0.25
    check(1)
    params.b[0] += 0.5
    check(2)
    params.M[0, 0] = 1.0 - params.M[0, 0]
    check(3)
    check(4, params, shape, ActivationParams(beta=20.0, slope=1.0))
    flipped = NetworkShape(
        slots=tuple(replace(s, sign=-s.sign) for s in shape.slots), m=shape.m
    )
    check(5, params, flipped, p)
    check(6)


def test_equal_datasets_keep_their_own_signs(passes):
    rng = np.random.default_rng(13)
    params, shape, _, data = random_snapped_model(rng)
    p = ActivationParams()
    twin = LabeledDataset(data.X.copy(), data.y.copy())
    first = evaluate._network_signs(params, shape, p, data)
    second = evaluate._network_signs(params, shape, p, twin)
    assert len(passes) == 2
    assert second is not first and np.array_equal(first, second)
    assert twin._signs is not data._signs


def test_a_failed_pass_is_not_kept(passes):
    rng = np.random.default_rng(14)
    params, shape, _, data = random_snapped_model(rng)
    p = ActivationParams()
    network_mcr(params, shape, p, data)
    params.b[0] = np.nan
    for calls in (2, 3):
        with pytest.raises(NonFiniteError, match=r"parameter b\[0\]$"):
            network_mcr(params, shape, p, data)
        assert len(passes) == calls
    params.b[0] = 0.0
    params.t2[0] = data.length - 1 + 0.5
    for _ in range(2):
        with pytest.raises(ValueError, match="lies past the last step"):
            sign_agreement(params, shape, p, extract_formula(params.snapped(), shape), data)
    assert len(passes) == 3


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def config_models(tmp_path_factory):
    """The three config models, trained on seed-0 data as the config files
    describe, with their data CSVs and report directories."""
    root = tmp_path_factory.mktemp("configs")
    go = DrivingBehavior.GO_FORWARD
    datasets = {
        "overtake": gen_driving_pair(go, DrivingBehavior.OVERTAKE, 500, seed=0),
        "stopgo": gen_driving_pair(go, DrivingBehavior.STOP_AND_GO, 500, seed=0),
        "naval": gen_naval(1000, seed=0),
    }
    runs = {}
    for name, data in datasets.items():
        csv = root / f"{name}.csv"
        save_csv(data, csv)
        report = train(data, TrainConfig.from_file(CONFIGS / f"{name}.cfg"))
        runs[name] = (csv, emit_report(report, root / name))
    return runs


@pytest.mark.parametrize("name", ["overtake", "stopgo", "naval"])
def test_eval_runs_the_network_once_per_model(config_models, name, passes, capsys, monkeypatch):
    csv, paths = config_models[name]
    argv = ["eval", "--data", str(csv), "--model", str(paths["report"])]
    argv += ["--formula", str(paths["formula"])]
    rc = main(argv)
    kept = capsys.readouterr()
    # once for the trained parameters, once for the snapped ones
    assert len(passes) == 2
    assert not np.array_equal(passes[0][1].flat, passes[1][1].flat)
    monkeypatch.setattr(evaluate, "_network_signs", uncached_signs)
    assert main(argv) == rc
    fresh = capsys.readouterr()
    assert len(passes) == 5
    assert (kept.out, kept.err) == (fresh.out, fresh.err)
    assert kept.out.endswith("extracted_sign_agreement=1.0\n")
