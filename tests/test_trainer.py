"""Trainer tests: the batch loss and its gradient, projection, extraction and pruning rules on
hand-built parameter matrices, plus the training-loop contracts
(determinism, validation, divergence abort, config parsing)."""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stlinfer.datasets import LabeledDataset
from stlinfer.network import (
    ActivationParams,
    EmptyFormulaError,
    ModelParams,
    NetworkShape,
    network_output,
)
from stlinfer.stl import Signal, count_atoms, dnf_clauses, format_formula, mcr, parse_formula
from stlinfer.trainer import (
    DivergenceError,
    TrainConfig,
    UnsoundConfigError,
    _batch_gradients,
    extract_formula,
    formula_from_gates,
    init_params,
    project_params,
    simplify,
    train,
)
from test_acceptance import DRIVING_SETUPS, NAVAL_CONFIG
from util import simplify_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def const_set(values_and_labels, length=3):
    samples = [
        (Signal(np.full((length, 1), float(v))), label) for v, label in values_and_labels
    ]
    return LabeledDataset.from_samples(samples)


# ---------------------------------------------------------------------------
# batch loss


def test_batch_loss_gradient_matches_central_differences():
    # the mean loss exp(-y * out) over batches of 1 to 40 samples, with up
    # to three gate rows of which some are dead: dout and the sums of
    # per-sample gradients into each parameter group
    rng = np.random.default_rng(9)
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        length = int(rng.integers(6, 15))
        shape = NetworkShape.cycled(dim, m=int(rng.integers(1, 4)))
        a = rng.integers(0, length - 2, shape.k)
        t1 = a + rng.uniform(0.25, 0.75, shape.k)
        t2 = np.array([rng.integers(int(x) + 1, length - 1) for x in a]) + rng.uniform(0.25, 0.75, shape.k)
        M = np.where(rng.random((shape.m, shape.k)) < 0.5, 0.1, 0.9)
        if shape.m > 1 and rng.random() < 0.5:
            M[-1] = 0.1
        M[0, 0] = 0.9
        params = ModelParams(rng.uniform(-1.0, 1.0, shape.k), t1, t2, M)
        X = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 41)), length, dim))
        y = rng.choice([-1, 1], len(X))
        p = ActivationParams(beta=float(rng.uniform(2.0, 10.0)), slope=float(rng.choice([1.0, 2.0])))
        gates = (M >= 0.5).astype(np.float64)
        batch = rng.permutation(len(X))
        grads, mean, _ = _batch_gradients(X, y, batch, params, shape, p, gates)
        oracle = [math.exp(-y[i] * network_output(X[i], params, shape, p)) for i in batch]
        assert mean == pytest.approx(np.mean(oracle))
        for group in ("b", "t1", "t2"):
            for j in range(shape.k):
                moved = []
                for delta in (step, -step):
                    q = params.copy()
                    getattr(q, group)[j] += delta
                    moved.append(_batch_gradients(X, y, batch, q, shape, p, gates)[1])
                fd = (moved[0] - moved[1]) / (2.0 * step)
                an = grads[group][j]
                worst = max(worst, abs(fd - an) / max(1.0, abs(fd), abs(an)))
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# projection and initialization


def test_project_params_clips_everything():
    params = ModelParams(
        b=np.zeros(3),
        t1=np.array([-2.0, 5.0, 3.0]),
        t2=np.array([4.0, 2.0, 10.0]),
        M=np.array([[1.3, -0.2, 0.4]]),
    )
    project_params(params, length=8)
    assert params.M.tolist() == [[1.0, 0.0, 0.4]]
    assert params.t1.tolist() == [0.0, 3.5, 3.0]
    assert params.t2.tolist() == [4.0, 3.5, 7.0]


def test_init_params_ranges(tiny_driving_pair):
    shape = NetworkShape.cycled(2)
    rng = np.random.default_rng(1)
    params = init_params(tiny_driving_pair, shape, tiny_driving_pair.length, rng)
    assert params.t1.tolist() == [0.0] * shape.k
    assert params.t2.tolist() == [39.0] * shape.k
    assert np.all((params.M >= 0.4) & (params.M <= 0.6))
    for j, slot in enumerate(shape.slots):
        pooled = np.concatenate(
            [slot.sign * sig.values[:, slot.axis] for sig, _ in tiny_driving_pair]
        )
        assert pooled.min() <= params.b[j] <= pooled.max()


# ---------------------------------------------------------------------------
# extraction


def _params_for_extraction(M):
    # slots from cycled(1): (x>b0, G), (x<-b1, F), (x>b2, F), (x<-b3, G)
    return ModelParams(
        b=np.array([1.0, 2.0, 3.0, 4.0]),
        t1=np.array([0.0, 1.0, 2.0, 3.0]),
        t2=np.array([5.0, 6.0, 7.0, 8.0]),
        M=np.asarray(M, dtype=np.float64),
    )


def test_extract_two_clause_formula():
    shape = NetworkShape.cycled(1)
    params = _params_for_extraction([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    f = extract_formula(params, shape)
    assert (
        format_formula(f)
        == "(G[0,5](x0 > 1) & F[1,6](x0 < -2)) | (F[2,7](x0 > 3) & G[3,8](x0 < -4))"
    )
    clauses = dnf_clauses(f)
    assert len(clauses) == 2 and all(len(c) == 2 for c in clauses)


def test_extract_thresholds_at_half_and_rounds_windows():
    shape = NetworkShape.cycled(1)
    params = ModelParams(
        b=np.array([1.0, 2.0, 3.0, 4.0]),
        t1=np.array([0.4, 0.0, 0.0, 0.0]),
        t2=np.array([5.3, 6.0, 7.0, 8.0]),
        M=np.array([[0.9, 0.5, 0.49, 0.1]]),
    )
    f = extract_formula(params, shape)
    # gate 0.5 counts as open, 0.49 closed; t1 floors, t2 ceils
    assert format_formula(f) == "G[0,6](x0 > 1) & F[0,6](x0 < -2)"


def test_extract_all_zero_gates_is_an_error():
    shape = NetworkShape.cycled(1)
    params = _params_for_extraction(np.zeros((2, 4)))
    with pytest.raises(EmptyFormulaError, match="no formula"):
        extract_formula(params, shape)


def test_extract_collapses_duplicate_rows():
    shape = NetworkShape.cycled(1)
    params = _params_for_extraction([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    f = extract_formula(params, shape)
    assert count_atoms(f) == 1


def test_formula_from_gates_shape_mismatch():
    shape = NetworkShape.cycled(1)
    params = _params_for_extraction(np.ones((2, 4)))
    with pytest.raises(ValueError, match="does not match"):
        formula_from_gates(params, shape, np.ones((1, 4)))


# ---------------------------------------------------------------------------
# simplification


def test_simplify_drops_vacuous_conjunct(tiny_driving_pair):
    shape = NetworkShape.cycled(1, m=1)
    params = ModelParams(
        b=np.array([-1.97, -1000.0, 0.0, 0.0]),  # slot 1 reads x < 1000: always true
        t1=np.zeros(4),
        t2=np.full(4, 39.0),
        M=np.array([[1.0, 1.0, 0.0, 0.0]]),
    )
    gates = simplify(params, shape, tiny_driving_pair)
    assert gates.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_simplify_keeps_essential_gates():
    data = const_set([(2.0, 1), (0.0, -1), (4.0, -1)])
    shape = NetworkShape.cycled(1, m=1)
    params = ModelParams(
        b=np.array([1.0, 0.0, 0.0, -3.0]),  # open gates read G(x>1) and G(x<3)
        t1=np.zeros(4),
        t2=np.full(4, 2.0),
        M=np.array([[1.0, 0.0, 0.0, 1.0]]),
    )
    gates = simplify(params, shape, data)
    assert gates.tolist() == [[1.0, 0.0, 0.0, 1.0]]


def test_simplify_row_pass_removes_unsatisfiable_clause():
    # row 1 is unsatisfiable as a pair; dropping either single gate would
    # change classifications, so only whole-row removal can clean it up
    data = const_set([(2.0, 1), (0.0, -1), (4.0, -1)])
    shape = NetworkShape.cycled(1, m=2)
    params = ModelParams(
        b=np.array([1.0, 5.0, 3.5, -3.0]),  # slot 1: x < -5 (never), slot 2: x > 3.5
        t1=np.zeros(4),
        t2=np.full(4, 2.0),
        M=np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]]),
    )
    gates = simplify(params, shape, data)
    assert gates.tolist() == [[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]]
    assert count_atoms(formula_from_gates(params, shape, gates)) == 2


def test_simplify_never_empties_the_matrix(tiny_driving_pair):
    shape = NetworkShape.cycled(1, m=1)
    params = ModelParams(
        b=np.array([-1000.0, 0.0, 0.0, 0.0]),  # vacuous but the only gate
        t1=np.zeros(4),
        t2=np.full(4, 39.0),
        M=np.array([[1.0, 0.0, 0.0, 0.0]]),
    )
    gates = simplify(params, shape, tiny_driving_pair)
    assert gates.any()


def test_simplify_never_increases_training_mcr():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 25:
        dim = int(rng.integers(1, 3))
        length = int(rng.integers(4, 12))
        shape = NetworkShape.cycled(dim, m=int(rng.integers(1, 4)))
        M = rng.uniform(0, 1, (shape.m, shape.k))
        if not (M >= 0.5).any():
            continue
        t1 = rng.integers(0, length, shape.k).astype(np.float64)
        t2 = np.array([float(rng.integers(int(a), length)) for a in t1])
        params = ModelParams(rng.uniform(-3, 3, shape.k), t1, t2, M)
        samples = [
            (Signal(rng.uniform(-4, 4, (length, dim))), int(rng.choice([-1, 1])))
            for _ in range(12)
        ]
        data = LabeledDataset.from_samples(samples)
        before = mcr(data, extract_formula(params, shape))
        after = mcr(data, formula_from_gates(params, shape, simplify(params, shape, data)))
        assert after <= before
        checked += 1


def test_simplify_matches_the_per_sample_oracle(tiny_driving_pair):
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 40:
        dim = int(rng.integers(1, 3))
        length = int(rng.integers(3, 12))
        shape = NetworkShape.cycled(dim, m=int(rng.integers(1, 4)))
        M = rng.uniform(0, 1, (shape.m, shape.k))
        if not (M >= 0.5).any():
            continue
        t1 = rng.uniform(0, length - 1, shape.k)
        t2 = np.array([rng.uniform(a, length - 1) for a in t1])
        b = rng.uniform(-3, 3, shape.k)
        values = rng.uniform(-4, 4, (20, length, dim))
        if checked % 2:  # integral values and offsets: robustness exactly 0 occurs
            b, values = np.round(b), np.round(values)
        params = ModelParams(b, t1, t2, M)
        data = LabeledDataset.from_samples([(Signal(v), int(rng.choice([-1, 1]))) for v in values])
        assert simplify(params, shape, data).tolist() == simplify_oracle(params, shape, data).tolist()
        checked += 1
    report = train(tiny_driving_pair, small_cfg(epochs=2))
    got = simplify(report.params, report.shape, tiny_driving_pair)
    assert got.tolist() == simplify_oracle(report.params, report.shape, tiny_driving_pair).tolist()


def test_simplify_rejects_empty_inputs():
    shape = NetworkShape.cycled(1, m=1)
    params = _params_for_extraction(np.array([[0.1, 0.1, 0.1, 0.1]]))
    with pytest.raises(ValueError, match="empty dataset"):
        simplify(params, shape, LabeledDataset.from_samples([]))
    with pytest.raises(EmptyFormulaError):
        simplify(params, shape, const_set([(1.0, 1), (0.0, -1)]))


# ---------------------------------------------------------------------------
# training loop


def small_cfg(**over):
    base = dict(epochs=3, batch_size=10, lr=0.1, seed=0)
    base.update(over)
    return TrainConfig(**base)


def test_train_report_shapes(tiny_driving_pair):
    cfg = small_cfg()
    report = train(tiny_driving_pair, cfg)
    assert len(report.losses) == cfg.epochs
    assert len(report.train_mcr) == cfg.epochs
    assert len(report.epoch_seconds) == cfg.epochs
    assert all(0.0 <= m <= 1.0 for m in report.train_mcr)
    parse_formula(report.formula_text)
    parse_formula(report.simplified_text)
    payload = report.canonical_dict()
    assert "epoch_seconds" not in payload
    json.dumps(payload)  # must be serializable as written


def test_train_is_deterministic(tiny_driving_pair):
    a = train(tiny_driving_pair, small_cfg())
    b = train(tiny_driving_pair, small_cfg())
    assert a.losses == b.losses
    assert a.train_mcr == b.train_mcr
    assert a.canonical_dict() == b.canonical_dict()


def test_gate_sampling_is_seeded(tiny_driving_pair):
    cfg = small_cfg(epochs=2, gate_sampling=True)
    a = train(tiny_driving_pair, cfg)
    b = train(tiny_driving_pair, cfg)
    assert a.canonical_dict() == b.canonical_dict()


def test_train_validations(tiny_driving_pair):
    with pytest.raises(ValueError, match="empty"):
        train(LabeledDataset.from_samples([]), small_cfg())
    pos_only = LabeledDataset.from_samples([(sig, 1) for sig, _ in list(tiny_driving_pair)[:4]])
    with pytest.raises(ValueError, match="both classes"):
        train(pos_only, small_cfg())
    with pytest.raises(ValueError, match="epochs"):
        train(tiny_driving_pair, small_cfg(epochs=0))
    with pytest.raises(ValueError, match="positive"):
        train(tiny_driving_pair, small_cfg(batch_size=0))
    with pytest.raises(ValueError, match="learning rates"):
        train(tiny_driving_pair, small_cfg(lr=-0.1))
    with pytest.raises(ValueError, match="optimizer"):
        train(tiny_driving_pair, small_cfg(optimizer="sgd"))


def test_unsound_config_refused(tiny_driving_pair):
    with pytest.raises(UnsoundConfigError, match="sign-soundness"):
        train(tiny_driving_pair, small_cfg(beta=0.001))


def test_unsound_config_can_be_overridden(tiny_driving_pair):
    cfg = small_cfg(epochs=1, beta=0.001, allow_unsound=True)
    report = train(tiny_driving_pair, cfg)
    assert len(report.losses) == 1


def test_slope_end_above_one_is_refused(tiny_driving_pair):
    # past slope 1 the snapped network's windows reach beyond the formula's
    # (test_network.py::test_wide_slope_breaks_sign_agreement)
    with pytest.raises(UnsoundConfigError, match="slope_end = 2.5 exceeds 1"):
        train(tiny_driving_pair, small_cfg(slope_end=2.5))
    report = train(tiny_driving_pair, small_cfg(epochs=1, slope_end=2.5, allow_unsound=True))
    assert len(report.losses) == 1


def test_plain_gradient_descent_runs(tiny_driving_pair):
    report = train(tiny_driving_pair, small_cfg(epochs=2, optimizer="gd"))
    assert len(report.losses) == 2


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_aborts_with_epoch(tiny_driving_pair):
    samples = list(tiny_driving_pair)
    data = LabeledDataset.from_samples(samples[:5] + samples[-5:])
    cfg = small_cfg(epochs=3, batch_size=64, lr=1e120, lr_gates=1e120,
                    optimizer="gd", grad_clip=0.0)
    with pytest.raises(DivergenceError, match="diverged at epoch 1, batch 0: non-finite loss of sample"):
        train(data, cfg)
    # with two batches a step, the second batch of epoch 0 already meets
    # the oversized offsets
    with pytest.raises(DivergenceError, match="diverged at epoch 0, batch 1: non-finite loss of sample"):
        train(data, replace(cfg, batch_size=5))


def test_beta_hold_of_one_is_valid(tiny_driving_pair):
    report = train(tiny_driving_pair, small_cfg(epochs=2, beta_start=3.0, beta_hold=1.0))
    assert len(report.losses) == 2


# ---------------------------------------------------------------------------
# config files


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# schedule\n"
        "epochs = 3\n"
        "batch_size= 10\n"
        "lr =0.25\n"
        "gate_sampling = yes\n"
        "optimizer = gd\n"
        "seed = 9\n"
        "beta_hold = 0.75  # fraction\n"
        "\n",
        encoding="utf-8",
    )
    cfg = TrainConfig.from_file(path)
    assert cfg == TrainConfig(
        epochs=3, batch_size=10, lr=0.25, gate_sampling=True,
        optimizer="gd", seed=9, beta_hold=0.75,
    )


def test_checked_in_configs_are_the_acceptance_configs():
    # configs/*.cfg are the documented way to rerun the acceptance trainings
    assert TrainConfig.from_file(CONFIGS / "overtake.cfg") == DRIVING_SETUPS["GoForward-vs-Overtake"][1]
    assert TrainConfig.from_file(CONFIGS / "stopgo.cfg") == DRIVING_SETUPS["GoForward-vs-StopAndGo"][1]
    assert TrainConfig.from_file(CONFIGS / "naval.cfg") == NAVAL_CONFIG


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("epochs = 3\nlr = 0.1\nwarp = 9\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":3: unknown config key 'warp'"):
        TrainConfig.from_file(path)
    path.write_text("epochs = many\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: bad value for 'epochs'"):
        TrainConfig.from_file(path)
    path.write_text("epochs 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        TrainConfig.from_file(path)
    path.write_text("gate_sampling = maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a boolean"):
        TrainConfig.from_file(path)


@pytest.mark.parametrize("key", ["beta", "lr", "slope_end"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_file_refuses_non_finite_values(tmp_path, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"epochs = 3\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad.cfg:2: bad value for '{key}': not a finite number"):
        TrainConfig.from_file(path)
