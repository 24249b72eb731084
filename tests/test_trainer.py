"""Trainer tests: the batch loss and its gradient, projection, extraction and pruning rules on
hand-built parameter matrices, plus the training-loop contracts
(determinism, validation, divergence abort, config parsing)."""

import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stlinfer import stl, trainer
from stlinfer.datasets import DrivingBehavior, LabeledDataset, gen_driving_pair, gen_naval
from stlinfer.evaluate import emit_report, load_model
from stlinfer.network import (
    ActivationParams,
    EmptyFormulaError,
    ModelParams,
    NetworkShape,
    network_outputs,
    soundness_bound_check,
)
from stlinfer.stl import Signal, dnf_clauses, format_formula, mcr, parse_formula, robustness, satisfied
from stlinfer.trainer import (
    GRAD_CLIP,
    LR_GATES,
    DivergenceError,
    TrainConfig,
    UnsoundConfigError,
    _batch_gradients,
    _feasible_box,
    extract_formula,
    formula_from_gates,
    init_params,
    project_params,
    simplify,
    train,
)
from test_acceptance import DRIVING_SETUPS, NAVAL_CONFIG
from util import (
    FourGroupAdam,
    count_atoms,
    dataset_from_samples,
    init_params_oracle,
    simplify_oracle,
    traced_peak,
    train_oracle,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GROUPS = ("b", "t1", "t2", "M")


@pytest.fixture(scope="module")
def scenarios():
    """The acceptance datasets (seed 0) with their training configs."""
    runs = {
        name: (gen_driving_pair(DrivingBehavior.GO_FORWARD, neg, 500, seed=0), cfg)
        for name, (neg, cfg, _) in DRIVING_SETUPS.items()
    }
    runs["naval"] = (gen_naval(1000, seed=0), NAVAL_CONFIG)
    return runs


def const_set(values_and_labels, length=3):
    samples = [
        (Signal(np.full((length, 1), float(v))), label) for v, label in values_and_labels
    ]
    return dataset_from_samples(samples)


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
        batch = rng.permutation(len(X))
        grads, mean, _ = _batch_gradients(X, y, batch, params, shape, p)
        oracle = [math.exp(-y[i] * r) for i, r in zip(batch, network_outputs(X[batch], params, shape, p))]
        assert mean == pytest.approx(np.mean(oracle))
        for group in ("b", "t1", "t2"):
            for j in range(shape.k):
                moved = []
                for delta in (step, -step):
                    q = ModelParams(params.b, params.t1, params.t2, params.M)
                    getattr(q, group)[j] += delta
                    moved.append(_batch_gradients(X, y, batch, q, shape, p)[1])
                fd = (moved[0] - moved[1]) / (2.0 * step)
                an = getattr(grads, group)[j]
                worst = max(worst, abs(fd - an) / max(1.0, abs(fd), abs(an)))
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# projection and initialization


@pytest.mark.parametrize("label, value", [(1, np.inf), (-1, -np.inf)])
def test_batch_gradients_name_an_infinite_output_whose_loss_term_is_zero(monkeypatch, label, value):
    # exp(-y * out) is 0 for out = y * inf, so the mean loss stays finite;
    # the output is still named, before any backward runs
    class Pass:
        out = np.array([0.5, value, -0.25])

        def vjp(self, dout):
            raise AssertionError("backward ran on a non-finite output")

    monkeypatch.setattr(trainer, "network_pass", lambda *args, **kwargs: Pass())
    y = np.array([label, -1, 1], dtype=np.float64)
    shape = NetworkShape.cycled(1, m=1)
    params = ModelParams(np.zeros(4), np.zeros(4), np.full(4, 3.0), np.ones((1, 4)))
    with pytest.raises(trainer.NonFiniteError, match=r"^non-finite network output of sample 0$"):
        _batch_gradients(np.zeros((3, 4, 1)), y, np.array([1, 0, 2]), params, shape, ActivationParams())


def test_batch_gradients_name_a_batch_loss_that_overflows(monkeypatch):
    # each term exp(709.5) is finite, their sum is not
    class Pass:
        out = np.array([-709.5, -709.5])

    monkeypatch.setattr(trainer, "network_pass", lambda *args, **kwargs: Pass())
    shape = NetworkShape.cycled(1, m=1)
    params = ModelParams(np.zeros(4), np.zeros(4), np.full(4, 3.0), np.ones((1, 4)))
    with pytest.raises(trainer.NonFiniteError, match=r"^non-finite batch loss$"):
        _batch_gradients(np.zeros((2, 4, 1)), np.ones(2), np.arange(2), params, shape, ActivationParams())


def test_project_params_clips_everything():
    params = ModelParams(
        b=np.array([-1e300, 0.0, 1e300]),
        t1=np.array([-2.0, 5.0, 3.0]),
        t2=np.array([4.0, 2.0, 10.0]),
        M=np.array([[1.3, -0.2, 0.4]]),
    )
    project_params(params, *_feasible_box(params, length=8))
    assert params.b.tolist() == [-1e300, 0.0, 1e300]
    assert params.M.tolist() == [[1.0, 0.0, 0.4]]
    assert params.t1.tolist() == [0.0, 3.5, 3.0]
    assert params.t2.tolist() == [4.0, 3.5, 7.0]


def test_flat_adam_equals_adam_by_group():
    # Adam on one flat vector, with the parameters as views of it, leaves
    # every group byte-equal to Adam run group by group, whether or not
    # the gradient norm exceeds GRAD_CLIP
    rng = np.random.default_rng(52)
    k, m, lr = 8, 3, 0.25
    start = ModelParams(rng.normal(size=k), rng.uniform(0, 5, k), rng.uniform(5, 10, k), rng.uniform(0, 1, (m, k)))
    params = ModelParams(start.b, start.t1, start.t2, start.M)
    rates = params.zeros()
    rates.flat[:] = lr
    rates.M[:] = LR_GATES
    opt = trainer._Optimizer(rates.flat)
    box = _feasible_box(params, 10)
    ref = ModelParams(start.b, start.t1, start.t2, start.M)
    oracle = FourGroupAdam({"b": lr, "t1": lr, "t2": lr, "M": LR_GATES})
    clipped = []
    # the norm's group sums round differently in another order on about
    # one step in sixteen, so enough steps show a changed order
    for step in range(300):
        scale = 0.01 if step % 3 == 0 else 10.0
        grads = ModelParams(*(scale * rng.normal(size=getattr(start, name).shape) for name in GROUPS))
        grads.t1[step % k] = -0.0
        grads.M[step % m] = 0.0
        by_group = {name: getattr(grads, name) for name in GROUPS}
        clipped.append(math.sqrt(sum(float(np.sum(g * g)) for g in by_group.values())) > GRAD_CLIP)
        opt.step(params, grads)
        # the step leaves grads as it was, so the oracle reads the same
        oracle.step({name: getattr(ref, name) for name in GROUPS}, by_group)
        project_params(params, *box)
        project_params(ref, *box)
        for name in GROUPS:
            assert getattr(params, name).tobytes() == getattr(ref, name).tobytes(), (step, name)
            assert np.shares_memory(getattr(params, name), params.flat)
    assert any(clipped) and not all(clipped)


@pytest.mark.parametrize("big", [[1e200, 0.0], [3e200, -4e200], [1e300, 1e300]])
def test_overflowing_squares_still_clip_the_step(big):
    # finite gradients whose squares overflow: the step applies them
    # clipped to norm GRAD_CLIP, not a zero step, and numpy warns nothing
    start = ModelParams([0.5, -0.5], [0.0, 1.0], [3.0, 4.0], [[0.5, 0.5]])
    params = ModelParams(start.b, start.t1, start.t2, start.M)
    grads = params.zeros()
    grads.b[:] = big
    opt = trainer._Optimizer(np.full(params.flat.size, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opt.step(params, grads)
    clipped = np.array(big) / math.hypot(*big) * GRAD_CLIP
    assert opt.m[:2] == pytest.approx(0.1 * clipped, rel=1e-12)
    # a first Adam step moves each entry by its rate, up to ADAM_EPS
    assert params.b == pytest.approx(start.b - 0.25 * np.sign(big), rel=1e-7)
    assert params.flat[2:].tobytes() == start.flat[2:].tobytes()
    if big[1] == 0.0:
        # the scaled gradient is exactly (1, 0), as GRAD_CLIP itself gives
        ref = ModelParams(start.b, start.t1, start.t2, start.M)
        grads.b[:] = [GRAD_CLIP, 0.0]
        trainer._Optimizer(np.full(ref.flat.size, 0.25)).step(ref, grads)
        assert params.flat.tobytes() == ref.flat.tobytes()


@pytest.mark.parametrize("name", ["tiny_driving_pair", "tiny_naval"])
def test_train_equals_the_oracle_training_loop(request, name):
    # three epochs of 60 samples in batches of 25 (the last one partial),
    # through the beta and slope schedule: the loss, its checks, the
    # optimizer and the projection leave train's parameters, losses and
    # misclassification rates byte-equal to the reference loop's
    data = request.getfixturevalue(name)
    cfg = TrainConfig(epochs=3, batch_size=25, lr=0.25, beta_start=3.0, beta_hold=0.3)
    report = train(data, cfg)
    params, losses, train_mcr = train_oracle(data, cfg)
    assert report.params.flat.tobytes() == params.flat.tobytes()
    assert report.losses == losses and report.train_mcr == train_mcr
    assert len(data) % cfg.batch_size and cfg.epochs >= 3


def test_train_steps_the_gates_at_their_own_rate(monkeypatch, tiny_driving_pair):
    rates = []

    class Recording(trainer._Optimizer):
        def __init__(self, lr):
            rates.append(lr.tolist())
            super().__init__(lr)

    monkeypatch.setattr(trainer, "_Optimizer", Recording)
    report = train(tiny_driving_pair, small_cfg(epochs=1, lr=0.2))
    k, m = report.shape.k, report.shape.m
    assert rates == [[0.2] * (3 * k) + [LR_GATES] * (m * k)]


def test_trained_params_round_trip_through_the_report(tmp_path, tiny_driving_pair):
    report = train(tiny_driving_pair, small_cfg(epochs=2))
    params, shape, _ = load_model(emit_report(report, tmp_path)["report"])
    assert shape == report.shape
    for name in GROUPS:
        assert getattr(params, name).shape == getattr(report.params, name).shape
        assert getattr(params, name).tobytes() == getattr(report.params, name).tobytes()


def test_init_params_ranges(tiny_driving_pair):
    shape = NetworkShape.cycled(2)
    rng = np.random.default_rng(1)
    params = init_params(tiny_driving_pair, shape, rng)
    assert params.t1.tolist() == [0.0] * shape.k
    assert params.t2.tolist() == [39.0] * shape.k
    assert np.all((params.M >= 0.4) & (params.M <= 0.6))
    for j, slot in enumerate(shape.slots):
        pooled = slot.sign * tiny_driving_pair.X[:, :, slot.axis]
        assert pooled.min() <= params.b[j] <= pooled.max()


def test_init_params_draws_offsets_in_slot_order(tiny_naval):
    # each (axis, sign) band is computed once, but the draws keep slot
    # order: the offsets equal a band computed afresh for every slot
    shape = NetworkShape.cycled(tiny_naval.dim)
    params = init_params(tiny_naval, shape, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    want = [
        rng.uniform(*np.percentile(slot.sign * tiny_naval.X[:, :, slot.axis].ravel(), [10.0, 90.0]))
        for slot in shape.slots
    ]
    assert params.b.tobytes() == np.array(want).tobytes()
    assert params.M.tobytes() == rng.uniform(0.4, 0.6, size=(shape.m, shape.k)).tobytes()


def test_init_params_equals_one_percentile_per_axis_and_sign(scenarios):
    # the bands come from one sort per axis; a band computed from the
    # signed values themselves gives the same bits, and the draws that
    # follow (M) see the same generator state
    for data, _ in scenarios.values():
        shape = NetworkShape.cycled(data.dim)
        got = init_params(data, shape, np.random.default_rng(5))
        want = init_params_oracle(data, shape, np.random.default_rng(5))
        assert got.flat.tobytes() == want.flat.tobytes()
    # the sort and the negated copy hold no more memory at their peak than
    # the signed copy and the percentile's own copy did (both calls warm)
    peaks = [
        traced_peak(lambda init=init: init(data, shape, np.random.default_rng(5)))
        for init in (init_params, init_params_oracle)
    ]
    assert peaks[0] <= 1.01 * peaks[1]
    # integer values: many ties, at both band ends, for an odd and an even
    # number of values per axis (7 * 5 and 6 * 5)
    rng = np.random.default_rng(6)
    for n in (7, 6):
        X = rng.integers(-3, 4, size=(n, 5, 2)).astype(np.float64)
        data = LabeledDataset(X, [1, -1] * (n // 2) + [1] * (n % 2))
        shape = NetworkShape.cycled(2, m=3)
        got = init_params(data, shape, np.random.default_rng(n))
        want = init_params_oracle(data, shape, np.random.default_rng(n))
        assert got.flat.tobytes() == want.flat.tobytes()


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
        data = dataset_from_samples(samples)
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
        data = dataset_from_samples([(Signal(v), int(rng.choice([-1, 1]))) for v in values])
        assert simplify(params, shape, data).tolist() == simplify_oracle(params, shape, data).tolist()
        checked += 1
    report = train(tiny_driving_pair, small_cfg(epochs=2))
    got = simplify(report.params, report.shape, tiny_driving_pair)
    assert got.tolist() == simplify_oracle(report.params, report.shape, tiny_driving_pair).tolist()


def test_simplify_matches_the_oracle_on_trained_gates(scenarios, monkeypatch):
    # two epochs at each acceptance config on every fifth sample (200):
    # the pruned gates equal the per-sample oracle's, and each slot some
    # gate row uses is evaluated exactly once
    calls = []

    def counted(X, formula):
        calls.append(formula)
        return stl.satisfied(X, formula)

    monkeypatch.setattr(trainer, "satisfied", counted)
    for data, cfg in scenarios.values():
        subset = LabeledDataset(data.X[::5], data.y[::5])
        report = train(subset, replace(cfg, epochs=2))
        calls.clear()
        got = simplify(report.params, report.shape, subset)
        assert got.tolist() == simplify_oracle(report.params, report.shape, subset).tolist()
        used = np.flatnonzero(report.params.gates().any(axis=0))
        assert len(calls) == used.size == len(set(calls))


def test_exact_verdicts_do_not_run_the_recursive_reference(tiny_driving_pair, monkeypatch):
    data = tiny_driving_pair
    tree = parse_formula("G[0,39](x0 > -1 & x1 < 39) | F[5,30](x1 > 25 & (x0 < -2 | x1 > 39))")
    want = [robustness(Signal(x), tree) > 0.0 for x in data.X]
    assert 0 < sum(want) < len(want)
    report = train(data, small_cfg(epochs=2))
    pruned = simplify_oracle(report.params, report.shape, data)

    def refuse(*args, **kwargs):
        raise AssertionError("the recursive reference ran")

    monkeypatch.setattr(stl, "robustness", refuse)
    assert satisfied(data.X, tree).tolist() == want
    assert simplify(report.params, report.shape, data).tolist() == pruned.tolist()


def test_simplify_rejects_empty_inputs():
    shape = NetworkShape.cycled(1, m=1)
    params = _params_for_extraction(np.array([[0.1, 0.1, 0.1, 0.1]]))
    with pytest.raises(ValueError, match="empty dataset"):
        simplify(params, shape, dataset_from_samples([]))
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


def test_train_reports_are_byte_identical_in_one_process(tiny_driving_pair, tmp_path):
    # 60 samples in batches of 25 leave a last batch of 10, so each run's
    # workspace holds arrays of two batch shapes; report.json's bytes also
    # tell -0.0 from 0.0, which canonical_dict's == does not
    cfg = small_cfg(batch_size=25)
    for run in ("first", "second"):
        emit_report(train(tiny_driving_pair, cfg), tmp_path / run)
    first, second = ((tmp_path / run / "report.json").read_bytes() for run in ("first", "second"))
    assert first == second


def test_train_validations(tiny_driving_pair):
    with pytest.raises(ValueError, match="empty"):
        train(dataset_from_samples([]), small_cfg())
    pos_only = LabeledDataset(tiny_driving_pair.X[:4], [1] * 4)
    with pytest.raises(ValueError, match="both classes"):
        train(pos_only, small_cfg())
    with pytest.raises(ValueError, match="epochs"):
        train(tiny_driving_pair, small_cfg(epochs=0))
    with pytest.raises(ValueError, match="positive"):
        train(tiny_driving_pair, small_cfg(batch_size=0))
    with pytest.raises(ValueError, match="lr must be positive"):
        train(tiny_driving_pair, small_cfg(lr=-0.1))
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        train(tiny_driving_pair, small_cfg(seed=-1))
    # schedule values train would otherwise reinterpret, refused by name
    for key, value in [
        ("beta_hold", 2.0),  # would never ramp, yet the report claims beta
        ("beta_hold", -0.5),
        ("beta_start", -1.0),  # would pass for "fixed beta"
        ("k", -3),  # would pass for "pick the default"
        ("slope_start", 0.0),  # would fail mid-epoch without naming the key
        ("slope_start", -1.0),
        # values the network would refuse without naming the key
        ("k", 3),
        ("m", 0),
        ("batch_size", 0),
        ("epochs", 0),
        ("beta", 0.0),
        ("h", -1.0),
        ("eps", 0.0),
        ("slope_end", 0.0),
    ]:
        with pytest.raises(ValueError, match=rf"^{key} must .*, got {value}$"):
            train(tiny_driving_pair, small_cfg(**{key: value}))


def test_unsound_config_refused(tiny_driving_pair):
    with pytest.raises(UnsoundConfigError, match="sign-soundness"):
        train(tiny_driving_pair, small_cfg(beta=0.001))


def test_soundness_bound_is_taken_at_the_widest_softmax():
    # length-3 driving data gets k = 8 slots: beta 0.5 is sound for the
    # temporal layer's 3 lanes but not for the conjunction's 8
    data = gen_driving_pair(DrivingBehavior.GO_FORWARD, DrivingBehavior.STOP_AND_GO, 5, length=3)
    p = ActivationParams(beta=0.5, h=1.0)
    assert soundness_bound_check(p, 3) and not soundness_bound_check(p, 8)
    with pytest.raises(UnsoundConfigError, match=r"\(beta=0.5, h=1, l=8\)$"):
        train(data, small_cfg(beta=0.5, h=1.0))


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


@pytest.mark.filterwarnings("ignore:overflow")
def test_divergence_aborts_with_epoch(tiny_driving_pair):
    X, y = tiny_driving_pair.X, tiny_driving_pair.y
    data = LabeledDataset(np.concatenate([X[:5], X[-5:]]), np.concatenate([y[:5], y[-5:]]))
    cfg = small_cfg(epochs=3, batch_size=64, lr=1e120)
    with pytest.raises(DivergenceError, match="diverged at epoch 1, batch 0: non-finite loss of sample"):
        train(data, cfg)
    # with two batches a step, the second batch of epoch 0 already meets
    # the oversized offsets
    with pytest.raises(DivergenceError, match="diverged at epoch 0, batch 1: non-finite loss of sample"):
        train(data, replace(cfg, batch_size=5))


def test_beta_hold_of_one_is_valid(tiny_driving_pair):
    report = train(tiny_driving_pair, small_cfg(epochs=2, beta_start=3.0, beta_hold=1.0))
    assert len(report.losses) == 2


@pytest.mark.parametrize(
    "hold, betas",
    [
        (0.5, [3.0, 3.0, 3.0, 14.0, 25.0]),  # the shipped configs' schedule
        (1.0, [3.0, 3.0, 3.0, 3.0, 25.0]),  # held to the end, then beta
        (0.0, [3.0, 8.5, 14.0, 19.5, 25.0]),
    ],
)
def test_last_epoch_trains_at_the_reported_activation(tiny_driving_pair, monkeypatch, hold, betas):
    seen = {}  # (beta, slope) in first-seen order: one key per epoch, as slopes differ

    def record(X, y, batch, params, shape, p, ws=None):
        seen[(p.beta, p.slope)] = None
        return batch_gradients(X, y, batch, params, shape, p, ws)

    batch_gradients = trainer._batch_gradients
    monkeypatch.setattr(trainer, "_batch_gradients", record)
    cfg = small_cfg(epochs=5, beta_start=3.0, beta=25.0, beta_hold=hold, slope_start=3.0)
    report = train(tiny_driving_pair, cfg)
    assert [beta for beta, _ in seen] == betas
    assert [slope for _, slope in seen] == [3.0, 2.5, 2.0, 1.5, 1.0]
    assert (report.activation.beta, report.activation.slope) == list(seen)[-1]


# ---------------------------------------------------------------------------
# config files


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# schedule\n"
        "epochs = 3\n"
        "batch_size= 10\n"
        "lr =0.25\n"
        "allow_unsound = yes\n"
        "seed = 9\n"
        "beta_hold = 0.75  # fraction\n"
        "\n",
        encoding="utf-8",
    )
    cfg = TrainConfig.from_file(path)
    assert cfg == TrainConfig(
        epochs=3, batch_size=10, lr=0.25, allow_unsound=True, seed=9, beta_hold=0.75,
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
    # the optimizer, its clip, the gate rate and gate sampling are fixed
    for key, value in [("optimizer", "adam"), ("grad_clip", "1.0"), ("lr_gates", "0.1"),
                       ("gate_sampling", "false")]:
        path.write_text(f"epochs = 3\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"bad.cfg:2: unknown config key '{key}'"):
            TrainConfig.from_file(path)
    path.write_text("epochs = 3\nlr = 0.1\n# again\nepochs = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad.cfg:4: 'epochs' already set on line 1$"):
        TrainConfig.from_file(path)
    path.write_text("epochs = many\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: bad value for 'epochs'"):
        TrainConfig.from_file(path)
    path.write_text("epochs 3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        TrainConfig.from_file(path)
    path.write_text("allow_unsound = maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not a boolean"):
        TrainConfig.from_file(path)


def test_config_file_that_is_not_utf8_is_named_with_its_line(tmp_path):
    path = tmp_path / "latin.cfg"
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + b"epochs = 3\n# caf\xe9 au lait\nlr = 0.1\n")
        with pytest.raises(ValueError) as err:
            TrainConfig.from_file(path)
        assert str(err.value) == f"{path}:2: not UTF-8 text (byte 0xe9)"


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "marked.cfg"
    path.write_bytes(b"\xef\xbb\xbfepochs = 3\nlr = 0.1\n")
    assert TrainConfig.from_file(path) == TrainConfig(epochs=3, lr=0.1)


def test_readme_config_table_matches_train_config(tmp_path):
    # every documented key, with its documented default, read back as a
    # config file must give exactly the default TrainConfig
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Training configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.split("\n") if line.startswith("| `")]
    lines = []
    for keys, defaults in rows:
        names = re.findall(r"`(\w+)`", keys)
        values = [v.strip() for v in defaults.split("/")]
        assert len(names) == len(values), keys
        lines += [f"{name} = {value}" for name, value in zip(names, values)]
    path = tmp_path / "readme.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert TrainConfig.from_file(path) == TrainConfig()
    assert sorted(line.split(" = ")[0] for line in lines) == sorted(TrainConfig.__dataclass_fields__)
    # and the fixed part of the recipe is stated with its values
    assert f"gradient norm at {GRAD_CLIP}" in section
    assert f"fixed rate of {LR_GATES}" in section


@pytest.mark.parametrize("key", ["beta", "lr", "slope_end"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_file_refuses_non_finite_values(tmp_path, key, value):
    path = tmp_path / "bad.cfg"
    path.write_text(f"epochs = 3\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=rf"bad.cfg:2: bad value for '{key}': not a finite number"):
        TrainConfig.from_file(path)
