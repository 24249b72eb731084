"""Training loop, parameter projection, formula extraction and pruning.

The trainer fits the formula network by minimizing the exponential margin
loss exp(-label * output) with one fixed recipe: Adam (first/second moment
estimates with bias correction) after capping the global gradient norm at
GRAD_CLIP, with the gates M moving at LR_GATES and the other groups at the
config's lr.  The parameters, their gradients and the per-entry learning
rates all lie in the one flat layout that `ModelParams` defines, so a
step is a few vector operations.  Each batch is one batched network pass
over its signals (n, l, dim) with the gates thresholded at 0.5, the mean
loss, and one closed-form backward of that pass, whose straight-through
gradient reaches M.  After every step the parameters are projected back
into their feasible box: gates into [0, 1], window ends into [0, l-1]
with t1 <= t2.

What a training run needs once it makes once, before the first batch:
the network shape and its slot constants, the labels as floats, the
per-entry learning rates and feasible box, and one workspace for every
batch's pass.  A batch then gathers its signals and labels, runs the
pass and its backward, takes the loss with one finiteness test on its
sum (the sample at fault is looked for only when that test fails),
checks the gradient, and takes one Adam step (its norm from one square
of the flat gradient, summed per group in layout order) and one
projection (a max and a min against the box).

Extraction thresholds the gate matrix at 0.5, drops rows with no open
gate, floors t1 and ceils t2, and reads one conjunction clause per
surviving row.  Pruning then greedily zeroes gates one at a time in
row-major order, keeping a removal only when the exact-semantics
misclassification count on the training data is unchanged, so the pruned
formula never classifies worse than the extracted one.  A trial
recomputes the exact verdict of only the clause it changes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import List, Union

import numpy as np

from .datasets import LabeledDataset, read_text
from .network import (
    ActivationParams,
    EmptyFormulaError,
    ModelParams,
    NetworkShape,
    NonFiniteError,
    guarantee_failure,
    network_pass,
)
from .stl import (
    Formula,
    Predicate,
    TemporalAtom,
    dnf,
    format_formula,
    satisfied,
)

__all__ = [
    "TrainConfig",
    "TrainReport",
    "DivergenceError",
    "UnsoundConfigError",
    "train",
    "init_params",
    "project_params",
    "extract_formula",
    "simplify",
    "formula_from_gates",
]


class DivergenceError(RuntimeError):
    """Training produced a non-finite value; names the epoch, the batch
    and the quantity: a parameter or gradient entry, a network output or
    a loss."""


class UnsoundConfigError(ValueError):
    """Activation parameters fail the sign-soundness bound for this data."""


@dataclass(frozen=True)
class TrainConfig:
    """Flat training configuration; every field can come from a config file."""

    epochs: int = 60
    batch_size: int = 50
    lr: float = 0.05
    beta: float = 25.0
    beta_start: float = 0.0  # 0 keeps beta fixed; else anneal beta_start -> beta
    beta_hold: float = 0.5  # fraction of epochs spent at beta_start before the ramp
    h: float = 1.0
    eps: float = 1e-8
    slope_start: float = 3.0
    slope_end: float = 1.0
    k: int = 0  # 0 picks the default of 4 * dim
    m: int = 2
    seed: int = 0
    allow_unsound: bool = False

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TrainConfig":
        """Read `key = value` lines; '#' starts a comment, blank lines ok.

        A key may appear once: a second line naming it is refused rather
        than silently overriding the first.  The file is read by `read_text`.
        """
        values = {}
        set_on = {}
        fields = cls.__dataclass_fields__
        for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in fields:
                known = ", ".join(sorted(fields))
                raise ValueError(f"{path}:{lineno}: unknown config key '{key}' (known: {known})")
            if key in set_on:
                raise ValueError(f"{path}:{lineno}: '{key}' already set on line {set_on[key]}")
            set_on[key] = lineno
            values[key] = _parse_config_value(key, val, path, lineno)
        return cls(**values)

    def activation(self) -> ActivationParams:
        """The activation parameters at the end of the schedule."""
        return ActivationParams(beta=self.beta, h=self.h, eps=self.eps, slope=self.slope_end)


def _parse_config_value(key: str, val: str, path, lineno: int):
    kind = TrainConfig.__dataclass_fields__[key].type
    try:
        if kind == "bool":
            low = val.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: '{val}'")
        if kind == "int":
            return int(val)
        x = float(val)
        if not math.isfinite(x):
            raise ValueError(f"not a finite number: '{val}'")
        return x
    except ValueError as e:
        raise ValueError(f"{path}:{lineno}: bad value for '{key}': {e}") from None


@dataclass
class TrainReport:
    """Everything a run produced.

    Wall-clock per epoch is kept apart from the canonical payload so that
    two runs with the same seed and config serialize to identical bytes.
    """

    config: TrainConfig
    shape: NetworkShape
    activation: ActivationParams
    params: ModelParams
    losses: List[float]
    train_mcr: List[float]
    epoch_seconds: List[float]
    formula_text: str
    simplified_text: str

    def canonical_dict(self) -> dict:
        """Deterministic report payload: no timing, fixed key order."""
        return {
            "config": asdict(self.config),
            "shape": {
                "m": self.shape.m,
                "slots": [[s.axis, s.sign, s.op.value] for s in self.shape.slots],
            },
            "activation": asdict(self.activation),
            "params": {name: getattr(self.params, name).tolist() for name in ("b", "t1", "t2", "M")},
            "losses": self.losses,
            "train_mcr": self.train_mcr,
            "formula": self.formula_text,
            "simplified": self.simplified_text,
        }


# Exponential loss makes early gradients huge; without a cap on the global
# gradient norm the second-moment estimate saturates and later steps vanish.
GRAD_CLIP = 1.0
# Learning rate of the conjunction gates M; TrainConfig.lr drives b, t1, t2.
LR_GATES = 0.1
# Adam's moment decays and denominator guard.  The second-moment memory is
# short: lanes that lose the min/max selection see their gradient magnitude
# drop by orders of magnitude, and a long memory would freeze them for
# thousands of steps afterwards.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.9
ADAM_EPS = 1e-8


class _Optimizer:
    """Adam over one flat parameter vector (first/second moment estimates
    with bias correction), applied after capping the global gradient norm
    at GRAD_CLIP; `lr` holds the rate of each entry of `ModelParams.flat`."""

    def __init__(self, lr: np.ndarray):
        self.lr = lr
        self.m = np.zeros_like(lr)
        self.v = np.zeros_like(lr)
        self.t = 0

    def step(self, params: ModelParams, grads: ModelParams) -> None:
        """Update params in place from grads, which leaves grads as it is."""
        # the norm sums group by group, in layout order: b, t1 and t2 as
        # the rows of one (3, k) sum, then M (a contiguous 2-D sum is the
        # sum of its flat run)
        k = grads.b.size
        with np.errstate(over="ignore"):
            square = grads.flat * grads.flat
            s_b, s_t1, s_t2 = np.add.reduce(square[: 3 * k].reshape(3, k), axis=1).tolist()
            norm = math.sqrt(s_b + s_t1 + s_t2 + float(np.add.reduce(square[3 * k :])))
        if math.isinf(norm):
            # the squares of finite gradients overflowed: clip the gradients
            # scaled by their largest magnitude s, whose norm is norm / s
            scaled = grads.flat / np.abs(grads.flat).max()
            g = scaled * (GRAD_CLIP / math.sqrt(np.add.reduce(scaled * scaled)))
        else:
            g = grads.flat * (GRAD_CLIP / norm) if norm > GRAD_CLIP else grads.flat
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * g * g
        step = self.m / (1 - ADAM_BETA1**self.t)
        step *= self.lr
        root = np.sqrt(self.v / (1 - ADAM_BETA2**self.t))
        root += ADAM_EPS
        step /= root
        np.subtract(params.flat, step, out=params.flat)


def init_params(data: LabeledDataset, shape: NetworkShape, rng: np.random.Generator) -> ModelParams:
    """Offsets drawn inside the 10th-90th percentile band of each slot's
    signed axis values; windows start full; gates start near 0.5.  Both
    signs' bands come from one sort per axis: the sign -1 values, sorted,
    are the sort negated and reversed (a percentile sees only values)."""
    bands = {}  # (axis, sign) -> (lo, hi)
    for axis in {slot.axis for slot in shape.slots}:
        s = np.sort(data.X[:, :, axis], axis=None)
        bands[axis, 1] = np.percentile(s, [10.0, 90.0])
        # the negated copy is ours to partition: no second copy at the peak
        bands[axis, -1] = np.percentile(-s[::-1], [10.0, 90.0], overwrite_input=True)
    b = np.array([rng.uniform(*bands[slot.axis, slot.sign]) for slot in shape.slots])
    t1 = np.zeros(shape.k)
    t2 = np.full(shape.k, float(data.length - 1))
    M = rng.uniform(0.4, 0.6, size=(shape.m, shape.k))
    return ModelParams(b, t1, t2, M)


def _feasible_box(params: ModelParams, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of each entry of `params.flat`: b is free, t1 and t2 lie in
    [0, length - 1] and the gates M in [0, 1]."""
    k, free, last = params.b.size, np.full(params.b.size, np.inf), float(length - 1)
    lo = ModelParams(-free, np.zeros(k), np.zeros(k), np.zeros(params.M.shape)).flat
    hi = ModelParams(free, np.full(k, last), np.full(k, last), np.ones(params.M.shape)).flat
    return lo, hi


def project_params(params: ModelParams, lo: np.ndarray, hi: np.ndarray) -> None:
    """Clamp parameters in place to their feasible box [lo, hi] (see
    `_feasible_box`) after a step; crossed window ends meet in the middle."""
    # max then min is clip, and two ufunc calls cost less than np.clip's wrapper
    np.minimum(np.maximum(params.flat, lo, out=params.flat), hi, out=params.flat)
    swapped = params.t1 > params.t2
    if np.count_nonzero(swapped):
        mid = 0.5 * (params.t1[swapped] + params.t2[swapped])
        params.t1[swapped] = params.t2[swapped] = mid


def formula_from_gates(params: ModelParams, shape: NetworkShape, gates: np.ndarray) -> Formula:
    """Read the formula selected by a binary gate matrix.

    Rows with no open gate are dropped; duplicate rows collapse to a
    single clause.  Windows are rounded outward (floor t1, ceil t2).
    """
    gates = np.asarray(gates)
    if gates.shape != params.M.shape:
        raise ValueError(f"gate matrix shape {gates.shape} does not match {params.M.shape}")
    atoms = _slot_atoms(params, shape)
    clauses = []
    seen = set()
    for i in range(gates.shape[0]):
        row = tuple(int(g > 0) for g in gates[i])
        if not any(row) or row in seen:
            continue
        seen.add(row)
        clauses.append([atoms[j] for j in range(shape.k) if row[j]])
    if not clauses:
        raise EmptyFormulaError("every gate is closed; there is no formula to extract")
    return dnf(clauses)


def _slot_atoms(params: ModelParams, shape: NetworkShape) -> List[TemporalAtom]:
    """One temporal atom per slot, windows rounded outward."""
    return [
        TemporalAtom(
            slot.op,
            int(math.floor(params.t1[j])),
            int(math.ceil(params.t2[j])),
            Predicate(slot.axis, slot.sign, float(params.b[j])),
        )
        for j, slot in enumerate(shape.slots)
    ]


def extract_formula(params: ModelParams, shape: NetworkShape) -> Formula:
    """Threshold gates at 0.5 and read the formula the network encodes."""
    return formula_from_gates(params, shape, params.gates())


def simplify(params: ModelParams, shape: NetworkShape, data: LabeledDataset) -> np.ndarray:
    """Greedy gate pruning that provably never increases the training
    misclassification rate.

    Walks the thresholded gate matrix in row-major order and zeroes each
    open gate whose removal leaves the exact-semantics misclassification
    count unchanged, re-evaluating against the already-pruned matrix.
    Then tries dropping each remaining row outright, which catches
    unsatisfiable leftover clauses the one-gate-at-a-time walk cannot
    reach.  A removal that would close every gate is skipped, since an
    empty matrix encodes no formula.  Returns the pruned binary matrix.

    Each open slot atom's verdicts come from `satisfied` once, as a row
    of a (k, N) matrix, and each gate row's clause verdict once, as the
    AND of its open atoms' rows; a trial recomputes only the row it closes
    gates in, and ORs the clause verdicts.
    """
    if not len(data):
        raise ValueError("cannot simplify against an empty dataset")
    gates = params.gates()
    # Pruning only closes gates, so only the extracted formula's atoms are
    # ever read; a closed slot's window need not even fit the signals.
    used = np.flatnonzero(gates.any(axis=0))
    if not used.size:
        raise EmptyFormulaError("every gate is closed; nothing to simplify")
    atoms = _slot_atoms(params, shape)
    holds = np.empty((shape.k, len(data)), dtype=bool)
    for j in used:
        holds[j] = satisfied(data.X, atoms[j])
    positive = data.y == 1

    def clause(row: np.ndarray) -> np.ndarray:
        # the AND of no rows is all True, but a row with no open gate holds nowhere
        return np.logical_and.reduce(holds[row > 0.0]) & row.any()

    verdicts = [clause(row) for row in gates]
    baseline = _wrong_count(verdicts, positive)

    def try_closing(i: int, cols) -> None:
        nonlocal gates, verdicts
        trial = gates.copy()
        trial[i, cols] = 0.0
        if not trial.any() or np.array_equal(trial, gates):
            return
        rows = verdicts.copy()
        rows[i] = clause(trial[i])
        if _wrong_count(rows, positive) == baseline:
            gates, verdicts = trial, rows

    for i, j in np.ndindex(gates.shape):
        try_closing(i, j)
    for i in range(gates.shape[0]):
        try_closing(i, slice(None))
    return gates


def _wrong_count(verdicts: List[np.ndarray], positive: np.ndarray) -> int:
    """Misclassified samples of the DNF whose clause verdicts are given."""
    return int(np.count_nonzero(np.logical_or.reduce(verdicts) != positive))


def _batch_gradients(X, y, batch, params, shape, p, ws=None):
    """One batch: the network pass (in workspace ws), the mean loss and
    its gradients; y holds the labels of every sample, as floats or ints.

    Returns (gradients in the parameters' layout, mean loss, misclassified
    count).  Raises NonFiniteError naming the first non-finite parameter,
    network output, loss or gradient entry.
    """
    fwd = network_pass(X[batch], params, shape, p, ws=ws)
    neg = -y[batch]
    z = neg * fwd.out
    # the terms are >= 0, so a finite mean has finite terms, and a finite
    # sum of z (= +-out) finite outputs; else find the sample to name
    with np.errstate(over="ignore"):
        terms = np.exp(z)
        mean = float(np.add.reduce(terms)) / len(batch)
        finite = math.isfinite(mean) and math.isfinite(np.add.reduce(z))
    if not finite:
        bad = np.flatnonzero(~(np.isfinite(fwd.out) & np.isfinite(terms)))
        if bad.size:
            s = bad[0]
            what = "network output" if not math.isfinite(fwd.out[s]) else "loss"
            raise NonFiniteError(f"non-finite {what} of sample {batch[s]}")
        if not math.isfinite(mean):
            raise NonFiniteError("non-finite batch loss")
    wrong = int(np.count_nonzero((fwd.out > 0.0) != (neg < 0.0)))
    # d mean / d out_s = exp(-y_s out_s) * -y_s / n
    terms *= neg
    terms /= len(batch)
    grads = fwd.vjp(terms)
    bad = grads.non_finite_entry()
    if bad is not None:
        raise NonFiniteError(f"non-finite gradient of {bad}")
    return grads, mean, wrong


def train(data: LabeledDataset, cfg: TrainConfig = TrainConfig()) -> TrainReport:
    """Fit the network to a labeled dataset and return the full report.

    Deterministic for a fixed (data, config): batch order and
    initialization derive from cfg.seed.  Raises ValueError naming the
    first config field out of its range, UnsoundConfigError when the
    activation parameters cannot guarantee sign agreement, or slope_end
    exceeds 1 (pass allow_unsound to proceed anyway), and DivergenceError
    naming the epoch, batch and quantity when a non-finite value shows up
    mid-training.
    """
    if not len(data):
        raise ValueError("cannot train on an empty dataset")
    labels = np.unique(data.y).tolist()
    if labels != [-1, 1]:
        raise ValueError(f"training data must contain both classes, got labels {labels}")
    length, dim = data.length, data.dim
    for key in ("epochs", "batch_size", "lr", "beta", "h", "eps", "slope_start", "slope_end"):
        if getattr(cfg, key) <= 0:
            raise ValueError(f"{key} must be positive, got {getattr(cfg, key)}")
    if not 0.0 <= cfg.beta_hold <= 1.0:
        raise ValueError(f"beta_hold must lie in [0, 1], got {cfg.beta_hold}")
    if cfg.beta_start < 0:
        raise ValueError(f"beta_start must be >= 0 (0 keeps beta fixed), got {cfg.beta_start}")
    if cfg.k < 0:
        raise ValueError(f"k must be >= 0 (0 picks 4 * dim), got {cfg.k}")
    if cfg.k % (2 * dim):
        raise ValueError(f"k must be a multiple of 2 * dim = {2 * dim}, got {cfg.k}")
    if cfg.m < 1:
        raise ValueError(f"m must be >= 1, got {cfg.m}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")

    shape = NetworkShape.cycled(dim, cfg.k if cfg.k > 0 else None, cfg.m)
    p_final = cfg.activation()
    failure = guarantee_failure(p_final, shape, length, "slope_end")
    if failure is not None and not cfg.allow_unsound:
        raise UnsoundConfigError(failure)
    rng = np.random.default_rng([cfg.seed, 7])
    params = init_params(data, shape, rng)
    rate = np.full(shape.k, cfg.lr)
    opt = _Optimizer(ModelParams(rate, rate, rate, np.full(params.M.shape, LR_GATES)).flat)
    box = _feasible_box(params, length)

    # labels as floats once, so that a batch reads its own without a cast
    n, X, y = len(data), data.X, data.y.astype(np.float64)
    losses: List[float] = []
    train_mcr: List[float] = []
    epoch_seconds: List[float] = []
    ws: dict = {}  # one workspace for every batch's network pass
    beta0 = cfg.beta_start if cfg.beta_start > 0 else cfg.beta
    for epoch in range(cfg.epochs):
        if epoch == cfg.epochs - 1:
            # the last epoch trains at the activation the report records,
            # whatever beta_hold is
            p = p_final
        else:
            frac = epoch / (cfg.epochs - 1)
            slope = cfg.slope_start + (cfg.slope_end - cfg.slope_start) * frac
            # Soft selection early so every lane feels the class gradient and
            # thresholds can place themselves, sharp selection late so the
            # network matches the extracted formula's min/max semantics.
            # frac < 1 here, so the ramp's divisor 1 - beta_hold is positive.
            if frac <= cfg.beta_hold:
                ramp = 0.0
            else:
                ramp = (frac - cfg.beta_hold) / (1.0 - cfg.beta_hold)
            beta = beta0 + (cfg.beta - beta0) * ramp
            p = replace(p_final, slope=slope, beta=beta)
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        wrong = 0
        for index, lo in enumerate(range(0, n, cfg.batch_size)):
            batch = order[lo : lo + cfg.batch_size]
            try:
                grads, batch_loss, batch_wrong = _batch_gradients(X, y, batch, params, shape, p, ws)
            except NonFiniteError as e:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, batch {index}: {e}"
                ) from e
            loss_sum += batch_loss * len(batch)
            wrong += batch_wrong
            opt.step(params, grads)
            project_params(params, *box)
        losses.append(loss_sum / n)
        train_mcr.append(wrong / n)
        epoch_seconds.append(time.perf_counter() - started)

    extracted = extract_formula(params, shape)
    pruned_gates = simplify(params, shape, data)
    simplified = formula_from_gates(params, shape, pruned_gates)
    return TrainReport(
        config=cfg,
        shape=shape,
        activation=p_final,
        params=params,
        losses=losses,
        train_mcr=train_mcr,
        epoch_seconds=epoch_seconds,
        formula_text=format_formula(extracted),
        simplified_text=format_formula(simplified),
    )
