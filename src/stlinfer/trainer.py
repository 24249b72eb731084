"""Training loop, parameter projection, formula extraction and pruning.

The trainer fits the formula network by minimizing the exponential margin
loss exp(-label * output) with an adaptive-moment optimizer built here
(first/second moment estimates with bias correction).  Each batch is one
batched network pass over its signals (n, l, dim), the mean loss, and one
closed-form backward of that pass.  After every step the parameters are
projected back into their feasible box: gates into [0, 1], window ends
into [0, l-1] with t1 <= t2.

Extraction thresholds the gate matrix at 0.5, drops rows with no open
gate, floors t1 and ceils t2, and reads one conjunction clause per
surviving row.  Pruning then greedily zeroes gates one at a time in
row-major order, keeping a removal only when the exact-semantics
misclassification count on the training data is unchanged, so the pruned
formula never classifies worse than the extracted one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict, replace
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from .datasets import LabeledDataset
from .network import (
    ActivationParams,
    EmptyFormulaError,
    ModelParams,
    NetworkShape,
    NonFiniteError,
    guarantee_failure,
    network_pass,
    non_finite_entry,
)
from .stl import (
    Formula,
    Predicate,
    TemporalAtom,
    atom_matrix,
    clauses_hold,
    dnf,
    format_formula,
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
    lr_gates: float = 0.1
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
    optimizer: str = "adam"  # 'adam' (adaptive-moment) or 'gd' (plain descent)
    grad_clip: float = 1.0  # global gradient norm cap; 0 disables
    gate_sampling: bool = False
    allow_unsound: bool = False

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TrainConfig":
        """Read `key = value` lines; '#' starts a comment, blank lines ok."""
        values = {}
        fields = {f: t for f, t in cls.__annotations__.items()}
        text = Path(path).read_text(encoding="utf-8")
        for lineno, raw in enumerate(text.split("\n"), start=1):
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
            values[key] = _parse_config_value(key, val, path, lineno)
        return cls(**values)

    def activation(
        self, slope: Optional[float] = None, beta: Optional[float] = None
    ) -> ActivationParams:
        return ActivationParams(
            beta=self.beta if beta is None else beta,
            h=self.h,
            eps=self.eps,
            slope=self.slope_end if slope is None else slope,
        )


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
        if kind == "float":
            x = float(val)
            if not math.isfinite(x):
                raise ValueError(f"not a finite number: '{val}'")
            return x
        return val
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
            "params": {
                "b": self.params.b.tolist(),
                "t1": self.params.t1.tolist(),
                "t2": self.params.t2.tolist(),
                "M": self.params.M.tolist(),
            },
            "losses": self.losses,
            "train_mcr": self.train_mcr,
            "formula": self.formula_text,
            "simplified": self.simplified_text,
        }


class _Optimizer:
    """Per-group gradient steps: plain descent or adaptive-moment.

    The adaptive variant uses a short second-moment memory (beta2 = 0.9):
    lanes that lose the min/max selection see their gradient magnitude
    drop by orders of magnitude, and a long memory would freeze them for
    thousands of steps afterwards.
    """

    def __init__(
        self,
        lrs: dict,
        kind: str = "adam",
        beta1: float = 0.9,
        beta2: float = 0.9,
        eps: float = 1e-8,
        clip: float = 0.0,
    ):
        if kind not in ("adam", "gd"):
            raise ValueError(f"unknown optimizer kind '{kind}' (use 'adam' or 'gd')")
        self.lrs = lrs
        self.kind = kind
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.clip = clip
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, arrays: dict, grads: dict) -> None:
        if self.clip > 0:
            # Exponential loss makes early gradients huge; without a cap the
            # second-moment estimate saturates and later steps vanish.
            norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if norm > self.clip:
                grads = {k: g * (self.clip / norm) for k, g in grads.items()}
        if self.kind == "gd":
            for name, x in arrays.items():
                x -= self.lrs[name] * grads[name]
            return
        self.t += 1
        for name, x in arrays.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(x)
                self.v[name] = np.zeros_like(x)
            self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * g * g
            mhat = self.m[name] / (1 - self.beta1**self.t)
            vhat = self.v[name] / (1 - self.beta2**self.t)
            x -= self.lrs[name] * mhat / (np.sqrt(vhat) + self.eps)


def init_params(
    data: LabeledDataset,
    shape: NetworkShape,
    length: int,
    rng: np.random.Generator,
) -> ModelParams:
    """Offsets drawn inside the 10th-90th percentile band of each slot's
    signed axis values; windows start full; gates start near 0.5."""
    b = np.empty(shape.k)
    for j, slot in enumerate(shape.slots):
        pooled = slot.sign * data.X[:, :, slot.axis].ravel()
        lo, hi = np.percentile(pooled, [10.0, 90.0])
        b[j] = rng.uniform(lo, hi)
    t1 = np.zeros(shape.k)
    t2 = np.full(shape.k, float(length - 1))
    M = rng.uniform(0.4, 0.6, size=(shape.m, shape.k))
    return ModelParams(b, t1, t2, M)


def project_params(params: ModelParams, length: int) -> None:
    """Clamp parameters in place to their feasible box after a step."""
    np.clip(params.M, 0.0, 1.0, out=params.M)
    np.clip(params.t1, 0.0, float(length - 1), out=params.t1)
    np.clip(params.t2, 0.0, float(length - 1), out=params.t2)
    swapped = params.t1 > params.t2
    if np.any(swapped):
        mid = 0.5 * (params.t1[swapped] + params.t2[swapped])
        params.t1[swapped] = mid
        params.t2[swapped] = mid


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
    return formula_from_gates(params, shape, (params.M >= 0.5).astype(np.float64))


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

    The exact robustness of each slot atom is computed once, and every
    trial is `clauses_hold` over the matrix of holding atoms (one row per
    sample, one column per slot the extracted formula uses) with the
    trial's gate rows as clauses.
    """
    if not len(data):
        raise ValueError("cannot simplify against an empty dataset")
    gates = (params.M >= 0.5).astype(np.float64)
    # Pruning only closes gates, so only the extracted formula's atoms are
    # ever read; a closed slot's window need not even fit the signals.
    used = np.flatnonzero(gates.any(axis=0))
    if not used.size:
        raise EmptyFormulaError("every gate is closed; nothing to simplify")
    atoms = _slot_atoms(params, shape)
    holds = atom_matrix(data.X, [atoms[j] for j in used]) > 0.0
    positive = data.y == 1

    def wrong_count(trial: np.ndarray) -> int:
        return int(np.count_nonzero(clauses_hold(holds, trial[:, used] > 0.0) != positive))

    baseline = wrong_count(gates)

    def try_zero(mask: np.ndarray) -> None:
        nonlocal gates
        trial = gates.copy()
        trial[mask] = 0.0
        if not trial.any() or np.array_equal(trial, gates):
            return
        if wrong_count(trial) == baseline:
            gates = trial

    for i in range(gates.shape[0]):
        for j in range(gates.shape[1]):
            if gates[i, j] != 0.0:
                single = np.zeros_like(gates, dtype=bool)
                single[i, j] = True
                try_zero(single)
    for i in range(gates.shape[0]):
        row = np.zeros_like(gates, dtype=bool)
        row[i, :] = True
        try_zero(row)
    return gates


def _batch_gradients(X, y, batch, params, shape, p, gates):
    """One batch: the network pass, the mean loss and its gradients.

    Returns (gradients per parameter group, mean loss, misclassified
    count).  Raises NonFiniteError naming the first non-finite parameter,
    network output, loss or gradient entry.
    """
    fwd = network_pass(X[batch], params, shape, p, gates)
    labels = y[batch].astype(np.float64)
    with np.errstate(over="ignore"):
        terms = np.exp(-labels * fwd.out)
        mean = float(terms.mean())
    bad = np.flatnonzero(~(np.isfinite(fwd.out) & np.isfinite(terms)))
    if bad.size:
        s = bad[0]
        what = "network output" if not math.isfinite(fwd.out[s]) else "loss"
        raise NonFiniteError(f"non-finite {what} of sample {batch[s]}")
    if not math.isfinite(mean):
        raise NonFiniteError("non-finite batch loss")
    wrong = int(np.count_nonzero((fwd.out > 0.0) != (labels > 0.0)))
    # d mean / d out_s = exp(-y_s out_s) * -y_s / n
    grads = fwd.vjp(terms * -labels / len(batch))
    bad = non_finite_entry(grads)
    if bad is not None:
        raise NonFiniteError(f"non-finite gradient of {bad}")
    return grads, mean, wrong


def train(data: LabeledDataset, cfg: TrainConfig = TrainConfig()) -> TrainReport:
    """Fit the network to a labeled dataset and return the full report.

    Deterministic for a fixed (data, config): batch order, initialization
    and any gate sampling all derive from cfg.seed.  Raises
    UnsoundConfigError when the activation parameters cannot guarantee
    sign agreement, or slope_end exceeds 1 (pass allow_unsound to proceed
    anyway), and DivergenceError naming the epoch, batch and quantity
    when a non-finite value shows up mid-training.
    """
    if not len(data):
        raise ValueError("cannot train on an empty dataset")
    labels = np.unique(data.y).tolist()
    if labels != [-1, 1]:
        raise ValueError(f"training data must contain both classes, got labels {labels}")
    length, dim = data.length, data.dim
    if cfg.epochs < 1 or cfg.batch_size < 1:
        raise ValueError("epochs and batch_size must be positive")
    if cfg.lr <= 0 or cfg.lr_gates <= 0:
        raise ValueError("learning rates must be positive")

    shape = NetworkShape.cycled(dim, cfg.k if cfg.k > 0 else None, cfg.m)
    p_final = cfg.activation()
    failure = guarantee_failure(p_final, max(length, shape.k, shape.m), "slope_end")
    if failure is not None and not cfg.allow_unsound:
        raise UnsoundConfigError(failure)
    rng = np.random.default_rng([cfg.seed, 7])
    gate_rng = np.random.default_rng([cfg.seed, 13]) if cfg.gate_sampling else None
    params = init_params(data, shape, length, rng)
    opt = _Optimizer(
        {"b": cfg.lr, "t1": cfg.lr, "t2": cfg.lr, "M": cfg.lr_gates},
        kind=cfg.optimizer,
        clip=cfg.grad_clip,
    )

    n, X, y = len(data), data.X, data.y
    losses: List[float] = []
    train_mcr: List[float] = []
    epoch_seconds: List[float] = []
    beta0 = cfg.beta_start if cfg.beta_start > 0 else cfg.beta
    for epoch in range(cfg.epochs):
        if cfg.epochs == 1:
            frac = 1.0
        else:
            frac = epoch / (cfg.epochs - 1)
        slope = cfg.slope_start + (cfg.slope_end - cfg.slope_start) * frac
        # Soft selection early so every lane feels the class gradient and
        # thresholds can place themselves, sharp selection late so the
        # network matches the extracted formula's min/max semantics.
        if frac <= cfg.beta_hold:
            ramp = 0.0
        else:
            ramp = (frac - cfg.beta_hold) / max(1.0 - cfg.beta_hold, 1e-9)
        beta = beta0 + (cfg.beta - beta0) * ramp
        p = replace(p_final, slope=slope, beta=beta)
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        wrong = 0
        for index, lo in enumerate(range(0, n, cfg.batch_size)):
            batch = order[lo : lo + cfg.batch_size]
            if gate_rng is None:
                gates = (params.M >= 0.5).astype(np.float64)
            else:
                gates = (gate_rng.random(params.M.shape) < params.M).astype(np.float64)
            try:
                grads, batch_loss, batch_wrong = _batch_gradients(
                    X, y, batch, params, shape, p, gates
                )
            except NonFiniteError as e:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, batch {index}: {e}"
                ) from e
            loss_sum += batch_loss * len(batch)
            wrong += batch_wrong
            arrays = {"b": params.b, "t1": params.t1, "t2": params.t2, "M": params.M}
            opt.step(arrays, grads)
            project_params(params, length)
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
