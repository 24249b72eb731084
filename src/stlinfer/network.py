"""Differentiable formula network: axis-aligned predicates, windowed
temporal pooling, and a gated conjunction/disjunction stage.

Every pooling step uses a sparse softmax (or softmin) whose output sign
provably matches the sign of the true selected extremum whenever the
temperature, output bound and vector length satisfy a simple inequality;
soundness_bound_check tests it.  That property is what lets a formula read
out of the trained parameters classify exactly like the network itself.

The sparse softmax of values r with selection weights w and parameters
(beta, h, eps) is

    r'_i  = r_i * w_i
    r''_i = h * r'_i / (|max_i r'_i| + eps)
    q_i   = softmax(beta * r'')_i
    out   = sum_i r_i w_i q_i / sum_i w_i q_i

computed here in ratio form with the common softmax normalizer cancelled
and exponents shifted by a constant, which is algebraically identical but
immune to exp underflow when every selected value is deeply negative.
Entries with w_i = 0 contribute exactly zero to both sums, so perturbing
them never changes the output.

The network is computed two ways.  Training builds it on an autodiff tape
(`forward`), one signal at a time, because it needs gradients.  Every
value-only use (`network_outputs`, `network_output` and the `*_value`
helpers, hence evaluation and sign agreement) runs batched numpy arrays
over signals taken CHUNK at a time.  The batched path performs the tape's
arithmetic in the tape's order, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tape, Var
from .stl import CHUNK, TemporalOp

__all__ = [
    "ActivationParams",
    "SlotSpec",
    "NetworkShape",
    "ModelParams",
    "ParamVars",
    "EmptySelectionError",
    "EmptyFormulaError",
    "soundness_bound_check",
    "soundness_bound_text",
    "sparse_softmax",
    "sparse_softmin",
    "sparse_softmax_value",
    "sparse_softmin_value",
    "time_indicator",
    "time_indicator_values",
    "predicate_layer",
    "slot_windows",
    "binarize_gates",
    "temporal_layer",
    "conjunction_layer",
    "disjunction_layer",
    "forward",
    "lift_params",
    "network_outputs",
    "network_output",
]


class EmptySelectionError(ValueError):
    """The selection weights are all zero: an empty time window."""


class EmptyFormulaError(ValueError):
    """Every conjunction row is gated off, leaving nothing to disjoin."""


@dataclass(frozen=True)
class ActivationParams:
    """Shared parameters of the sparse softmax activations.

    beta is the softmax temperature (default 25/h), h the normalization
    bound, eps the guard added to the scaling denominator, and slope the
    shoulder width of the soft time window.
    """

    beta: float = 25.0
    h: float = 1.0
    eps: float = 1e-8
    slope: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or self.h <= 0 or self.eps <= 0 or self.slope <= 0:
            raise ValueError("beta, h, eps and slope must all be positive")


@dataclass(frozen=True)
class SlotSpec:
    """Fixed structure of one temporal slot: which axis it reads, the sign
    of the predicate, and whether the window pools by min or max."""

    axis: int
    sign: int
    op: TemporalOp


@dataclass(frozen=True)
class NetworkShape:
    slots: tuple[SlotSpec, ...]
    m: int

    def __post_init__(self):
        if not self.slots:
            raise ValueError("network needs at least one temporal slot")
        if self.m < 1:
            raise ValueError("network needs at least one conjunction row")

    @property
    def k(self) -> int:
        return len(self.slots)

    @classmethod
    def cycled(cls, dim: int, k: Optional[int] = None, m: int = 2) -> "NetworkShape":
        """Default slot allocation for a dim-axis signal.

        (axis, sign) pairs cycle through all 2*dim combinations and the
        pooling kind alternates min, max.  The alternation phase flips on
        each full cycle, so k = 4*dim (the default) covers every
        (axis, sign, kind) combination once.
        """
        if dim < 1:
            raise ValueError("signal dimension must be positive")
        if k is None:
            k = 4 * dim
        if k % (2 * dim) != 0 or k <= 0:
            raise ValueError(f"slot count {k} must be a positive multiple of {2 * dim}")
        pairs = [(axis, sign) for axis in range(dim) for sign in (1, -1)]
        slots = []
        for j in range(k):
            axis, sign = pairs[j % (2 * dim)]
            phase = (j + j // (2 * dim)) % 2
            op = TemporalOp.ALWAYS if phase == 0 else TemporalOp.EVENTUALLY
            slots.append(SlotSpec(axis, sign, op))
        return cls(tuple(slots), m)


@dataclass
class ModelParams:
    """Trainable parameters: predicate offsets b, window ends t1/t2 (one
    each per slot), and the conjunction gate matrix M of shape (m, k)."""

    b: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        self.t1 = np.asarray(self.t1, dtype=np.float64)
        self.t2 = np.asarray(self.t2, dtype=np.float64)
        self.M = np.asarray(self.M, dtype=np.float64)
        k = self.b.shape[0]
        if self.t1.shape != (k,) or self.t2.shape != (k,):
            raise ValueError("b, t1 and t2 must share shape (k,)")
        if self.M.ndim != 2 or self.M.shape[1] != k:
            raise ValueError("gate matrix must have shape (m, k)")

    def copy(self) -> "ModelParams":
        return ModelParams(self.b.copy(), self.t1.copy(), self.t2.copy(), self.M.copy())

    def snapped(self) -> "ModelParams":
        """Integral windows and binary gates: t1 floors, t2 ceils, gates
        threshold at 0.5.  With slope <= 1 the network then evaluates the
        same windows the extracted formula uses."""
        return ModelParams(
            self.b.copy(),
            np.floor(self.t1),
            np.ceil(self.t2),
            (self.M >= 0.5).astype(np.float64),
        )


@dataclass
class ParamVars:
    """Tape leaves for one forward build."""

    b: List[Var]
    t1: List[Var]
    t2: List[Var]
    m_rows: List[Var]


def soundness_bound_check(p: ActivationParams, length: int) -> bool:
    """True when sign agreement of the sparse softmax is guaranteed for
    selection vectors of the given length: h*e^(beta*h) > (l-1)/(e*beta)."""
    if length < 1:
        raise ValueError("length must be at least 1")
    rhs = (length - 1) * math.exp(-1.0) / p.beta
    try:
        lhs = p.h * math.exp(p.beta * p.h)
    except OverflowError:
        return True
    return lhs > rhs


def soundness_bound_text(p: ActivationParams, length: int) -> str:
    rhs = (length - 1) * math.exp(-1.0) / p.beta
    try:
        lhs = p.h * math.exp(p.beta * p.h)
        lhs_text = f"{lhs:.6g}"
    except OverflowError:
        lhs_text = "inf"
    rel = ">" if soundness_bound_check(p, length) else "<="
    return (
        f"h*exp(beta*h) = {lhs_text} {rel} (l-1)/(e*beta) = {rhs:.6g} "
        f"(beta={p.beta:g}, h={p.h:g}, l={length})"
    )


def sparse_softmax(r: Var, w: Var, p: ActivationParams) -> Var:
    """Smooth, sign-sound stand-in for max over the entries selected by w.

    Output always lies between the min and max of the selected entries.
    Raises EmptySelectionError when no weight is positive.
    """
    rp = ad.mul(r, w)
    am = ad.abs_max(rp)
    den = ad.add(am, p.eps)
    rpp = ad.div(ad.scale(rp, p.h), den)
    z = ad.scale(rpp, p.beta)
    wv = w.value
    support = wv > 0.0
    if not support.any():
        raise EmptySelectionError("selection weights are all zero (empty time window)")
    # constant shift: softmax ratios are shift-invariant, so the true
    # gradient through the shift is identically zero
    shift = float(np.max(np.asarray(z.value)[support]))
    zs = ad.sub(z, shift)
    # clamp at 0 so zero-weight lanes cannot overflow exp; their terms are
    # multiplied by w_i = 0 and never reach the output value
    zc = ad.sub(zs, ad.relu(zs))
    u = ad.mul(w, ad.exp(zc))
    num = ad.vsum(ad.mul(r, u))
    den2 = ad.vsum(u)
    if den2.value <= 0.0:
        raise EmptySelectionError("selection weights vanished under the softmax")
    return ad.div(num, den2)


def sparse_softmin(r: Var, w: Var, p: ActivationParams) -> Var:
    """Sign-sound stand-in for min over selected entries: -softmax(-r)."""
    return ad.scale(sparse_softmax(ad.scale(r, -1.0), w, p), -1.0)


def _relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def _softmax_rows(r: np.ndarray, w: np.ndarray, p: ActivationParams) -> np.ndarray:
    """Value of sparse_softmax along the last axis, with the tape ops'
    arithmetic in the tape's order.  `w` broadcasts against `r` and must
    select at least one entry in each of its rows."""
    support = w > 0.0
    if not support.any(axis=-1).all():
        raise EmptySelectionError("selection weights are all zero (empty time window)")
    rp = r * w
    z = rp * p.h / (np.abs(rp.max(axis=-1, keepdims=True)) + p.eps) * p.beta
    zs = z - np.where(support, z, -np.inf).max(axis=-1, keepdims=True)
    u = w * np.exp(zs - _relu(zs))
    return (r * u).sum(axis=-1) / u.sum(axis=-1)


def sparse_softmax_value(r: np.ndarray, w: np.ndarray, p: ActivationParams) -> float:
    r = np.asarray(r, dtype=np.float64)
    return float(_softmax_rows(r, np.asarray(w, dtype=np.float64), p))


def sparse_softmin_value(r: np.ndarray, w: np.ndarray, p: ActivationParams) -> float:
    r = np.asarray(r, dtype=np.float64)
    return -float(_softmax_rows(-r, np.asarray(w, dtype=np.float64), p))


def time_indicator(tape: Tape, t1: Var, t2: Var, slope: float, length: int) -> Var:
    """Soft indicator of the window [t1, t2] on the grid 0..length-1.

    Trapezoid built from relu ramps: rises from 0 at t1-slope to 1 at t1,
    stays 1 through t2, and falls back to 0 at t2+slope.  For integer
    t1 <= t2 and slope <= 1 it is exactly the binary window indicator.
    Differentiable in t1 and t2.
    """
    if slope <= 0:
        raise ValueError("slope must be positive")
    grid = tape.const(np.arange(length, dtype=np.float64))
    rise = ad.scale(
        ad.sub(ad.relu(ad.sub(grid, ad.sub(t1, slope))), ad.relu(ad.sub(grid, t1))),
        1.0 / slope,
    )
    fall = ad.scale(
        ad.sub(ad.relu(ad.sub(ad.add(t2, slope), grid)), ad.relu(ad.sub(t2, grid))),
        1.0 / slope,
    )
    return ad.minimum(rise, fall)


def _window_rows(t1: np.ndarray, t2: np.ndarray, slope: float, length: int) -> np.ndarray:
    """time_indicator's values for every slot at once: shape (k, length)."""
    if slope <= 0:
        raise ValueError("slope must be positive")
    grid = np.arange(length, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)[:, None]
    t2 = np.asarray(t2, dtype=np.float64)[:, None]
    rise = (_relu(grid - (t1 - slope)) - _relu(grid - t1)) * (1.0 / slope)
    fall = (_relu((t2 + slope) - grid) - _relu(t2 - grid)) * (1.0 / slope)
    return rise - _relu(rise - fall)


def time_indicator_values(t1: float, t2: float, slope: float, length: int) -> np.ndarray:
    return _window_rows([float(t1)], [float(t2)], slope, length)[0]


def predicate_layer(tape: Tape, values: np.ndarray, shape: NetworkShape, b: Sequence[Var]) -> List[Var]:
    """Per-slot robustness rows: sign * s[:, axis] - b_j, each length l."""
    rows = []
    for j, slot in enumerate(shape.slots):
        signed = slot.sign * values[:, slot.axis]
        rows.append(ad.sub(tape.const(signed), b[j]))
    return rows


def slot_windows(
    tape: Tape,
    t1: Sequence[Var],
    t2: Sequence[Var],
    p: ActivationParams,
    length: int,
) -> List[Var]:
    """Window indicator per slot.  Depends only on parameters, so a batch
    loop should build these once and share them across samples."""
    return [time_indicator(tape, a, b, p.slope, length) for a, b in zip(t1, t2)]


def binarize_gates(
    m_rows: Sequence[Var],
    gate_rng: Optional[np.random.Generator] = None,
) -> List[Var]:
    """Straight-through binarized gate row per conjunction row."""
    return [ad.ste_binarize(row, gate_rng) for row in m_rows]


def temporal_layer(
    rows: Sequence[Var],
    windows: Sequence[Var],
    shape: NetworkShape,
    p: ActivationParams,
) -> List[Var]:
    """Pool each predicate row over its learned window: min pooling for
    always-slots, max pooling for eventually-slots."""
    out = []
    for j, slot in enumerate(shape.slots):
        if slot.op is TemporalOp.ALWAYS:
            out.append(sparse_softmin(rows[j], windows[j], p))
        else:
            out.append(sparse_softmax(rows[j], windows[j], p))
    return out


def conjunction_layer(
    g: Sequence[Var],
    gates: Sequence[Var],
    p: ActivationParams,
) -> tuple[List[Var], np.ndarray]:
    """Gated min pooling of the slot outputs, one value per live row.

    Gates are the straight-through binarized entries of each row of M.  A
    row whose gates all binarize to zero is dead: it is skipped entirely
    and marked 0 in the returned live mask.
    """
    gvec = ad.stack(list(g))
    hs: List[Var] = []
    live = np.zeros(len(gates), dtype=bool)
    for i, grow in enumerate(gates):
        if not np.any(grow.value > 0.0):
            continue
        live[i] = True
        hs.append(sparse_softmin(gvec, grow, p))
    return hs, live


def disjunction_layer(hs: Sequence[Var], p: ActivationParams) -> Var:
    """Max pooling over the live conjunction rows."""
    if not hs:
        raise EmptyFormulaError("every conjunction row is gated off")
    if len(hs) == 1:
        return hs[0]
    tape = hs[0].tape
    hvec = ad.stack(list(hs))
    ones = tape.const(np.ones(len(hs), dtype=np.float64))
    return sparse_softmax(hvec, ones, p)


def lift_params(tape: Tape, params: ModelParams) -> ParamVars:
    return ParamVars(
        b=[tape.leaf(float(v)) for v in params.b],
        t1=[tape.leaf(float(v)) for v in params.t1],
        t2=[tape.leaf(float(v)) for v in params.t2],
        m_rows=[tape.leaf(params.M[i].copy()) for i in range(params.M.shape[0])],
    )


def forward(
    tape: Tape,
    values: np.ndarray,
    pv: ParamVars,
    shape: NetworkShape,
    p: ActivationParams,
    gate_rng: Optional[np.random.Generator] = None,
    windows: Optional[Sequence[Var]] = None,
    gates: Optional[Sequence[Var]] = None,
) -> Var:
    """Full network pass on one signal; returns the scalar output var.

    Positive output means the signal is predicted to satisfy the learned
    formula.  `values` has shape (length, dim), time-major.  `windows`
    and `gates` accept the parameter-only pieces prebuilt by a batch
    loop; left as None they are built here.
    """
    values = np.asarray(values, dtype=np.float64)
    length = values.shape[0]
    if windows is None:
        windows = slot_windows(tape, pv.t1, pv.t2, p, length)
    if gates is None:
        gates = binarize_gates(pv.m_rows, gate_rng)
    rows = predicate_layer(tape, values, shape, pv.b)
    g = temporal_layer(rows, windows, shape, p)
    hs, _ = conjunction_layer(g, gates, p)
    return disjunction_layer(hs, p)


def network_outputs(
    X: np.ndarray,
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
) -> np.ndarray:
    """Network output for every signal of X (n, length, dim), value only.

    Runs forward()'s arithmetic in forward()'s order on arrays, so each
    output equals the tape's bit for bit.  Windows and gates depend only
    on the parameters and are built once; the signals go CHUNK at a time
    through predicate rows (n, k, length), sparse softmin/softmax along
    time, the gated conjunction over (n, k) and the disjunction over the
    live rows.  Raises the tape's EmptySelectionError/EmptyFormulaError,
    and NonFiniteError where the tape would have met a non-finite value.
    """
    X = np.asarray(X, dtype=np.float64)
    if not all(np.isfinite(a).all() for a in (params.b, params.t1, params.t2, params.M)):
        raise NonFiniteError("non-finite model parameter")
    windows = _window_rows(params.t1, params.t2, p.slope, X.shape[1])
    if not (windows > 0.0).any(axis=1).all():
        raise EmptySelectionError("selection weights are all zero (empty time window)")
    gates = (params.M >= 0.5).astype(np.float64)
    live = gates[(gates > 0.0).any(axis=1)]
    if not live.size:
        raise EmptyFormulaError("every conjunction row is gated off")
    axes = [slot.axis for slot in shape.slots]
    signs = np.array([[slot.sign] for slot in shape.slots], dtype=np.float64)
    # softmin(r) = -softmax(-r): always-slots flip sign on the way in and out
    flip = np.array(
        [-1.0 if slot.op is TemporalOp.ALWAYS else 1.0 for slot in shape.slots]
    )
    out = np.empty(X.shape[0], dtype=np.float64)
    for lo in range(0, X.shape[0], CHUNK):
        # contiguous (n, k, length), so each reduction sums a row in the
        # same order as the tape's 1-D sums
        values = np.ascontiguousarray(X[lo : lo + CHUNK][:, :, axes].transpose(0, 2, 1))
        rows = signs * values - params.b[:, None]
        g = flip * _softmax_rows(flip[:, None] * rows, windows, p)
        h = -_softmax_rows(-g[:, None, :], live, p)
        out[lo : lo + CHUNK] = h[:, 0] if len(live) == 1 else _softmax_rows(h, np.ones(len(live)), p)
    if not np.isfinite(out).all():
        raise NonFiniteError("non-finite network output")
    return out


def network_output(
    values: np.ndarray,
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
) -> float:
    """Value-only forward pass on one signal of shape (length, dim)."""
    X = np.asarray(values, dtype=np.float64)[None]
    return float(network_outputs(X, params, shape, p)[0])
