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

The network is computed one way: `network_pass` runs it on numpy arrays
over a batch of signals X (n, length, dim) and keeps the intermediates
that `NetworkPass.vjp` turns into gradients of the four parameter groups
in closed form.  Training calls the pair once per batch; every value-only
use (`network_outputs`, `network_output` and the `*_value` helpers, hence
evaluation and sign agreement) runs the same forward over signals taken
CHUNK at a time.  `guarantee_failure` names the precondition of sign
agreement that a set of activation parameters fails, if any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .stl import TemporalOp

__all__ = [
    "ActivationParams",
    "SlotSpec",
    "NetworkShape",
    "ModelParams",
    "NetworkPass",
    "EmptySelectionError",
    "EmptyFormulaError",
    "NonFiniteError",
    "soundness_bound_check",
    "soundness_bound_text",
    "guarantee_failure",
    "sparse_softmax_value",
    "sparse_softmin_value",
    "time_indicator_values",
    "network_pass",
    "network_outputs",
    "network_output",
    "CHUNK",
]

# network_outputs takes samples this many at a time, so that its
# (n, k, length) temporaries stay small whatever the dataset size.
CHUNK = 128


class EmptySelectionError(ValueError):
    """The selection weights are all zero: an empty time window."""


class EmptyFormulaError(ValueError):
    """Every conjunction row is gated off, leaving nothing to disjoin."""


class NonFiniteError(FloatingPointError):
    """A parameter or network output is NaN or infinite."""


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
        for name in ("beta", "h", "eps", "slope"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.beta <= 0 or self.h <= 0 or self.eps <= 0 or self.slope <= 0:
            raise ValueError("beta, h, eps and slope must all be positive")


@dataclass(frozen=True)
class SlotSpec:
    """Fixed structure of one temporal slot: which axis it reads, the sign
    of the predicate, and whether the window pools by min or max."""

    axis: int
    sign: int
    op: TemporalOp

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"slot sign must be +1 or -1, got {self.sign}")
        if self.axis < 0:
            raise ValueError(f"slot axis must be nonnegative, got {self.axis}")


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


def _soundness_sides(p: ActivationParams, length: int) -> tuple[float, float]:
    """Both sides of h*e^(beta*h) > (l-1)/(e*beta); the left is inf when
    it overflows."""
    if length < 1:
        raise ValueError("length must be at least 1")
    rhs = (length - 1) * math.exp(-1.0) / p.beta
    try:
        lhs = p.h * math.exp(p.beta * p.h)
    except OverflowError:
        lhs = math.inf
    return lhs, rhs


def soundness_bound_check(p: ActivationParams, length: int) -> bool:
    """True when sign agreement of the sparse softmax is guaranteed for
    selection vectors of the given length: h*e^(beta*h) > (l-1)/(e*beta)."""
    lhs, rhs = _soundness_sides(p, length)
    return lhs > rhs


def soundness_bound_text(p: ActivationParams, length: int) -> str:
    lhs, rhs = _soundness_sides(p, length)
    rel = ">" if lhs > rhs else "<="
    return (
        f"h*exp(beta*h) = {lhs:.6g} {rel} (l-1)/(e*beta) = {rhs:.6g} "
        f"(beta={p.beta:g}, h={p.h:g}, l={length})"
    )


def guarantee_failure(
    p: ActivationParams, length: int, slope_name: str = "slope"
) -> Optional[str]:
    """The first precondition of sign agreement between the snapped
    network and its extracted formula that p fails on signals of the given
    length (the largest of l, k and m), as an error message naming the
    slope `slope_name`; None when both hold."""
    if not soundness_bound_check(p, length):
        return (
            "activation parameters fail the sign-soundness bound: "
            + soundness_bound_text(p, length)
        )
    if p.slope > 1.0:
        # a wider shoulder gives weight to steps just outside the snapped
        # window [floor t1, ceil t2], which the extracted formula ignores
        return (
            f"{slope_name} = {p.slope:g} exceeds 1: the trained network's windows "
            "would reach past the extracted formula's, so their signs may disagree"
        )
    return None


def _relu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, 0.0)


def _softmax_rows(r: np.ndarray, w: np.ndarray, p: ActivationParams):
    """Sparse softmax along the last axis; `w` broadcasts against `r` and
    must select at least one entry in each of its rows.

    Returns the values and the intermediates `_softmax_vjp` reads.  The
    shift by the largest selected exponent is a constant (softmax ratios
    do not depend on it), and clamping at 0 keeps zero-weight lanes from
    overflowing exp; their terms are multiplied by w_i = 0.
    """
    support = w > 0.0
    if not support.any(axis=-1).all():
        raise EmptySelectionError("selection weights are all zero (empty time window)")
    rp = r * w
    den = np.abs(rp.max(axis=-1, keepdims=True)) + p.eps
    zs = rp * p.h / den * p.beta
    zs = zs - np.where(support, zs, -np.inf).max(axis=-1, keepdims=True)
    # fewer live (n, k, length) arrays keep the value path as fast as a
    # forward that saves nothing; the backward recomputes exp(zc)
    u = w * np.exp(zs - _relu(zs))
    num = (r * u).sum(axis=-1)
    den2 = u.sum(axis=-1)
    return num / den2, (r, w, rp, den, zs, u, num, den2)


def _softmax_vjp(g: np.ndarray, saved, p: ActivationParams):
    """Backward of `_softmax_rows` for output gradients g.

    Returns the gradients wrt r and wrt w, both shaped like r * w.  The
    gradient of |max r'| goes to the first maximal entry, times the sign
    of the max.  The clamp relu(zs) passes no gradient: zs <= 0 on every
    lane with w > 0, and every other lane has u = 0 whatever zs is.
    """
    r, w, rp, den, zs, u, num, den2 = saved
    ez = np.exp(zs - _relu(zs))
    g_num = (g / den2)[..., None]
    g_u = (-g * num / (den2 * den2))[..., None] + g_num * r
    g_rpp = g_u * w * ez * p.beta
    g_den = (-g_rpp * (rp * p.h) / (den * den)).sum(axis=-1, keepdims=True)
    first = rp.argmax(axis=-1)[..., None]
    top = np.take_along_axis(rp, first, axis=-1)
    sign = np.where(top > 0.0, 1.0, np.where(top < 0.0, -1.0, 0.0))
    g_max = np.zeros_like(rp)
    np.put_along_axis(g_max, first, g_den * sign, axis=-1)
    g_rp = g_rpp / den * p.h + g_max
    return g_num * u + g_rp * w, g_u * ez + g_rp * r


def sparse_softmax_value(r: np.ndarray, w: np.ndarray, p: ActivationParams) -> float:
    """Smooth, sign-sound stand-in for max over the entries selected by w.

    Output always lies between the min and max of the selected entries.
    Raises EmptySelectionError when no weight is positive.
    """
    r = np.asarray(r, dtype=np.float64)
    return float(_softmax_rows(r, np.asarray(w, dtype=np.float64), p)[0])


def sparse_softmin_value(r: np.ndarray, w: np.ndarray, p: ActivationParams) -> float:
    """Sign-sound stand-in for min over selected entries: -softmax(-r)."""
    r = np.asarray(r, dtype=np.float64)
    return -float(_softmax_rows(-r, np.asarray(w, dtype=np.float64), p)[0])


def _window_ramps(t1: np.ndarray, t2: np.ndarray, slope: float, length: int):
    """The rising and falling ramps of every slot's soft window, each of
    shape (k, length), and the masks where each one moves with its end:
    the rise with t1 on (t1 - slope, t1], the fall with t2 on [t2, t2 +
    slope), as relu passes gradient only where its input is > 0."""
    if slope <= 0:
        raise ValueError("slope must be positive")
    grid = np.arange(length, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)[:, None]
    t2 = np.asarray(t2, dtype=np.float64)[:, None]
    up, up_end, down, down_end = grid - (t1 - slope), grid - t1, (t2 + slope) - grid, t2 - grid
    rise = (_relu(up) - _relu(up_end)) * (1.0 / slope)
    fall = (_relu(down) - _relu(down_end)) * (1.0 / slope)
    return rise, fall, (up > 0.0) & (up_end <= 0.0), (down > 0.0) & (down_end <= 0.0)


def _window_rows(t1: np.ndarray, t2: np.ndarray, slope: float, length: int) -> np.ndarray:
    """Soft indicator of [t1, t2] on the grid 0..length-1 for every slot.

    Trapezoid built from relu ramps: rises from 0 at t1-slope to 1 at t1,
    stays 1 through t2, and falls back to 0 at t2+slope.  For integer
    t1 <= t2 and slope <= 1 it is exactly the binary window indicator.
    """
    rise, fall, _, _ = _window_ramps(t1, t2, slope, length)
    return rise - _relu(rise - fall)


def _window_vjp(g: np.ndarray, t1: np.ndarray, t2: np.ndarray, slope: float):
    """Gradients of sum(g * windows) wrt t1 and t2, each of shape (k,)."""
    rise, fall, rising, falling = _window_ramps(t1, t2, slope, g.shape[1])
    # the window rise - relu(rise - fall) follows the fall where it is lower
    on_fall = rise - fall > 0.0
    g_t1 = (g * (rising & ~on_fall)).sum(axis=-1) * (-1.0 / slope)
    g_t2 = (g * (falling & on_fall)).sum(axis=-1) * (1.0 / slope)
    return g_t1, g_t2


def time_indicator_values(t1: float, t2: float, slope: float, length: int) -> np.ndarray:
    """The soft window [t1, t2] on the grid 0..length-1 (see _window_rows)."""
    return _window_rows([float(t1)], [float(t2)], slope, length)[0]


def non_finite_entry(groups: dict) -> Optional[str]:
    """The first non-finite entry of named arrays, as 'name[index]'."""
    for name, values in groups.items():
        finite = np.isfinite(values)
        if not finite.all():
            return f"{name}[{', '.join(str(i) for i in np.argwhere(~finite)[0])}]"
    return None


@dataclass
class NetworkPass:
    """One forward over a batch, with what `vjp` needs.  `out` holds the
    network output of each signal; positive means the signal is predicted
    to satisfy the learned formula."""

    out: np.ndarray
    params: ModelParams
    p: ActivationParams
    flip: np.ndarray
    live: np.ndarray
    temporal: tuple
    conjunction: tuple
    disjunction: Optional[tuple]

    def vjp(self, dout: np.ndarray) -> dict:
        """Gradients of sum_s dout[s] * out[s] wrt b, t1, t2 and M.

        Gates are straight-through: a gate row gets the gradient of its
        binary gates, and a dead row gets zero.
        """
        p = self.p
        dout = np.asarray(dout, dtype=np.float64)
        if self.disjunction is None:
            g_h = dout[:, None]
        else:
            g_h = _softmax_vjp(dout, self.disjunction, p)[0]
        # each row pools -g with a softmax: h = -softmax(-g)
        g_neg, g_gates = _softmax_vjp(-g_h, self.conjunction, p)
        g_in, g_windows = _softmax_vjp(-g_neg.sum(axis=1) * self.flip, self.temporal, p)
        g_t1, g_t2 = _window_vjp(g_windows.sum(axis=0), self.params.t1, self.params.t2, p.slope)
        g_M = np.zeros_like(self.params.M)
        g_M[self.live] = g_gates.sum(axis=0)
        # rows = sign * x - b enter the temporal softmax times flip
        return {"b": -self.flip * g_in.sum(axis=(0, 2)), "t1": g_t1, "t2": g_t2, "M": g_M}


def network_pass(
    X: np.ndarray,
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    gates: Optional[np.ndarray] = None,
) -> NetworkPass:
    """Network forward over every signal of X (n, length, dim).

    Predicate rows sign * x[:, axis] - b (n, k, length) are pooled over
    each slot's soft window: sparse softmin for always-slots, softmax for
    eventually-slots.  Each live row of the binary gate matrix (by default
    M thresholded at 0.5) pools the slot outputs with a softmin, and a
    softmax over the live rows gives the output.  Raises NonFiniteError
    naming a non-finite parameter, ValueError naming a slot whose axis the
    data lacks, EmptySelectionError for an empty window and
    EmptyFormulaError when every gate row is closed.
    """
    X = np.asarray(X, dtype=np.float64)
    bad = non_finite_entry({"b": params.b, "t1": params.t1, "t2": params.t2, "M": params.M})
    if bad is not None:
        raise NonFiniteError(f"non-finite parameter {bad}")
    if gates is None:
        gates = (params.M >= 0.5).astype(np.float64)
    for j, slot in enumerate(shape.slots):
        if slot.axis >= X.shape[2]:
            raise ValueError(f"slot {j} reads axis {slot.axis}, but the data has dim {X.shape[2]}")
    windows = _window_rows(params.t1, params.t2, p.slope, X.shape[1])
    axes = [slot.axis for slot in shape.slots]
    signs = np.array([[slot.sign] for slot in shape.slots], dtype=np.float64)
    # softmin(r) = -softmax(-r): always-slots flip sign on the way in and out
    flip = np.array([-1.0 if slot.op is TemporalOp.ALWAYS else 1.0 for slot in shape.slots])
    # contiguous (n, k, length): sums over time then run along memory,
    # which trains StopAndGo about 7% faster than the strided view
    values = np.ascontiguousarray(X[:, :, axes].transpose(0, 2, 1))
    rows = signs * values - params.b[:, None]
    g, temporal = _softmax_rows(flip[:, None] * rows, windows, p)
    g = flip * g
    live = np.flatnonzero((gates > 0.0).any(axis=1))
    if not live.size:
        raise EmptyFormulaError("every conjunction row is gated off")
    h, conjunction = _softmax_rows(-g[:, None, :], gates[live], p)
    h = -h
    if len(live) == 1:
        out, disjunction = h[:, 0], None
    else:
        out, disjunction = _softmax_rows(h, np.ones(len(live)), p)
    return NetworkPass(out, params, p, flip, live, temporal, conjunction, disjunction)


def network_outputs(
    X: np.ndarray,
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
) -> np.ndarray:
    """Network output for every signal of X (n, length, dim), value only.

    Runs `network_pass` on CHUNK signals at a time and drops its
    intermediates after each chunk.  Raises what `network_pass` raises,
    and NonFiniteError on a non-finite output.
    """
    X = np.asarray(X, dtype=np.float64)
    out = np.concatenate(
        [
            network_pass(X[lo : lo + CHUNK], params, shape, p).out
            for lo in range(0, max(X.shape[0], 1), CHUNK)
        ]
    )
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
