"""Differentiable formula network: axis-aligned predicates, windowed
temporal pooling, and a gated conjunction/disjunction stage.

Every pooling step is a sparse softmax (or softmin).  Its output has the
sign of the true selected extremum whenever h*e^(beta*h) > (l-1)/(e*beta)
(`soundness_bound_check`), which lets a formula read out of the trained
parameters classify exactly like the network; `guarantee_failure` names
the precondition of that agreement a set of activation parameters fails.
The sparse softmax of values r with selection weights w and parameters
(beta, h, eps) is

    r'_i  = r_i * w_i
    r''_i = h * r'_i / (|max_i r'_i| + eps)
    q_i   = softmax(beta * r'')_i
    out   = sum_i r_i w_i q_i / sum_i w_i q_i

computed in ratio form with the exponents shifted by the largest
selected one, so that lane's exp is 1 and no ratio is 0 / 0.  Lanes with
w_i = 0 add exactly zero to both sums: their values never move the output.

A pass is three steps: `_prepare` checks the model and makes what every
pass over signals of one length reads (the windows, the live gate rows),
`_temporal` runs the predicate and temporal layers, and `_head` the
conjunction and disjunction.  `network_pass` runs the three over a batch
X (n, length, dim) and saves what `NetworkPass.vjp` reads to give the
gradients of b, t1, t2 and M in closed form; `train` calls the pair once
per batch.  `network_outputs`, hence evaluation and sign agreement,
prepares once, runs the temporal layer over CHUNK signals at a time, and
the head once over all of them.  Its temporal layer pools only the slots
that some live gate row opens: an unread slot reaches the conjunction
only through closed gates, as r * 0, so its pooled value is left at 0.0.
The temporal layer's (n, k, length) arrays there stay at CHUNK signals,
and since no backward reads them, all but the predicate rows share one
array; the head's (n, m, k) arrays grow with the dataset, to about 0.7
times the size of X on the naval data, within the 2 times X that
parsing a CSV file peaks at.

A pass writes its (n, ...)-sized arrays into a workspace the caller owns:
a dict of float64 arrays keyed by layer, name and the shape past the
sample axis, each made for the largest n yet asked for, so a smaller
batch uses its leading slice.  What a `NetworkPass` saves is valid until
the next pass on its workspace; `vjp` writes only its own buffers, and
its gradients are a fresh `ModelParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
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
    "network_pass",
    "network_outputs",
    "CHUNK",
]

# network_outputs runs the temporal layer on samples this many at a time,
# so that its (n, k, length) temporaries stay small whatever the dataset
# size; the head's (n, m, k) ones grow with it.
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
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


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

    @cached_property
    def constants(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """What `_prepare` reads of the slots, made once: the axes,
        flip * sign as a (k, 1) column, flip and -flip, where flip = -1
        marks an always-slot (softmin(r) = -softmax(-r) flips sign on the
        way in and out), and the largest axis."""
        axes = np.array([slot.axis for slot in self.slots], dtype=np.intp)
        flip = np.array([-1.0 if slot.op is TemporalOp.ALWAYS else 1.0 for slot in self.slots])
        flip_sign = (flip * [slot.sign for slot in self.slots])[:, None]
        neg_flip = -flip
        for array in (axes, flip_sign, flip, neg_flip):
            array.flags.writeable = False
        return axes, flip_sign, flip, neg_flip, int(axes.max())

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


class ModelParams:
    """Trainable parameters: predicate offsets b, window ends t1/t2 (one
    each per slot), and the conjunction gate matrix M of shape (m, k).

    This class owns the layout: `flat` holds b, t1, t2, then M row by row,
    the groups are views of it, and gradients and learning rates share it.
    A group cannot be rebound, as the new array would leave `flat`.
    """

    __slots__ = ("_flat", "_b", "_t1", "_t2", "_M")

    def __init__(self, b, t1, t2, M):
        b, t1, t2, M = (np.asarray(a, dtype=np.float64) for a in (b, t1, t2, M))
        k = b.shape[0]
        if b.shape != (k,) or t1.shape != (k,) or t2.shape != (k,):
            raise ValueError("b, t1 and t2 must share shape (k,)")
        if M.ndim != 2 or M.shape[1] != k:
            raise ValueError("gate matrix must have shape (m, k)")
        self._view(np.concatenate([b, t1, t2, M.ravel()]), M.shape)

    def _view(self, flat: np.ndarray, gate_shape: tuple) -> "ModelParams":
        k = gate_shape[1]
        self._flat, self._M = flat, flat[3 * k :].reshape(gate_shape)
        self._b, self._t1, self._t2 = flat[:k], flat[k : 2 * k], flat[2 * k : 3 * k]
        return self

    flat = property(lambda self: self._flat, doc="b, t1, t2 and M (row by row) in one vector")
    b = property(lambda self: self._b, doc="predicate offsets, shape (k,)")
    t1 = property(lambda self: self._t1, doc="window starts, shape (k,)")
    t2 = property(lambda self: self._t2, doc="window ends, shape (k,)")
    M = property(lambda self: self._M, doc="conjunction gates, shape (m, k)")

    def zeros(self) -> "ModelParams":
        """Zero parameters of this shape, as gradients use."""
        return ModelParams.__new__(ModelParams)._view(np.zeros(self._flat.size), self._M.shape)

    def gates(self) -> np.ndarray:
        """The binary gate matrix: M thresholded at 0.5."""
        return (self._M >= 0.5).astype(np.float64)

    def snapped(self) -> "ModelParams":
        """Integral windows and binary gates: t1 floors, t2 ceils, gates
        threshold at 0.5.  With slope <= 1 the network then evaluates the
        same windows the extracted formula uses."""
        return ModelParams(self._b, np.floor(self._t1), np.ceil(self._t2), self.gates())

    def non_finite_entry(self) -> Optional[str]:
        """The first non-finite entry ('b[j]', ..., 'M[i, j]'), or None."""
        finite = np.isfinite(self._flat)
        if np.count_nonzero(finite) == finite.size:
            return None
        group, j = divmod(int(finite.argmin()), self._b.size)
        return f"{('b', 't1', 't2')[group]}[{j}]" if group < 3 else f"M[{group - 3}, {j}]"


def _soundness_sides(p: ActivationParams, length: int) -> tuple[float, float]:
    """Both sides of h*e^(beta*h) > (l-1)/(e*beta); the left is inf when
    it overflows."""
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
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
    p: ActivationParams, shape: NetworkShape, length: int, slope_name: str = "slope"
) -> Optional[str]:
    """The first precondition of sign agreement between the snapped
    network of `shape` and its extracted formula that p fails on signals
    of the given length, with the bound at the widest softmax (l, k or m
    lanes), as an error message naming the slope `slope_name`; None when
    both hold."""
    widest = max(length, shape.k, shape.m)
    if not soundness_bound_check(p, widest):
        return (
            "activation parameters fail the sign-soundness bound: "
            + soundness_bound_text(p, widest)
        )
    if p.slope > 1.0:
        # a wider shoulder gives weight to steps just outside the snapped
        # window [floor t1, ceil t2], which the extracted formula ignores
        return (
            f"{slope_name} = {p.slope:g} exceeds 1: the trained network's windows "
            "would reach past the extracted formula's, so their signs may disagree"
        )
    return None


def _buffer(ws: dict, layer: str, name: str, shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of the given shape: the leading slice
    of the workspace's array under (layer, name, trailing shape), made for
    the largest leading size yet asked for.  An exact fit is the array
    itself, not a view."""
    key = (layer, name, shape[1:])
    buf = ws.get(key)
    if buf is None or len(buf) < shape[0]:
        buf = ws[key] = np.empty(shape)
    return buf if len(buf) == shape[0] else buf[: shape[0]]


def _softmax_rows(r: np.ndarray, w: np.ndarray, p: ActivationParams, ws: dict, layer: str):
    """Sparse softmax along the last axis of r * w, as the conjunction and
    the disjunction pool (the temporal layer runs `_temporal`).  `w`
    broadcasts against r, r * w has r's leading axes and w's trailing
    ones, and every row of w selects an entry.

    Returns the values and the intermediates `_softmax_vjp` reads; the
    ones shaped like r * w live in workspace `ws` under `layer`.  Each
    row's first maximum of r' is found once, and saved as its flat index
    `first` into the contiguous r' together with its value `top`; r' * h
    is saved too.  The shift by the largest selected exponent is a
    constant (softmax ratios do not depend on it), and clamping at 0 keeps
    zero-weight lanes from overflowing exp; their terms are multiplied by
    w_i = 0.  The shift is read at the first maximum of the exponents
    with the unselected lanes at -inf, or at `first` when every lane is
    selected (the exponents grow with r').  Either read can differ from
    the selected maximum only in the sign of a zero, which leaves every
    exp(min(zs - shift, 0)) as it is.  The masked read serves only the
    conjunction, whose closed gates are the unselected lanes; it keeps the
    clamp, not exp(-inf) = 0, because the straight-through gate gradient
    g_w = g_u * ez + ... reads the clamped exponents at closed gates.
    """
    shape = r.shape[: r.ndim - w.ndim] + w.shape
    rp = np.multiply(r, w, out=_buffer(ws, layer, "rp", shape))
    # the flat index of each row's first entry, shaped like the rows
    starts = np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1])
    first = rp.argmax(axis=-1)
    first += starts
    top = rp.take(first)
    den = (np.abs(top) + p.eps)[..., None]
    # x * 1.0 is x, so the default h = 1 saves a pass and a buffer
    rph = rp if p.h == 1.0 else np.multiply(rp, p.h, out=_buffer(ws, layer, "rph", shape))
    zs = np.divide(rph, den, out=_buffer(ws, layer, "ez", shape))
    np.multiply(zs, p.beta, out=zs)
    # exp(min(zs - shift, 0)) overwrites zs, which the backward does not need
    if np.minimum.reduce(w, axis=None) > 0.0:
        # the shift is the largest exponent, so zs - shift <= 0 already (up
        # to the sign of a zero, which exp does not see): no clamp
        np.subtract(zs, zs.take(first)[..., None], out=zs)
    else:
        masked = np.add(zs, np.where(w > 0.0, 0.0, -np.inf), out=_buffer(ws, layer, "tmp", shape))
        at = masked.argmax(axis=-1)
        at += starts
        np.subtract(zs, zs.take(at)[..., None], out=zs)
        np.minimum(zs, 0.0, out=zs)
    ez = np.exp(zs, out=zs)
    u = np.multiply(w, ez, out=_buffer(ws, layer, "u", shape))
    num = np.add.reduce(np.multiply(r, u, out=_buffer(ws, layer, "tmp", shape)), axis=-1)
    den2 = np.add.reduce(u, axis=-1)
    return num / den2, (r, w, rp, den, ez, u, num, den2, first, top, rph)


def _softmax_vjp(g: np.ndarray, saved, p: ActivationParams, ws: dict, layer: str):
    """Backward of `_softmax_rows` for output gradients g.

    Returns (g_r, g_w), the gradients wrt r and w, both shaped like r * w;
    where w broadcast along leading axes, its gradient is the sum of g_w
    over them.  With u = w * ez, num = sum r * u and den2 = sum u (the
    output is num / den2) and den = |top| + eps:

        g_u   = g * r / den2 - g * num / den2^2
        g_r'' = g_u * w * ez * beta                 (r'' = h * r' / den)
        g_r'  = g_r'' * h / den, plus sign(top) * -sum(g_r'' * r' * h / den^2)
                at the row's first maximum of r'
        g_r   = g * u / den2 + g_r' * w
        g_w   = g_u * ez + g_r' * r

    The first maximum is the forward's saved flat index `first`, and `top`
    its value; `_temporal` saves its first selected maximum `at` there,
    and its floored top.  The clamp min(zs, 0) passes no gradient: zs <= 0 on every
    lane with w > 0, and every other lane has u = 0 whatever zs is.  g_r
    and g_w are buffers of workspace `ws` under `layer`, valid until the
    next pass or backward on it.
    """
    r, w, rp, den, ez, u, num, den2, first, top, rph = saved
    shape = rp.shape
    g_num = (g / den2)[..., None]
    g_u = np.multiply(g_num, r, out=_buffer(ws, layer, "g_u", shape))
    # g_u - g * num / den2^2 is g_u + (-g * num / den2^2): x - y is x + (-y)
    np.subtract(g_u, (g * num / (den2 * den2))[..., None], out=g_u)
    g_rpp = _buffer(ws, layer, "g_rp", shape)
    np.multiply(g_u, w, out=g_rpp)
    np.multiply(g_rpp, ez, out=g_rpp)
    np.multiply(g_rpp, p.beta, out=g_rpp)
    t1 = np.multiply(g_rpp, rph, out=_buffer(ws, layer, "tmp", shape))
    np.divide(t1, den * den, out=t1)
    # the sum of the negated terms: 0 - sum is -sum, and +0.0 when zero
    g_den = 0.0 - np.add.reduce(t1, axis=-1)
    # g_rp = g_rpp / den * h + g_max, where g_max is g_den * sign(top) at
    # each row's first maximum and +0.0 elsewhere; adding 0.0 turns -0.0
    # into 0.0, and sign(+-0.0) is +0.0
    g_rp = np.divide(g_rpp, den, out=g_rpp)
    if p.h != 1.0:
        np.multiply(g_rp, p.h, out=g_rp)
    at_first = g_rp.take(first) + g_den * np.sign(top)
    np.add(g_rp, 0.0, out=g_rp)
    g_rp.put(first, at_first)
    g_r = np.multiply(g_num, u, out=t1)
    np.add(g_r, np.multiply(g_rp, w, out=_buffer(ws, layer, "tmp2", shape)), out=g_r)
    g_w = np.multiply(g_u, ez, out=g_u)
    np.add(g_w, np.multiply(g_rp, r, out=g_rp), out=g_w)
    return g_r, g_w


def _window_rows(t1: np.ndarray, t2: np.ndarray, slope: float, length: int):
    """Soft indicator of [t1, t2] on the grid 0..length-1 for every slot,
    shape (k, length), and the masks `_window_vjp` reads, stacked as one
    (2, k, length) boolean array: the steps that move with t1, then t2.

    Trapezoid built from relu ramps: rises from 0 at t1-slope to 1 at t1,
    stays 1 through t2, and falls back to 0 at t2+slope.  For integer
    t1 <= t2 and slope <= 1 it is exactly the binary window indicator.
    The window rise - relu(rise - fall) is the lower ramp.  It moves with
    t1 where the rise is lower and moving (on (t1 - slope, t1]), and with
    t2 where the fall is lower and moving (on [t2, t2 + slope)), as relu
    passes gradient only where its input is > 0; the masks mark those steps.

    The four ramps grid - (t1 - slope), grid - t1, (t2 + slope) - grid
    and t2 - grid are one (2, 2, k, length) array, the t2 pair negated
    from grid - (t2 + slope) and grid - t2 (a - b is exactly -(b - a),
    t + 0.0 only turns -0.0 into +0.0, and a relu or a comparison with 0
    does not see the sign of a zero), and one comparison with 0 gives
    every mask.
    """
    t1, t2 = np.array((t1, t2), dtype=np.float64)
    offsets = np.array(((t1 - slope, t1 + 0.0), (t2 + slope, t2 + 0.0)))
    ramps = np.subtract(np.arange(length, dtype=np.float64), offsets[..., None])
    np.negative(ramps[1], out=ramps[1])
    live = ramps > 0.0
    # max(x, 0.0) may keep the sign of a zero x, which no window bit shows:
    # zero relus meet only in differences whose other side is +0.0 or > 0
    relu = np.maximum(ramps, 0.0)
    # rise and fall: the outer ramp's relu minus the inner one's
    rise_fall = relu[:, 0] - relu[:, 1]
    rise_fall *= 1.0 / slope
    rise, fall = rise_fall
    excess = rise - fall
    on_fall = excess > 0.0
    windows = rise - np.maximum(excess, 0.0)
    # a step moves with an end where its outer ramp is > 0 and its inner
    # one is not (up > 0 and up_end <= 0, down > 0 and down_end <= 0), with
    # t1 only off the fall and with t2 only on it (for booleans a > b is
    # a and not b)
    ends = live[:, 0] > live[:, 1]
    np.greater(ends[0], on_fall, out=ends[0])
    np.logical_and(ends[1], on_fall, out=ends[1])
    return windows, ends


def _window_vjp(g: np.ndarray, ends: np.ndarray, slope: float) -> np.ndarray:
    """Gradients of sum(g * windows) wrt t1 and t2, as the rows of a (2, k)
    array, from the masks `ends` that `_window_rows` returned with the
    windows.  Each row sum of g * mask is scaled by -1/slope (t1) or
    1/slope (t2); x * -c is exactly -(x * c)."""
    grads = np.add.reduce(g * ends, axis=-1)
    grads *= 1.0 / slope
    np.negative(grads[0], out=grads[0])
    return grads


@dataclass(frozen=True)
class _Model:
    """What every pass of a model over signals of one length reads, checked
    and made once by `_prepare`: the slots' axes, flip * sign as a (k, 1)
    column and -flip, the signed offsets flip * b as a (k, 1) column, the
    windows with their end masks, the lane mask (0 on selected steps, -inf
    elsewhere), the floor of each slot's top (0 where the slot has an
    unselected step, -inf where it has none), and the live gate rows with
    their gates."""

    params: ModelParams
    p: ActivationParams
    axes: np.ndarray
    flip_sign: np.ndarray
    neg_flip: np.ndarray
    offsets: np.ndarray
    windows: np.ndarray
    window_ends: np.ndarray
    mask: np.ndarray
    floor: np.ndarray
    live: np.ndarray
    gates: np.ndarray

    def on_slots(self, read: np.ndarray) -> _Model:
        """This model's temporal layer on the slots `read` alone: each
        per-slot field keeps their rows (window_ends along its axis 1).
        The params and the gate head, which `_head` reads, stay whole."""
        per_slot = ("axes", "flip_sign", "neg_flip", "offsets", "windows", "mask", "floor")
        rows = {name: getattr(self, name)[read] for name in per_slot}
        return replace(self, window_ends=self.window_ends[:, read], **rows)


def _prepare(
    X: np.ndarray, params: ModelParams, shape: NetworkShape, p: ActivationParams
) -> _Model:
    """Check the model against float64 signals X and make its `_Model`.
    Raises ValueError when X is not (n, length, dim), NonFiniteError naming
    a non-finite parameter, ValueError naming a slot whose axis the data
    lacks, EmptySelectionError for an empty window and EmptyFormulaError
    when every gate row is closed, in that order."""
    if X.ndim != 3:
        raise ValueError(f"signals must have shape (n, length, dim), got shape {X.shape}")
    bad = params.non_finite_entry()
    if bad is not None:
        raise NonFiniteError(f"non-finite parameter {bad}")
    axes, flip_sign, flip, neg_flip, top_axis = shape.constants
    if top_axis >= X.shape[2]:
        j = int(np.argmax(axes >= X.shape[2]))
        raise ValueError(f"slot {j} reads axis {axes[j]}, but the data has dim {X.shape[2]}")
    windows, window_ends = _window_rows(params.t1, params.t2, p.slope, X.shape[1])
    # the window layer's selection: the windows are >= 0
    selected = windows > 0.0
    if not selected.any(axis=1).all():
        raise EmptySelectionError("selection weights are all zero (empty time window)")
    gates = params.gates()
    live = np.logical_or.reduce(gates > 0.0, axis=1).nonzero()[0]
    if not live.size:
        raise EmptyFormulaError("every conjunction row is gated off")
    return _Model(
        params,
        p,
        axes,
        flip_sign,
        neg_flip,
        (flip * params.b)[:, None],
        windows,
        window_ends,
        np.where(selected, 0.0, -np.inf),
        np.where(selected.all(axis=1), -np.inf, 0.0),
        live,
        gates[live],
    )


def _temporal(X: np.ndarray, model: _Model, ws: dict):
    """The predicate rows r = flip * (sign * x[:, axis] - b) of signals X,
    each pooled over its slot's window w by a sparse softmax: the (n, k)
    pooled values g (the slot outputs are flip * g) and what
    `_softmax_vjp` reads, whose arrays live in workspace `ws`.

    The exponents zs start as r * w plus the lane mask, so an unselected
    lane is -inf, and one argmax `at` per row finds the selected maximum.
    The row's top is that maximum, floored at 0 where the slot has an
    unselected step: the largest r * w over all lanes, where an
    unselected lane is a zero.  Scaling by h and beta and dividing by the
    positive |top| + eps are monotone, so the shift zs[at] is the largest
    scaled exponent, an unselected lane's exp(-inf) is 0 and no clamp is
    needed.  Where the top is a zero floor, `at` is a selected lane, not
    the first maximum over all lanes; sign(top) is 0 there, so the
    backward's |top| term is a signed zero wherever it lands.

    Besides rph, which only the backward reads, the forward reads rp only
    to make zs, ez only to make u, and u only for den2 and for
    tmp = r * u, after den2.  So a caller that runs no backward may give
    the names rp, ez, u and tmp one array of `ws`; the output keeps its
    bits, and the saved tuple is then not valid.
    """
    p, w = model.p, model.windows
    k, length = w.shape
    shape = (X.shape[0], k, length)
    # contiguous (n, k, length), so that sums over time run along memory
    rows = _buffer(ws, "temporal", "r", shape)
    # _prepare checked the axes; mode="clip" lets take write rows directly
    X.transpose(0, 2, 1).take(model.axes, axis=1, out=rows, mode="clip")
    # flip * (sign * x - b) in two passes: multiplying by +-1 is exact, up
    # to the sign of a zero row value, which outputs and gradients do not
    # see (each ends in a sum, and numpy sums zeros to +0.0)
    np.multiply(model.flip_sign, rows, out=rows)
    np.subtract(rows, model.offsets, out=rows)
    rp = np.multiply(rows, w, out=_buffer(ws, "temporal", "rp", shape))
    zs = np.add(rp, model.mask, out=_buffer(ws, "temporal", "ez", shape))
    at = zs.argmax(axis=-1)
    at += np.arange(0, math.prod(shape), length).reshape(shape[:2])
    top = np.maximum(zs.take(at), model.floor)
    den = (np.abs(top) + p.eps)[..., None]
    # x * 1.0 is x, so the default h = 1 saves a pass and a buffer
    rph = rp
    if p.h != 1.0:
        rph = np.multiply(rp, p.h, out=_buffer(ws, "temporal", "rph", shape))
        np.multiply(zs, p.h, out=zs)
    np.divide(zs, den, out=zs)
    np.multiply(zs, p.beta, out=zs)
    np.subtract(zs, zs.take(at)[..., None], out=zs)
    ez = np.exp(zs, out=zs)
    u = np.multiply(w, ez, out=_buffer(ws, "temporal", "u", shape))
    den2 = np.add.reduce(u, axis=-1)
    num = np.add.reduce(np.multiply(rows, u, out=_buffer(ws, "temporal", "tmp", shape)), axis=-1)
    return num / den2, (rows, w, rp, den, ez, u, num, den2, at, top, rph)


def _head(g: np.ndarray, model: _Model, ws: dict):
    """The conjunction and disjunction over the (n, k) temporal outputs g:
    the network outputs and each layer's saved intermediates."""
    # slot outputs are flip * g, and each live row pools their negation
    # (-(flip * g) is -flip * g) over its open gates, which select a slot
    rows = (model.neg_flip * g)[:, None, :]
    h, conjunction = _softmax_rows(rows, model.gates, model.p, ws, "conjunction")
    h = np.negative(h, out=_buffer(ws, "disjunction", "r", h.shape))
    # the live rows all enter the disjunction at weight 1, one row too
    out, disjunction = _softmax_rows(h, np.ones(len(model.live)), model.p, ws, "disjunction")
    return out, conjunction, disjunction


@dataclass
class NetworkPass:
    """One forward over a batch, with what `vjp` needs.  `out` holds the
    network output of each signal; positive means the signal is predicted
    to satisfy the learned formula.  The saved layer arrays live in
    workspace `ws` and stay valid only until the next pass on it."""

    out: np.ndarray
    model: _Model
    temporal: tuple
    conjunction: tuple
    disjunction: tuple
    ws: dict

    def vjp(self, dout: np.ndarray) -> ModelParams:
        """Gradients of sum_s dout[s] * out[s] wrt b, t1, t2 and M, as a
        `ModelParams` whose `flat` lines up entry by entry with the
        parameters'.

        Gates are straight-through: a gate row gets the gradient of its
        binary gates, and a dead row gets zero.
        """
        model, ws = self.model, self.ws
        p, neg_flip = model.p, model.neg_flip
        dout = np.asarray(dout, dtype=np.float64)
        # the disjunction's weights are ones: their gradient goes unread
        g_h = _softmax_vjp(dout, self.disjunction, p, ws, "disjunction")[0]
        # each row pools -g with a softmax: h = -softmax(-g)
        g_neg, g_gates = _softmax_vjp(-g_h, self.conjunction, p, ws, "conjunction")
        # the slot outputs entered the rows as -flip * g, and -x * f is x * -f
        g_in, g_windows = _softmax_vjp(
            np.add.reduce(g_neg, axis=1) * neg_flip, self.temporal, p, ws, "temporal"
        )
        grads = model.params.zeros()
        grads.t1[:], grads.t2[:] = _window_vjp(
            np.add.reduce(g_windows, axis=0), model.window_ends, p.slope
        )
        grads.M[model.live] = np.add.reduce(g_gates, axis=0)
        # rows = flip * (sign * x - b) enter the temporal softmax
        np.multiply(neg_flip, np.add.reduce(g_in, axis=(0, 2)), out=grads.b)
        return grads


def network_pass(
    X: np.ndarray,
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    ws: Optional[dict] = None,
) -> NetworkPass:
    """Network forward over every signal of X (n, length, dim).

    Predicate rows sign * x[:, axis] - b (n, k, length) are pooled over
    each slot's soft window: sparse softmin for always-slots, softmax for
    eventually-slots.  Each live row of the binary gate matrix
    `params.gates()` pools the slot outputs with a softmin, and a
    softmax over the live rows gives the output.  Raises what `_prepare`
    raises.  The (n, k, length) intermediates go into workspace `ws`, a
    fresh one when it is None (see the module docstring).
    """
    if ws is None:
        ws = {}
    X = np.asarray(X, dtype=np.float64)
    model = _prepare(X, params, shape, p)
    g, temporal = _temporal(X, model, ws)
    out, conjunction, disjunction = _head(g, model, ws)
    return NetworkPass(out, model, temporal, conjunction, disjunction, ws)


def network_outputs(
    X: np.ndarray,
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
) -> np.ndarray:
    """Network output for every signal of X (n, length, dim), value only.

    Prepares the model once, runs the temporal layer on CHUNK signals at a
    time in one workspace, then the conjunction and disjunction once over
    all n.  Nothing here runs a backward, so the temporal layer writes rp,
    ez, u and tmp into one scratch array (see `_temporal`).  It pools only
    the slots that some live gate row opens; the other columns of the
    (n, k) pooled values g hold 0.0.
    Every argmax and sum runs along one signal's own rows, and an unread
    slot moves no bit of the head, so each output has the bits
    `network_pass` gives it in any batch:

    - a lane whose gate is closed in every live row enters the
      conjunction as r * 0, a zero whatever finite r is;
    - argmax treats +0.0 and -0.0 as equal, and the forward reads the
      row's first maximum `top` only through |top|;
    - the masked shift and u = 0 * ez do not read r;
    - r * u at a closed lane is a zero, and no numpy sum shows its sign:
      add.reduce starts from +0.0, and x + (+-0.0) == x.

    One edge moves: when an unread slot's values overflow (axis values
    near +-1.7e308), `network_pass` gives NaN (inf * 0 at the closed
    lane), while this gives the finite output of the slots the formula
    reads.  Raises what `network_pass` raises, and NonFiniteError naming
    the first sample whose output is not finite, with no numpy warning
    about the overflow that made it.
    """
    X = np.asarray(X, dtype=np.float64)
    model = _prepare(X, params, shape, p)
    read = model.gates.any(axis=0).nonzero()[0]
    pooled = model.on_slots(read)
    # no backward reads this pass: rp, ez, u and tmp share one array
    scratch = np.empty((min(X.shape[0], CHUNK), len(read), X.shape[1]))
    ws = {("temporal", name, scratch.shape[1:]): scratch for name in ("rp", "ez", "u", "tmp")}
    g = np.zeros((X.shape[0], shape.k))
    # an overflow shows as the non-finite output named below
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, X.shape[0], CHUNK):
            g[lo : lo + CHUNK, read] = _temporal(X[lo : lo + CHUNK], pooled, ws)[0]
        out = _head(g, model, ws)[0]
    finite = np.isfinite(out)
    if not finite.all():
        raise NonFiniteError(f"non-finite network output of sample {int(finite.argmin())}")
    return out
