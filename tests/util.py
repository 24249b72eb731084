"""Shared test helpers.

`selected_softmax_oracle` is a deliberately naive transcription of the
selected-softmax definition, with none of the numerical safeguards the
library version carries.  Tests compare the two so the stable rewrite
stays algebraically honest.  `naive_network_output` builds the whole
network for one signal from those oracles and an explicit trapezoid
window, as the reference for the batched forward.  `simplify_oracle` is
the per-sample pruning loop the batched `simplify` replaced, kept as its
reference.  `init_params_oracle` is `init_params` as it was before each
axis was sorted once: one percentile per (axis, sign) pair.
`softmax_vjp_oracle` and `FourGroupAdam` are the backward routing and the
optimizer as they were before the forward saved its first maxima and the
parameters became one flat vector; the library versions must keep their
bytes.  `train_oracle` is the training loop
built from these references, which `train` must match byte for byte.  `softmax_rows_oracle` and
`network_pass_oracle` are the forward and backward as they were before
the pass dropped the arithmetic nothing reads: a masked max for the
shift, predicate rows in three passes, and the window layer's ramps,
relus and masks one at a time (`window_rows_oracle`,
`window_vjp_oracle`); like the library, it sums the full selection-weight
gradient over the batch before the window gradient reads it.
`temporal_oracle` is the temporal layer as it was before training and
scoring shared one masked kernel: the predicate rows through
`_softmax_rows`, which takes each row's first maximum over all lanes
and clamps the shifted exponents; `_temporal` must keep its bytes.
The `*_value` helpers run the batched layers on one row.  The random
builders produce formulas whose connectives alternate, so printing and
reparsing reproduces the tree node for node.  `dataset_from_samples`
stacks (Signal, label) pairs into a `LabeledDataset`, `count_atoms`
counts the temporal atoms of a formula, and `GatedParams` makes
`network_pass` pool with a given gate matrix, such as continuous weights
for central differences, in place of M thresholded at 0.5.
`gen_driving_oracle` and `gen_naval_oracle` are the generators as they
were before all samples stepped through time together: one trajectory at
a time, drawn one scalar at a time (driving) or stacked track by track
(naval).  The library generators must keep their bytes.
`save_csv_oracle` is the CSV writer as it was before rows went out in
chunks: the whole file as one string.  `traced_peak` measures the memory
one call allocates at its peak, numpy buffers included.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from stlinfer.datasets import (
    _ABORT_HOME,
    _ABORT_TURN,
    _ABORT_X,
    _FORWARD_NOISE,
    _HARBOR,
    _HARBOR_TIME,
    _ISLAND_ARRIVE,
    _ISLAND_LEAVE,
    _ISLAND_X,
    _ISLAND_Y,
    _LANE1_CENTER,
    _LANE2_CENTER,
    _LATERAL_NOISE,
    _LATERAL_PULL,
    _NAVAL_LENGTH,
    _NAVAL_NOISE,
    _OPEN_SEA,
    _START_X,
    _START_Y,
    _STOP_FRACTION,
    _STOP_HOLD,
    _TURN_Y_LANE1,
    _TURN_Y_LANE2,
    _V_MAX,
    _V_MIN,
    _X0_HALF_RANGE,
    _Y0_MAX,
    DrivingBehavior,
    LabeledDataset,
)
from stlinfer.network import (
    ActivationParams,
    ModelParams,
    NetworkShape,
    _Model,
    _softmax_rows,
    _window_rows,
)
from stlinfer.stl import And, Or, Predicate, Signal, TemporalAtom, TemporalOp, dnf, robustness
from stlinfer.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    GRAD_CLIP,
    LR_GATES,
    formula_from_gates,
)


def dataset_from_samples(samples) -> LabeledDataset:
    """Stack (Signal, label) pairs of one length and one dimension."""
    samples = list(samples)
    for name, axis in (("length", 0), ("dimension", 1)):
        sizes = sorted({sig.values.shape[axis] for sig, _ in samples})
        if len(sizes) > 1:
            raise ValueError(f"signals disagree on {name}: {sizes}")
    X = np.stack([sig.values for sig, _ in samples]) if samples else np.empty((0, 0, 0))
    return LabeledDataset(X, [label for _, label in samples])


def count_atoms(f) -> int:
    """Number of temporal atoms in a formula tree."""
    if isinstance(f, TemporalAtom):
        return 1
    if isinstance(f, (And, Or)):
        return sum(count_atoms(i) for i in f.items)
    return 0


class GatedParams(ModelParams):
    """`params` whose gates() is the given (m, k) matrix."""

    __slots__ = ("_given",)

    def __init__(self, params: ModelParams, gates):
        super().__init__(params.b, params.t1, params.t2, params.M)
        self._given = np.asarray(gates, dtype=np.float64)

    def gates(self) -> np.ndarray:
        return self._given


def sparse_softmax_value(r, w, p: ActivationParams) -> float:
    """Sparse softmax of one vector r over the entries w selects: smooth,
    sign-sound stand-in for their max.  Raises EmptySelectionError when
    no weight is positive."""
    r, w = np.asarray(r, dtype=np.float64), np.asarray(w, dtype=np.float64)
    return float(_softmax_rows(r, w, p, {}, "temporal")[0])


def sparse_softmin_value(r, w, p: ActivationParams) -> float:
    """Sign-sound stand-in for the min over selected entries: -softmax(-r)."""
    return -sparse_softmax_value(-np.asarray(r, dtype=np.float64), w, p)


def time_indicator_values(t1: float, t2: float, slope: float, length: int) -> np.ndarray:
    """The soft window [t1, t2] on the grid 0..length-1 (see _window_rows)."""
    return _window_rows([float(t1)], [float(t2)], slope, length)[0][0]


def softmax_vjp_oracle(g, saved, p: ActivationParams):
    """`_softmax_vjp` on fresh arrays, finding each row's first maximum
    again with argmax and routing through take_along_axis and
    put_along_axis; reads none of the forward's saved maxima."""
    r, w, rp, den, ez, u, num, den2 = saved[:8]
    g_num = (g / den2)[..., None]
    g_u = (-g * num / (den2 * den2))[..., None] + g_num * r
    g_rpp = g_u * w * ez * p.beta
    g_den = (-g_rpp * (rp * p.h) / (den * den)).sum(axis=-1, keepdims=True)
    first = rp.argmax(axis=-1)[..., None]
    top = np.take_along_axis(rp, first, axis=-1)
    sign = np.where(top > 0.0, 1.0, np.where(top < 0.0, -1.0, 0.0))
    g_rp = g_rpp / den * p.h
    at_first = np.take_along_axis(g_rp, first, axis=-1) + g_den * sign
    g_rp = g_rp + 0.0
    np.put_along_axis(g_rp, first, at_first, axis=-1)
    return g_num * u + g_rp * w, g_u * ez + g_rp * r


def softmax_rows_oracle(r, w, p: ActivationParams):
    """`_softmax_rows` on fresh arrays, shifting by the maximum over the
    selected lanes (a masked max) and saving the eight entries
    `softmax_vjp_oracle` reads."""
    rp = r * w
    den = np.abs(rp.max(axis=-1, keepdims=True)) + p.eps
    zs = rp * p.h / den * p.beta
    zs = zs - np.max(zs, axis=-1, keepdims=True, where=w > 0.0, initial=-np.inf)
    ez = np.exp(np.minimum(zs, 0.0))
    u = w * ez
    num = (r * u).sum(axis=-1)
    den2 = u.sum(axis=-1)
    return num / den2, (r, w, rp, den, ez, u, num, den2)


def _relu(x):
    return np.where(x > 0.0, x, 0.0)


def window_rows_oracle(t1, t2, slope: float, length: int):
    """`_window_rows` as it was before its four ramps became one array:
    each ramp, relu and mask on its own, the masks as a pair (at_t1, at_t2)."""
    grid = np.arange(length, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)[:, None]
    t2 = np.asarray(t2, dtype=np.float64)[:, None]
    up, up_end, down, down_end = grid - (t1 - slope), grid - t1, (t2 + slope) - grid, t2 - grid
    rise = (_relu(up) - _relu(up_end)) * (1.0 / slope)
    fall = (_relu(down) - _relu(down_end)) * (1.0 / slope)
    excess = rise - fall
    on_fall = excess > 0.0
    at_t1 = (up > 0.0) & (up_end <= 0.0) & ~on_fall
    at_t2 = (down > 0.0) & (down_end <= 0.0) & on_fall
    return rise - _relu(excess), (at_t1, at_t2)


def window_vjp_oracle(g, ends, slope: float):
    """`_window_vjp` as it was: (t1 gradient, t2 gradient) from the masks
    `window_rows_oracle` returns."""
    at_t1, at_t2 = ends
    return (g * at_t1).sum(axis=-1) * (-1.0 / slope), (g * at_t2).sum(axis=-1) * (1.0 / slope)


def temporal_oracle(X, model: _Model, ws: dict):
    """`_temporal` as it was, with its arguments and results: the rows
    flip * (sign * x[:, axis] - b) pooled by `_softmax_rows`, whose saved
    index is each row's first maximum of r * w over all lanes."""
    rows = model.flip_sign * np.take(X.transpose(0, 2, 1), model.axes, axis=1) - model.offsets
    return _softmax_rows(rows, model.windows, model.p, ws, "temporal")


def network_pass_oracle(X, params: ModelParams, shape: NetworkShape, p: ActivationParams, dout):
    """`network_pass` and its `vjp` for output gradients dout, as
    (out, gradients as a ModelParams): windows and their gradients through
    the window oracles above; predicate rows as sign * x, minus b, times
    flip; every softmax through the oracles above, the disjunction's over
    weights of ones; the temporal layer's weight gradient over every
    lane, summed over the batch."""
    gates = params.gates()
    windows, ends = window_rows_oracle(params.t1, params.t2, p.slope, X.shape[1])
    signs = np.array([[slot.sign] for slot in shape.slots], dtype=np.float64)
    flip = np.array([-1.0 if slot.op is TemporalOp.ALWAYS else 1.0 for slot in shape.slots])
    rows = np.take(X.transpose(0, 2, 1), [slot.axis for slot in shape.slots], axis=1)
    rows = flip[:, None] * (signs * rows - params.b[:, None])
    g, temporal = softmax_rows_oracle(rows, windows, p)
    g = flip * g
    live = np.flatnonzero((gates > 0.0).any(axis=1))
    h, conjunction = softmax_rows_oracle(-g[:, None, :], gates[live], p)
    out, disjunction = softmax_rows_oracle(-h, np.ones(len(live)), p)
    g_h = softmax_vjp_oracle(dout, disjunction, p)[0]
    g_neg, g_gates = softmax_vjp_oracle(-g_h, conjunction, p)
    g_in, g_windows = softmax_vjp_oracle(-g_neg.sum(axis=1) * flip, temporal, p)
    grads = params.zeros()
    grads.t1[:], grads.t2[:] = window_vjp_oracle(g_windows.sum(axis=0), ends, p.slope)
    grads.M[live] = g_gates.sum(axis=0)
    grads.b[:] = -flip * g_in.sum(axis=(0, 2))
    return out, grads


class FourGroupAdam:
    """Adam over a dict of named parameter arrays, each group updated on
    its own after the global gradient-norm clip."""

    def __init__(self, lrs: dict):
        self.lrs = lrs
        self.m = dict.fromkeys(lrs, 0.0)
        self.v = dict.fromkeys(lrs, 0.0)
        self.t = 0

    def step(self, arrays: dict, grads: dict) -> None:
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > GRAD_CLIP:
            grads = {k: g * (GRAD_CLIP / norm) for k, g in grads.items()}
        self.t += 1
        for name, x in arrays.items():
            g = grads[name]
            self.m[name] = ADAM_BETA1 * self.m[name] + (1 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1 - ADAM_BETA2) * g * g
            mhat = self.m[name] / (1 - ADAM_BETA1**self.t)
            vhat = self.v[name] / (1 - ADAM_BETA2**self.t)
            x -= self.lrs[name] * mhat / (np.sqrt(vhat) + ADAM_EPS)


def train_oracle(data: LabeledDataset, cfg):
    """The training loop of `train`, step by step from the references:
    `init_params_oracle` and one `rng.permutation` per epoch from the seed, the
    beta and slope schedule, each batch through `network_pass_oracle`
    with the loss exp(-y * out) and its mean by `mean()`, `FourGroupAdam`,
    then np.clip on each group and crossed window ends set to their
    midpoint.  Returns (params, losses, train_mcr)."""
    shape = NetworkShape.cycled(data.dim, cfg.k if cfg.k > 0 else None, cfg.m)
    p_final = cfg.activation()
    rng = np.random.default_rng([cfg.seed, 7])
    params = init_params_oracle(data, shape, rng)
    groups = {"b": params.b, "t1": params.t1, "t2": params.t2, "M": params.M}
    adam = FourGroupAdam({"b": cfg.lr, "t1": cfg.lr, "t2": cfg.lr, "M": LR_GATES})
    beta0 = cfg.beta_start if cfg.beta_start > 0 else cfg.beta
    n, last = len(data), float(data.length - 1)
    losses, train_mcr = [], []
    for epoch in range(cfg.epochs):
        p = p_final
        if epoch < cfg.epochs - 1:
            frac = epoch / (cfg.epochs - 1)
            ramp = 0.0 if frac <= cfg.beta_hold else (frac - cfg.beta_hold) / (1.0 - cfg.beta_hold)
            p = replace(
                p_final,
                slope=cfg.slope_start + (cfg.slope_end - cfg.slope_start) * frac,
                beta=beta0 + (cfg.beta - beta0) * ramp,
            )
        order = rng.permutation(n)
        loss_sum, wrong = 0.0, 0
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            X, labels = data.X[batch], data.y[batch].astype(np.float64)
            out = network_pass_oracle(X, params, shape, p, np.zeros(len(batch)))[0]
            terms = np.exp(-labels * out)
            loss_sum += float(terms.mean()) * len(batch)
            wrong += int(np.count_nonzero((out > 0.0) != (labels > 0.0)))
            grads = network_pass_oracle(X, params, shape, p, terms * -labels / len(batch))[1]
            adam.step(groups, {name: getattr(grads, name) for name in groups})
            np.clip(params.t1, 0.0, last, out=params.t1)
            np.clip(params.t2, 0.0, last, out=params.t2)
            np.clip(params.M, 0.0, 1.0, out=params.M)
            crossed = params.t1 > params.t2
            params.t1[crossed] = params.t2[crossed] = 0.5 * (params.t1[crossed] + params.t2[crossed])
        losses.append(loss_sum / n)
        train_mcr.append(wrong / n)
    return params, losses, train_mcr


def selected_softmax_oracle(r, w, beta: float, h: float, eps: float = 1e-8) -> float:
    """May return nan where the unshifted exponentials underflow; callers
    skip those draws (the library version is tested separately there)."""
    r = np.asarray(r, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        r1 = r * w
        r2 = h * r1 / (abs(r1.max()) + eps)
        e = np.exp(beta * r2)
        q = e / e.sum()
        return float((r * w * q).sum() / (w * q).sum())


def selected_softmin_oracle(r, w, beta: float, h: float, eps: float = 1e-8) -> float:
    return -selected_softmax_oracle(-np.asarray(r, dtype=np.float64), w, beta, h, eps)


def trapezoid_window(t1: float, t2: float, slope: float, length: int) -> np.ndarray:
    """Soft window: 0 before t1-slope, linear up to 1 at t1, 1 through t2,
    linear down to 0 at t2+slope."""
    t = np.arange(length, dtype=np.float64)
    rise = np.clip((t - (t1 - slope)) / slope, 0.0, 1.0)
    fall = np.clip((t2 + slope - t) / slope, 0.0, 1.0)
    return np.minimum(rise, fall)


def naive_network_output(
    values: np.ndarray, params: ModelParams, shape: NetworkShape, p: ActivationParams
) -> float:
    """The network on one signal (length, dim), layer by layer: predicate
    rows, pooling over trapezoid windows, a softmin per conjunction row
    with a gate >= 0.5, and a softmax over those rows.  nan where an
    oracle underflows."""
    g = []
    for j, slot in enumerate(shape.slots):
        row = slot.sign * values[:, slot.axis] - params.b[j]
        w = trapezoid_window(params.t1[j], params.t2[j], p.slope, len(values))
        pool = selected_softmin_oracle if slot.op is TemporalOp.ALWAYS else selected_softmax_oracle
        g.append(pool(row, w, p.beta, p.h, p.eps))
    gates = (params.M >= 0.5).astype(np.float64)
    h = [selected_softmin_oracle(g, row, p.beta, p.h, p.eps) for row in gates if row.any()]
    return selected_softmax_oracle(h, np.ones(len(h)), p.beta, p.h, p.eps)


def random_signal(rng: np.random.Generator, length: int, dim: int, scale: float = 5.0) -> Signal:
    return Signal(rng.uniform(-scale, scale, size=(length, dim)))


def random_predicate(rng: np.random.Generator, dim: int, scale: float = 5.0) -> Predicate:
    return Predicate(
        int(rng.integers(dim)),
        int(rng.choice([-1, 1])),
        float(rng.uniform(-scale, scale)),
    )


def random_propositional(rng: np.random.Generator, dim: int, depth: int = 2, outer=None):
    if depth == 0 or rng.random() < 0.4:
        return random_predicate(rng, dim)
    if outer is And:
        kind = Or
    elif outer is Or:
        kind = And
    else:
        kind = And if rng.random() < 0.5 else Or
    items = tuple(
        random_propositional(rng, dim, depth - 1, outer=kind)
        for _ in range(int(rng.integers(2, 4)))
    )
    return kind(items)


def random_window(rng: np.random.Generator, length: int) -> tuple[int, int]:
    t1 = int(rng.integers(0, length))
    t2 = int(rng.integers(t1, length))
    return t1, t2


def random_atom(rng: np.random.Generator, dim: int, length: int, depth: int = 1) -> TemporalAtom:
    """depth 0 gives a predicate child, depth 1 maybe a boolean one."""
    t1, t2 = random_window(rng, length)
    op = TemporalOp.ALWAYS if rng.random() < 0.5 else TemporalOp.EVENTUALLY
    return TemporalAtom(op, t1, t2, random_propositional(rng, dim, depth=depth, outer=And))


def random_dnf(rng: np.random.Generator, dim: int, length: int, depth: int = 1):
    clauses = [
        [random_atom(rng, dim, length, depth) for _ in range(int(rng.integers(1, 4)))]
        for _ in range(int(rng.integers(1, 4)))
    ]
    return dnf(clauses)


def random_tree(rng: np.random.Generator, dim: int, length: int, depth: int = 3, temporal: bool = True):
    """A formula anywhere in the grammar: predicates at the top or under
    temporal atoms, `&` and `|` nested in any order, boolean children under
    temporal atoms.  Offsets are small integers, so integer-valued signals
    give robustness zeros.  One predicate in ten reads axis `dim` and one
    window in ten ends at step `length`, one past the data, so some trees
    do not fit it.
    """
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        axis = dim if rng.random() < 0.1 else int(rng.integers(dim))
        return Predicate(axis, int(rng.choice([-1, 1])), float(rng.integers(-2, 3)))
    if temporal and roll < 0.6:
        t1, t2 = random_window(rng, length)
        if rng.random() < 0.1:
            t2 = length
        op = TemporalOp.ALWAYS if rng.random() < 0.5 else TemporalOp.EVENTUALLY
        return TemporalAtom(op, t1, t2, random_tree(rng, dim, length, depth - 1, temporal=False))
    kind = And if rng.random() < 0.5 else Or
    return kind(tuple(random_tree(rng, dim, length, depth - 1, temporal) for _ in range(int(rng.integers(2, 4)))))


def init_params_oracle(data, shape, rng: np.random.Generator) -> ModelParams:
    """Initial parameters with one percentile call over the signed axis
    values per (axis, sign) pair, drawn in slot order."""
    b = np.empty(shape.k)
    bands = {}
    for j, slot in enumerate(shape.slots):
        key = (slot.axis, slot.sign)
        if key not in bands:
            bands[key] = np.percentile(slot.sign * data.X[:, :, slot.axis].ravel(), [10.0, 90.0])
        lo, hi = bands[key]
        b[j] = rng.uniform(lo, hi)
    t1 = np.zeros(shape.k)
    t2 = np.full(shape.k, float(data.length - 1))
    M = rng.uniform(0.4, 0.6, size=(shape.m, shape.k))
    return ModelParams(b, t1, t2, M)


def simplify_oracle(params, shape, data) -> np.ndarray:
    """Greedy pruning as one robustness() call per sample and trial."""
    signals = [Signal(x) for x in data.X]
    positive = (data.y == 1).tolist()

    def wrong_count(gates):
        formula = formula_from_gates(params, shape, gates)
        return sum((robustness(sig, formula) > 0.0) != pos for sig, pos in zip(signals, positive))

    gates = (params.M >= 0.5).astype(np.float64)
    baseline = wrong_count(gates)

    def try_zero(mask):
        nonlocal gates
        trial = gates.copy()
        trial[mask] = 0.0
        if trial.any() and not np.array_equal(trial, gates) and wrong_count(trial) == baseline:
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


def drive_one_oracle(behavior, length: int, rng: np.random.Generator) -> np.ndarray:
    """One driving trajectory, stepped and drawn one scalar at a time."""
    x0 = _LANE1_CENTER + rng.uniform(-_X0_HALF_RANGE, _X0_HALF_RANGE)
    y0 = rng.uniform(0.0, _Y0_MAX)
    v = rng.uniform(_V_MIN, _V_MAX)
    stop_line = _STOP_FRACTION * (_Y0_MAX + _V_MAX * (length - 1))

    if behavior is DrivingBehavior.SWITCH_LANE:
        t_switch = int(rng.integers(12, 21))
    elif behavior is DrivingBehavior.OVERTAKE:
        t_out = int(rng.integers(8, 13))
        t_back = t_out + int(rng.integers(10, 15))

    out = np.empty((length, 2), dtype=np.float64)
    x, y = x0, y0
    turned = False
    hold_left = 0
    stopped_already = False
    for t in range(length):
        out[t, 0] = x
        out[t, 1] = y

        # lateral target for the next step
        if behavior is DrivingBehavior.SWITCH_LANE:
            target = _LANE2_CENTER if t >= t_switch else x0
        elif behavior is DrivingBehavior.OVERTAKE:
            target = _LANE2_CENTER if t_out <= t < t_back else x0
        else:
            target = x0

        if behavior in (DrivingBehavior.LEFT_TURN_LANE1, DrivingBehavior.LEFT_TURN_LANE2):
            y_turn = (
                _TURN_Y_LANE1
                if behavior is DrivingBehavior.LEFT_TURN_LANE1
                else _TURN_Y_LANE2
            )
            if not turned and y + v >= y_turn:
                turned = True
            if turned:
                # heading left along the cross street: x runs, y is pinned
                x = x - v + rng.normal(0.0, _LATERAL_NOISE)
                y = y_turn + rng.normal(0.0, _FORWARD_NOISE)
                continue

        x = x + _LATERAL_PULL * (target - x) + rng.normal(0.0, _LATERAL_NOISE)

        if behavior is DrivingBehavior.STOP_AND_GO and not stopped_already:
            if hold_left > 0:
                hold_left -= 1
                if hold_left == 0:
                    stopped_already = True
                continue  # y unchanged while holding at the line
            if y + v >= stop_line:
                y = stop_line
                hold_left = _STOP_HOLD - 1  # the arrival sample counts
                if hold_left == 0:
                    stopped_already = True
                continue

        y = y + v + rng.normal(0.0, _FORWARD_NOISE)
    return out


def gen_driving_oracle(behavior, count: int, length: int, seed: int) -> np.ndarray:
    """The (count, length, 2) signals of `gen_driving`, one sample after another."""
    rng = np.random.default_rng([seed, list(DrivingBehavior).index(behavior)])
    X = np.empty((count, length, 2))
    for i in range(count):
        X[i] = drive_one_oracle(behavior, length, rng)
    return X


def _interp_path_oracle(times, xs, ys, length, rng, sigma):
    t = np.arange(length, dtype=np.float64)
    px = np.interp(t, times, xs)
    py = np.interp(t, times, ys)
    path = np.stack([px, py], axis=1)
    path += rng.normal(0.0, sigma, size=path.shape)
    return path


def _naval_one_oracle(kind: str, rng: np.random.Generator) -> np.ndarray:
    x0 = rng.uniform(*_START_X)
    y0 = rng.uniform(*_START_Y)
    hx, hy = _HARBOR
    last = _NAVAL_LENGTH - 1
    if kind == "normal":
        times = [0, _HARBOR_TIME, last]
        xs = [x0, hx, hx]
        ys = [y0, hy, hy]
    elif kind == "island":
        # dip into the island band early, recover, still make the harbor
        times = [0, _ISLAND_ARRIVE, _ISLAND_LEAVE, _HARBOR_TIME + 5, last]
        xs = [x0, _ISLAND_X, _ISLAND_X - 4.0, hx, hx]
        ys = [y0, _ISLAND_Y, _ISLAND_Y, hy, hy]
    elif kind == "abort":
        # turn back to open sea; never enters the harbor
        ox, oy = _OPEN_SEA
        times = [0, _ABORT_TURN, _ABORT_HOME, last]
        xs = [x0, _ABORT_X, ox, ox]
        ys = [y0, y0 + rng.uniform(-1.0, 2.0), oy, oy]
    else:
        raise ValueError(f"unknown naval track kind '{kind}'")
    return _interp_path_oracle(times, xs, ys, _NAVAL_LENGTH, rng, _NAVAL_NOISE)


def gen_naval_oracle(count: int, seed: int) -> np.ndarray:
    """The (count, 61, 2) signals of `gen_naval`, each track stacked on its own."""
    rng = np.random.default_rng([seed, 97])
    half = count // 2
    kinds = ["normal"] * half + ["island" if i % 2 == 0 else "abort" for i in range(half)]
    X = np.empty((count, _NAVAL_LENGTH, 2))
    for i, kind in enumerate(kinds):
        X[i] = _naval_one_oracle(kind, rng)
    return X


def save_csv_oracle(dataset: LabeledDataset, path) -> None:
    """`save_csv`'s bytes, written as one whole-file string."""
    n, length, dim = dataset.X.shape
    lines = [f"label,{dim},{length}"]
    for row, label in zip(dataset.X.reshape(n, -1), dataset.y.tolist()):
        lines.append(str(label) + "," + ",".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def traced_peak(fn) -> int:
    """The peak of the memory `fn()` allocates, in bytes, as tracemalloc
    sees it (numpy reports its array buffers to it)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
