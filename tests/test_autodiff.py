"""Backward tests: the differentiation conventions of the network's
closed-form reverse pass in network.py and trainer.py.

Checked on the pieces the VJP is built from (the sparse softmax, the soft
time window, the straight-through gates and the loss): relu ramps pass
gradient only where their input is > 0, the |max| normalizer routes its
gradient to the first maximal entry times the sign of the max, binary
gates pass their gradient on unchanged, unused slots get zero gradient,
and values agree with central differences at smooth points.  Failure
modes name the non-finite quantity.  Passes that reuse one workspace give
the bytes of passes on fresh arrays, the forward's saved first maxima
route the normalizer's gradient to the bytes a fresh argmax gave, and a
pass with its backward gives the bytes of the arithmetic it replaced,
the masked temporal kernel those of the clamped softmax included.
"""

from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from stlinfer import network, trainer
from stlinfer.network import (
    CHUNK,
    ActivationParams,
    ModelParams,
    NetworkShape,
    NonFiniteError,
    SlotSpec,
    _buffer,
    _softmax_rows,
    _softmax_vjp,
    _window_rows,
    _window_vjp,
    network_outputs,
    network_pass,
)
from stlinfer.evaluate import load_model
from stlinfer.stl import TemporalOp
from stlinfer.trainer import TrainConfig, _batch_gradients, train
from util import (
    GatedParams,
    network_pass_oracle,
    softmax_rows_oracle,
    softmax_vjp_oracle,
    temporal_oracle,
    time_indicator_values,
    window_rows_oracle,
    window_vjp_oracle,
)

P = ActivationParams()  # beta 25, h 1


def softmax_grads(r, w, p=P):
    """Sparse softmax of r over weights w, with its gradients wrt r and w."""
    r, w = np.asarray(r, dtype=np.float64), np.asarray(w, dtype=np.float64)
    value, saved = _softmax_rows(r, w, p, {}, "temporal")
    g_r, g_w = _softmax_vjp(np.array(1.0), saved, p, {}, "temporal")
    return float(value), g_r, g_w


def window_grads(t1, t2, slope, weights):
    """Gradients of weights @ window(t1, t2) wrt t1 and t2."""
    weights = np.asarray(weights, dtype=np.float64)[None]
    _, ends = _window_rows(np.array([t1]), np.array([t2]), slope, weights.shape[1])
    g_t1, g_t2 = _window_vjp(weights, ends, slope)
    return float(g_t1[0]), float(g_t2[0])


def central_differences(f, x, step=1e-5):
    x = np.asarray(x, dtype=np.float64)
    fd = np.empty_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += step
        lo[i] -= step
        fd[i] = (f(hi) - f(lo)) / (2.0 * step)
    return fd


def rel_err(analytic, fd) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    return float(np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(analytic))))


def one_slot_gates_case(rng, n=5, length=10):
    shape = NetworkShape.cycled(1, m=2)
    params = ModelParams(
        b=rng.uniform(-1.0, 1.0, 4),
        t1=np.array([0.5, 1.25, 2.0, 0.0]),
        t2=np.array([7.5, 8.0, 6.75, 9.0]),
        M=np.array([[0.9, 0.7, 0.1, 0.1], [0.2, 0.8, 0.6, 0.1]]),
    )
    return rng.uniform(-3.0, 3.0, (n, length, 1)), params, shape


# ---------------------------------------------------------------------------
# relu ramps of the soft window


def test_relu_negative_input():
    # window [5, 8], slope 1: step 2 lies before the rise starts at 4
    onehot = np.eye(12)
    assert time_indicator_values(5.0, 8.0, 1.0, 12)[2] == 0.0
    assert window_grads(5.0, 8.0, 1.0, onehot[2]) == (0.0, 0.0)
    # on the rise the ramp is live: moving t1 right lowers the weight
    assert time_indicator_values(4.5, 8.0, 1.0, 12)[4] == 0.5
    assert window_grads(4.5, 8.0, 1.0, onehot[4]) == (-1.0, 0.0)


def test_relu_subgradient_at_zero_is_zero():
    # steps 4 = t1 - slope and 9 = t2 + slope sit exactly on a ramp's kink
    onehot = np.eye(12)
    window = time_indicator_values(5.0, 8.0, 1.0, 12)
    assert window[4] == 0.0 and window[9] == 0.0
    assert window_grads(5.0, 8.0, 1.0, onehot[4]) == (0.0, 0.0)
    assert window_grads(5.0, 8.0, 1.0, onehot[9]) == (0.0, 0.0)
    # at step 5 = t1 the rise's inner relu sits on its kink, so only the
    # outer one moves with t1; at step 8 = t2 rise = fall = 1, and
    # min(rise, fall) = rise - relu(rise - fall) passes its gradient to
    # the rise, which t2 does not move
    assert window[5] == 1.0 and window[8] == 1.0
    assert window_grads(5.0, 8.0, 1.0, onehot[5]) == (-1.0, 0.0)
    assert window_grads(5.0, 8.0, 1.0, onehot[8]) == (0.0, 0.0)


def test_windows_equal_the_previous_arithmetic():
    # the four ramps as one array, one comparison for every mask and
    # max(x, 0.0) for each relu give the windows, masks and window
    # gradients of the ramps taken one at a time, bit for bit; ends lie on
    # the grid, between steps, at a ramp's kink, crossed or past the signal
    rng = np.random.default_rng(48)
    seen = set()
    for _ in range(400):
        k, length = int(rng.integers(1, 6)), int(rng.integers(1, 30))
        slope = float(rng.choice([0.25, 0.5, 1.0, 3.0, 2.5]))
        grid_ends = rng.random() < 0.5
        ends = rng.integers(-3, length + 3, (2, k)).astype(np.float64)
        if not grid_ends:
            ends += rng.choice([0.0, 0.5, slope, -slope, rng.uniform(-1.0, 1.0)], (2, k))
        ends[:, rng.random(k) < 0.2] = -0.0
        t1, t2 = ends
        windows, masks = _window_rows(t1, t2, slope, length)
        want, want_masks = window_rows_oracle(t1, t2, slope, length)
        assert windows.tobytes() == want.tobytes()
        assert masks.shape == (2, k, length)
        assert masks[0].tobytes() == want_masks[0].tobytes()
        assert masks[1].tobytes() == want_masks[1].tobytes()
        g = rng.choice([-1.5, -0.0, 0.0, 2.0], (k, length)) * rng.normal(size=(k, length))
        got = _window_vjp(g, masks, slope)
        assert got.tobytes() == np.stack(window_vjp_oracle(g, want_masks, slope)).tobytes()
        seen.add(("crossed", bool((t1 > t2).any())))
        seen.add(("both masks", bool(masks[0].any() and masks[1].any())))
        seen.add(("zero end", bool((np.signbit(ends) & (ends == 0.0)).any())))
        seen.add(("slope 1", slope == 1.0))
        seen.add(("-0.0 gradient", bool(np.signbit(got[got == 0.0]).any())))
    assert {case for case, hit in seen if hit} == {
        "crossed", "both masks", "zero end", "slope 1", "-0.0 gradient",
    }


# ---------------------------------------------------------------------------
# the loss


def test_exp_at_zero():
    # an all-zero signal with zero offsets gives output 0 on every sample:
    # exp(-y * 0) = 1 and d/dout exp(-y * out) = -y
    shape = NetworkShape.cycled(1, m=2)
    params = ModelParams(np.zeros(4), np.zeros(4), np.full(4, 5.0), np.full((2, 4), 0.9))
    X = np.zeros((4, 6, 1))
    y = np.array([1, -1, 1, 1])
    batch = np.array([2, 0, 3, 1])
    fwd = network_pass(X[batch], params, shape, P)
    assert np.abs(fwd.out).max() == 0.0
    grads, mean, _ = _batch_gradients(X, y, batch, params, shape, P)
    assert mean == 1.0
    want = fwd.vjp(0.25 * -y[batch].astype(np.float64))
    assert grads.flat.tobytes() == want.flat.tobytes()


# ---------------------------------------------------------------------------
# the |max| normalizer of the sparse softmax


def test_zero_gradient_keeps_the_signs_of_its_zeros():
    # g_rp = g_rpp / den * h + g_max, and g_max is +0.0 off each row's
    # maximum, so a zero output gradient gives g_rp = +0.0 everywhere and
    # g_w = g_u * ez + g_rp * r is -0.0 exactly where r < 0 (num > 0 here)
    r = np.array([-1.0, 2.0, -3.0, 0.5])
    _, saved = _softmax_rows(r, np.ones(4), P, {}, "temporal")
    _, g_w = _softmax_vjp(np.array(0.0), saved, P, {}, "temporal")
    assert np.signbit(g_w).tolist() == [True, False, True, False]


def test_abs_max_value_and_gradient_routing():
    p = ActivationParams(beta=2.0)
    r = np.array([-7.0, 3.0, 1.0])
    value, g_r, g_w = softmax_grads(r, np.ones(3), p)
    assert -7.0 < value < 3.0
    assert rel_err(g_r, central_differences(lambda v: softmax_grads(v, np.ones(3), p)[0], r)) < 1e-6
    assert rel_err(g_w, central_differences(lambda w: softmax_grads(r, w, p)[0], np.ones(3))) < 1e-6


def test_abs_max_of_negative_max():
    # |max| with max < 0: the normalizer's gradient carries the sign flip
    p = ActivationParams(beta=2.0)
    r = np.array([-7.0, -3.0, -4.0])
    value, g_r, _ = softmax_grads(r, np.ones(3), p)
    assert -7.0 < value < -3.0
    assert rel_err(g_r, central_differences(lambda v: softmax_grads(v, np.ones(3), p)[0], r)) < 1e-6


def test_abs_max_tie_routes_to_first_index():
    # at a tie the output has a kink; the gradient is that of the branch
    # where the first tied entry is the max: the right derivative along
    # entry 0 and the left derivative along entry 1
    p = ActivationParams(beta=2.0)
    r = np.array([2.0, 2.0, 1.0])
    step = 1e-7

    def f(v):
        return softmax_grads(v, np.ones(3), p)[0]

    _, g_r, _ = softmax_grads(r, np.ones(3), p)
    e0, e1 = np.eye(3)[0], np.eye(3)[1]
    right0 = (f(r + step * e0) - f(r)) / step
    left0 = (f(r) - f(r - step * e0)) / step
    left1 = (f(r) - f(r - step * e1)) / step
    assert abs(right0 - left0) > 1e-3  # a genuine kink
    assert g_r[0] == pytest.approx(right0, rel=1e-5, abs=1e-6)
    assert g_r[1] == pytest.approx(left1, rel=1e-5, abs=1e-6)


def softmax_layer_draw(rng, layer):
    """r and w of one layer's softmax: (n, k, L) predicate rows over
    (k, L) windows, (n, 1, k) slot outputs over (live, k) binary gates,
    or (n, live) row outputs over ones.  Values come from a small grid
    with signed zeros, so rows tie at their maximum, peak at +0.0 or
    -0.0, lie wholly below zero, or hold a single entry."""
    n, width = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    if layer == "temporal":
        k = int(rng.integers(1, 5))
        r_shape, w = (n, k, width), rng.choice([0.0, 0.5, 1.0], (k, width))
    elif layer == "conjunction":
        r_shape, w = (n, 1, width), rng.choice([0.0, 1.0], (int(rng.integers(1, 4)), width))
    else:
        r_shape, w = (n, width), np.ones(width)
    w[..., rng.integers(width)] = 1.0  # every row selects an entry
    r = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], r_shape)
    if rng.random() < 0.3:
        r = -np.abs(r) - 0.5
    return r, w


def test_first_maximum_route_equals_argmax_route():
    # the saved flat first maxima route the normalizer's gradient to the
    # bytes that argmax + take_along_axis / put_along_axis gave, on all
    # three layer shapes, on fresh arrays and in a workspace
    rng = np.random.default_rng(45)
    ws = {}
    seen = set()
    for layer in ("temporal", "conjunction", "disjunction"):
        for _ in range(150):
            r, w = softmax_layer_draw(rng, layer)
            p = ActivationParams(beta=float(rng.choice([0.5, 25.0])), h=float(rng.choice([1.0, 2.0])))
            _, saved = _softmax_rows(r, w, p, ws if rng.random() < 0.5 else {}, layer)
            rp = saved[2]
            assert saved[3].tobytes() == (np.abs(rp.max(axis=-1, keepdims=True)) + p.eps).tobytes()
            g = rng.normal(size=rp.shape[:-1])
            g[rng.random(g.shape) < 0.2] = 0.0
            want = softmax_vjp_oracle(g, saved, p)
            got = _softmax_vjp(g, saved, p, ws, layer)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], layer
            top = rp.max(axis=-1)
            seen.add(("single", rp.shape[-1] == 1))
            seen.add(("tie", bool(((rp == top[..., None]).sum(axis=-1) > 1).any())))
            seen.add(("all negative", bool((top < 0.0).any())))
            first = rp.argmax(axis=-1)[..., None]
            zero = np.take_along_axis(rp, first, axis=-1) == 0.0
            sign = np.signbit(np.take_along_axis(rp, first, axis=-1))
            seen.add(("+0 max", bool((zero & ~sign).any())))
            seen.add(("-0 max", bool((zero & sign).any())))
    assert {case for case, hit in seen if hit} == {"single", "tie", "all negative", "+0 max", "-0 max"}


def test_shift_at_the_masked_argmax_equals_the_masked_max():
    # read at the first maximum of the exponents with unselected lanes at
    # -inf (or at the first maximum of r' when every lane is selected),
    # the shift gives the exponentials and values of the masked max
    rng = np.random.default_rng(47)
    for layer in ("temporal", "conjunction", "disjunction"):
        for _ in range(150):
            r, w = softmax_layer_draw(rng, layer)
            p = ActivationParams(beta=float(rng.choice([0.5, 25.0])), h=float(rng.choice([1.0, 2.0])))
            value, saved = _softmax_rows(r, w, p, {}, layer)
            want, want_saved = softmax_rows_oracle(r, w, p)
            assert value.tobytes() == want.tobytes(), layer
            assert saved[4].tobytes() == want_saved[4].tobytes(), layer


def previous_arithmetic_draw(rng):
    """Signals, parameters, activation and output gradients of one pass.
    Signals and offsets come from a small grid with signed zeros half the
    time, so rows tie at their maximum, peak at +0.0 or -0.0 or lie below
    zero; windows are fractional or integral, some full; gate columns are
    closed in every row at random.  One draw in six has a single slot
    whose integral window ends at the last step, so that one lane moves
    with a window end."""
    n = int(rng.integers(1, 30))
    grid = rng.random() < 0.5
    if rng.random() < 1 / 6:
        op = TemporalOp.ALWAYS if rng.random() < 0.5 else TemporalOp.EVENTUALLY
        shape = NetworkShape((SlotSpec(0, int(rng.choice([-1, 1])), op),), m=1)
        length = int(rng.integers(2, 12))
        t1 = rng.integers(0, length, 1).astype(np.float64)
        t2 = np.array([length - 1.0])
        M = np.ones((1, 1))
    else:
        shape = NetworkShape.cycled(int(rng.integers(1, 3)), m=int(rng.integers(1, 4)))
        k, length = shape.k, int(rng.integers(1, 25))
        if rng.random() < 0.5:
            t1 = rng.integers(0, length, k).astype(np.float64)
            t2 = np.minimum(t1 + rng.integers(0, length, k), length - 1.0)
        else:
            t1 = rng.uniform(0.0, length - 1.0, k)
            t2 = np.minimum(t1 + rng.uniform(0.0, length, k), length - 1.0)
        full = rng.random(k) < 0.2
        t1[full], t2[full] = 0.0, length - 1.0
        M = rng.choice([0.1, 0.9], (shape.m, k))
        closed = int(rng.integers(k))
        if rng.random() < 0.5:
            M[:, closed] = 0.1
        M[int(rng.integers(shape.m)), (closed + 1) % k] = 0.9
    dim = 1 + max(slot.axis for slot in shape.slots)
    if grid:
        X = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], (n, length, dim))
        b = rng.choice([-1.0, -0.0, 0.0, 1.0], shape.k)
    else:
        X, b = rng.normal(size=(n, length, dim)), rng.normal(size=shape.k)
    p = ActivationParams(
        beta=float(rng.choice([0.5, 3.0, 25.0])),
        h=float(rng.choice([1.0, 0.5, 2.0])),
        slope=float(rng.choice([1.0, 0.5, 3.0])),
    )
    dout = rng.normal(size=n)
    dout[rng.random(n) < 0.2] = 0.0
    return X, ModelParams(b, t1, t2, M), shape, p, dout


def test_pass_equals_the_previous_arithmetic():
    # the shift read at a masked argmax, predicate rows in two passes, the
    # stacked window ramps and no clamp where every lane is selected give
    # the bytes of the masked max, the three-pass rows, the ramps one at a
    # time and the clamp, on fresh arrays and in a workspace; the window
    # gradient sums the full weight gradient over the batch, then over
    # each end's steps, in the oracle's order
    rng = np.random.default_rng(46)
    ws = {}
    seen = set()
    for _ in range(300):
        X, params, shape, p, dout = previous_arithmetic_draw(rng)
        want_out, want_grads = network_pass_oracle(X, params, shape, p, dout)
        for w in (ws, None):
            fwd = network_pass(X, params, shape, p, ws=w)
            assert fwd.out.tobytes() == want_out.tobytes()
            assert fwd.vjp(dout).flat.tobytes() == want_grads.flat.tobytes()
        gates = params.gates()
        seen.add(("closed slot", bool((gates[fwd.model.live] == 0.0).all(axis=0).any())))
        windows = fwd.temporal[1]
        seen.add(("partial window", bool((windows == 0.0).any())))
        seen.add(("slope != 1", p.slope != 1.0))
        seen.add(("slope 1", p.slope == 1.0))
        seen.add(("h != 1", p.h != 1.0))
        lanes = np.count_nonzero(fwd.model.window_ends[0] | fwd.model.window_ends[1])
        seen.add(("one lane, n >= 8", lanes == 1 and len(X) >= 8))
        # where a sum over time has three or more terms, its order could matter
        seen.add(("an end moved by three or more steps", bool((fwd.model.window_ends.sum(axis=-1) >= 3).any())))
        seen.add(("one live row", len(fwd.model.live) == 1))
        seen.add(("live rows >= 2", len(fwd.model.live) >= 2))
        for layer in ("temporal", "conjunction"):
            every = bool(getattr(fwd, layer)[1].min() > 0.0)
            seen.add((f"{layer}, every lane selected", every))
            seen.add((f"{layer}, some lane unselected", not every))
        for saved in (fwd.temporal, fwd.conjunction, fwd.disjunction):
            w, rp, top = saved[1], saved[2], saved[9]
            selected = np.broadcast_to(w > 0.0, rp.shape)
            best = np.where(selected, rp, -np.inf).max(axis=-1)
            seen.add(("tie", bool(((rp == best[..., None]) & selected).sum(axis=-1).max() > 1)))
            seen.add(("+0 max", bool(((top == 0.0) & ~np.signbit(top)).any())))
            seen.add(("-0 max", bool(((top == 0.0) & np.signbit(top)).any())))
            partial = ~selected.all(axis=-1)
            seen.add(("all negative, partial", bool(((best < 0.0) & partial).any())))
    assert {case for case, hit in seen if hit} == {
        "closed slot", "partial window", "slope != 1", "slope 1", "h != 1", "one lane, n >= 8",
        "an end moved by three or more steps",
        "one live row", "live rows >= 2",
        "temporal, every lane selected", "temporal, some lane unselected",
        "conjunction, every lane selected", "conjunction, some lane unselected",
        "tie", "+0 max", "-0 max", "all negative, partial",
    }


def test_one_live_row_runs_the_disjunction_over_one_lane():
    # a softmax over one lane at weight 1 is its value: the output is the
    # negated conjunction output, but a zero comes out +0.0 (numpy sums
    # [-0.0] to +0.0), and the gradients are those of passing dout straight
    # to the conjunction, g_h = dout[:, None], written out below
    rng = np.random.default_rng(48)
    seen = set()
    for _ in range(200):
        X, params, shape, p, dout = previous_arithmetic_draw(rng)
        dout[rng.random(len(dout)) < 0.2] = -0.0
        keep = int(rng.choice(np.flatnonzero((params.M >= 0.5).any(axis=1))))
        params.M[np.arange(shape.m) != keep] = 0.1
        fwd = network_pass(X, params, shape, p)
        assert fwd.model.live.tolist() == [keep]
        num, den2 = fwd.conjunction[6:8]
        neg_h = -(num / den2)[:, 0]
        assert (fwd.out == neg_h).all() and (np.sign(fwd.out) == np.sign(neg_h)).all()
        assert fwd.out.tobytes() == (neg_h + 0.0).tobytes()
        got = fwd.vjp(dout).flat.tobytes()
        ws = {}
        g_neg, g_gates = _softmax_vjp(-dout[:, None], fwd.conjunction, p, ws, "conjunction")
        g_in, g_windows = _softmax_vjp(
            np.add.reduce(g_neg, axis=1) * fwd.model.neg_flip, fwd.temporal, p, ws, "temporal"
        )
        want = params.zeros()
        want.t1[:], want.t2[:] = _window_vjp(np.add.reduce(g_windows, axis=0), fwd.model.window_ends, p.slope)
        want.M[fwd.model.live] = np.add.reduce(g_gates, axis=0)
        np.multiply(fwd.model.neg_flip, np.add.reduce(g_in, axis=(0, 2)), out=want.b)
        assert got == want.flat.tobytes()
        seen.add(("-0.0 negated output", bool(((neg_h == 0.0) & np.signbit(neg_h)).any())))
        seen.add(("-0.0 dout", bool(((dout == 0.0) & np.signbit(dout)).any())))
    assert {case for case, hit in seen if hit} == {"-0.0 negated output", "-0.0 dout"}


# ---------------------------------------------------------------------------
# straight-through gates


def test_ste_thresholds_at_half():
    X, params, shape = one_slot_gates_case(np.random.default_rng(31))
    below = np.nextafter(0.5, 0.0)
    params.M[...] = [[0.5, below, 0.9, 0.2], [below, below, 0.1, 0.3]]
    fwd = network_pass(X, params, shape, P)
    assert fwd.model.live.tolist() == [0]
    binary = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    assert fwd.out.tobytes() == network_pass(X, GatedParams(params, binary), shape, P).out.tobytes()


def test_ste_backward_is_identity():
    # the output does not move with M between thresholds, yet M gets the
    # gradient of the binary gates it thresholds to
    p = ActivationParams(beta=1.0)  # soft, so open gates move the output
    X, params, shape = one_slot_gates_case(np.random.default_rng(32))
    gates = (params.M >= 0.5).astype(np.float64)
    dout = np.random.default_rng(33).normal(size=len(X))
    g_M = network_pass(X, params, shape, p).vjp(dout).M
    nudged = ModelParams(params.b, params.t1, params.t2, params.M)
    nudged.M[0, 0] -= 0.1
    assert network_pass(X, nudged, shape, p).out.tobytes() == network_pass(X, params, shape, p).out.tobytes()

    def f(g):
        return dout @ network_pass(X, GatedParams(params, g.reshape(gates.shape)), shape, p).out

    fd = central_differences(f, gates.ravel()).reshape(gates.shape)
    open_ = gates > 0.0
    assert np.allclose(g_M[open_], fd[open_], rtol=1e-4, atol=1e-9)
    assert np.abs(g_M[open_]).max() > 1e-3


# ---------------------------------------------------------------------------
# central differences


def test_primitives_match_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        p = ActivationParams(beta=float(rng.uniform(1.0, 10.0)), h=float(rng.uniform(0.5, 2.0)))
        r = rng.uniform(-3.0, 3.0, n)
        w = rng.uniform(0.2, 1.0, n)  # every entry selected, away from w = 0
        _, g_r, g_w = softmax_grads(r, w, p)
        assert rel_err(g_r, central_differences(lambda v: softmax_grads(v, w, p)[0], r)) < 1e-5
        assert rel_err(g_w, central_differences(lambda v: softmax_grads(r, v, p)[0], w)) < 1e-5
        # fractional window ends keep every grid step off the ramps' kinks
        length = int(rng.integers(6, 20))
        t1 = int(rng.integers(0, length - 3)) + 0.375
        t2 = int(rng.integers(int(t1) + 1, length - 1)) + 0.25
        slope = float(rng.choice([0.5, 1.0, 2.0]))
        weights = rng.uniform(0.5, 1.5, length)
        g_t1, g_t2 = window_grads(t1, t2, slope, weights)
        fd_t1 = central_differences(lambda v: time_indicator_values(v[0], t2, slope, length) @ weights, [t1])
        fd_t2 = central_differences(lambda v: time_indicator_values(t1, v[0], slope, length) @ weights, [t2])
        assert rel_err([g_t1, g_t2], np.concatenate([fd_t1, fd_t2])) < 1e-5
        # crossed ends give a tent below 1, each flank moving with one end
        g_t1, g_t2 = window_grads(t2, t1, slope, weights)
        fd_t1 = central_differences(lambda v: time_indicator_values(v[0], t1, slope, length) @ weights, [t2])
        fd_t2 = central_differences(lambda v: time_indicator_values(t2, v[0], slope, length) @ weights, [t1])
        assert rel_err([g_t1, g_t2], np.concatenate([fd_t1, fd_t2])) < 1e-5


def test_sparse_softmax_gradient_at_smooth_point():
    p = ActivationParams(beta=8.0, h=1.0)
    w = np.array([1.0, 1.0, 0.0, 1.0])
    r = np.array([0.9, -1.7, 4.0, 2.3])
    _, g_r, _ = softmax_grads(r, w, p)
    assert rel_err(g_r, central_differences(lambda v: softmax_grads(v, w, p)[0], r)) < 1e-4


def test_time_indicator_gradient_wrt_t1():
    weights = np.linspace(0.5, 1.5, 12)
    g_t1, _ = window_grads(4.5, 8.0, 1.0, weights)
    fd = central_differences(lambda v: time_indicator_values(v[0], 8.0, 1.0, 12) @ weights, [4.5])
    assert rel_err([g_t1], fd) < 1e-4


# ---------------------------------------------------------------------------
# passes over a batch


def test_replay_determinism():
    def run():
        X, params, shape = one_slot_gates_case(np.random.default_rng(34))
        fwd = network_pass(X, params, shape, P)
        return fwd.out, fwd.vjp(np.linspace(-1.0, 1.0, len(X)))

    (out1, g1), (out2, g2) = run(), run()
    assert out1.tobytes() == out2.tobytes()
    assert g1.flat.tobytes() == g2.flat.tobytes()


def test_unused_leaf_gets_zero_gradient():
    # slots 2 and 3 feed no live row: their offsets and windows get zero
    X, params, shape = one_slot_gates_case(np.random.default_rng(35))
    gates = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    grads = network_pass(X, GatedParams(params, gates), shape, P).vjp(np.ones(len(X)))
    for group in ("b", "t1", "t2"):
        assert getattr(grads, group)[2:].tolist() == [0.0, 0.0]
    assert np.abs(grads.b[:2]).min() > 0.0


def test_non_finite_forward_names_the_node():
    X, params, shape = one_slot_gates_case(np.random.default_rng(36))
    y = np.array([1, -1, 1, 1, -1])
    X[2] = -1000.0  # label +1: exp(-out) overflows
    with pytest.raises(NonFiniteError, match=r"^non-finite loss of sample 2$"):
        _batch_gradients(X, y, np.array([3, 2, 0, 1, 4]), params, shape, P)
    params.t1[2] = np.nan
    with pytest.raises(NonFiniteError, match=r"^non-finite parameter t1\[2\]$"):
        _batch_gradients(X, y, np.arange(5), params, shape, P)


def test_non_finite_array_detected():
    X, params, shape = one_slot_gates_case(np.random.default_rng(37))
    X[1] = 1e308  # a window's weighted sum overflows
    # no numpy warning escapes: the `error` filter would raise it
    with pytest.raises(NonFiniteError, match=r"^non-finite network output of sample 1$"):
        network_outputs(X, params, shape, P)


# ---------------------------------------------------------------------------
# the workspace


def random_network_case(rng, n, length, dim, m, one_live):
    """Signals and parameters for a pass, with one live gate row or at
    least two."""
    shape = NetworkShape.cycled(dim, m=m)
    t1 = rng.uniform(0.0, length - 1.0, shape.k)
    t2 = np.minimum(t1 + rng.uniform(0.0, length, shape.k), length - 1.0)
    M = rng.uniform(0.0, 1.0, (m, shape.k))
    M[:, 0] = 0.9
    if one_live:
        M[1:] = 0.1
    params = ModelParams(rng.normal(size=shape.k), t1, t2, M)
    return rng.normal(size=(n, length, dim)), params, shape


def pass_bytes(fwd, dout):
    return fwd.out.tobytes(), fwd.vjp(dout).flat.tobytes()


def test_workspace_passes_equal_fresh_passes():
    # one workspace across shapes, as in training: repeated shapes, a
    # smaller last batch, other n, L, dim and m, one live row or several;
    # the workspace is poisoned with NaN between passes, so a stale or
    # shared intermediate shows in the bytes
    rng = np.random.default_rng(41)
    ws = {}
    cases = [
        (50, 61, 2, 2, False),
        (50, 61, 2, 2, True),
        (17, 61, 2, 2, False),
        (50, 61, 2, 2, False),
        (25, 40, 1, 3, False),
        (25, 40, 1, 3, True),
        (6, 12, 3, 1, True),
        (1, 5, 2, 4, False),
        (9, 4, 1, 4, False),  # k = L = live rows: two layers' arrays of one shape
    ]
    for n, length, dim, m, one_live in cases:
        X, params, shape = random_network_case(rng, n, length, dim, m, one_live)
        p = ActivationParams(beta=float(rng.choice([3.0, 25.0])), slope=float(rng.choice([1.0, 3.0])))
        dout = rng.normal(size=n)
        reused = network_pass(X, params, shape, p, ws=ws)
        assert (len(reused.model.live) == 1) == one_live
        assert pass_bytes(reused, dout) == pass_bytes(network_pass(X, params, shape, p), dout)
        for array in ws.values():
            array.fill(np.nan)


def test_network_outputs_equal_fresh_chunk_passes():
    # the head runs once over every signal, the temporal layer chunk by
    # chunk: neither moves a bit from passes over the chunks or over all
    rng = np.random.default_rng(42)
    for n in (1, CHUNK, CHUNK + 1, 300, 3 * CHUNK + 1):
        for length, dim, m, one_live in ((20, 2, 2, False), (61, 2, 3, True), (7, 1, 4, False)):
            X, params, shape = random_network_case(rng, n, length, dim, m, one_live)
            p = ActivationParams(beta=float(rng.choice([3.0, 25.0])), h=float(rng.choice([1.0, 0.5])))
            out = network_outputs(X, params, shape, p).tobytes()
            fresh = [network_pass(X[lo : lo + CHUNK], params, shape, p).out for lo in range(0, n, CHUNK)]
            assert out == np.concatenate(fresh).tobytes(), (n, length, m)
            assert out == network_pass(X, params, shape, p).out.tobytes(), (n, length, m)


def test_second_pass_reuses_the_workspace():
    # a pass of a shape seen before adds no arrays and writes its saved
    # intermediates into the first pass's memory
    rng = np.random.default_rng(43)
    X, params, shape = random_network_case(rng, 30, 25, 2, 3, False)
    ws = {}
    first = network_pass(X, params, shape, P, ws=ws)
    first.vjp(rng.normal(size=len(X)))
    keys = set(ws)
    second = network_pass(rng.normal(size=X.shape), params, shape, P, ws=ws)
    second.vjp(rng.normal(size=len(X)))
    assert set(ws) == keys
    for layer in ("temporal", "conjunction", "disjunction"):
        # r (the temporal layer's predicate rows), rp, ez and u
        for i in (0, 2, 4, 5) if layer == "temporal" else (2, 4, 5):
            assert np.shares_memory(getattr(first, layer)[i], getattr(second, layer)[i]), (layer, i)


def test_buffer_slices_the_largest_array_of_a_trailing_shape():
    ws = {}
    full = _buffer(ws, "temporal", "rp", (5, 3))
    assert _buffer(ws, "temporal", "rp", (5, 3)) is full  # an exact fit is no view
    part = _buffer(ws, "temporal", "rp", (2, 3))
    assert part.shape == (2, 3) and part.base is full and part.flags.c_contiguous
    grown = _buffer(ws, "temporal", "rp", (7, 3))
    assert ws == {("temporal", "rp", (3,)): grown} and grown.shape == (7, 3)
    assert _buffer(ws, "temporal", "rp", (5, 3)).base is grown
    _buffer(ws, "temporal", "rp", (5, 4))
    _buffer(ws, "conjunction", "rp", (5, 3))
    assert len(ws) == 3


def test_network_outputs_runs_its_last_chunk_in_the_first_chunks_arrays(monkeypatch):
    chunks, buffers = [], []

    def buffer(ws, layer, name, shape):
        buffers.append((name, real_buffer(ws, layer, name, shape)))
        return buffers[-1][1]

    def record(X, model, ws):
        # the arrays the chunk's temporal layer writes, by name
        buffers.clear()
        chunks.append((real(X, model, ws), ws, dict(buffers)))
        return chunks[-1][0]

    real, real_buffer = network._temporal, network._buffer
    monkeypatch.setattr(network, "_temporal", record)
    monkeypatch.setattr(network, "_buffer", buffer)
    n = 3 * CHUNK + 1
    X, params, shape = random_network_case(np.random.default_rng(45), n, 10, 1, 2, False)
    fresh = [network_pass(X[lo : lo + CHUNK], params, shape, P).out for lo in range(0, n, CHUNK)]
    chunks.clear()
    out = network_outputs(X, params, shape, P)
    assert out.tobytes() == np.concatenate(fresh).tobytes()
    ws = chunks[0][1]
    assert len(chunks) == 4 and all(w is ws for _, w, _ in chunks)
    # one array per layer and name: the temporal layer's of the full
    # chunk's size, the conjunction's and disjunction's of every signal's
    assert len({key[:2] for key in ws}) == len(ws)
    assert all(len(array) == (CHUNK if key[0] == "temporal" else n) for key, array in ws.items())
    (_, _, first), ((g, _), _, last) = chunks[0], chunks[-1]
    assert len(g) == 1
    # r (the predicate rows), and rp, ez, u and tmp, which run no backward
    # and share one scratch array: the temporal layer holds two arrays
    assert first.keys() == last.keys() == {"r", "rp", "ez", "u", "tmp"}
    for name in first:
        assert np.shares_memory(first[name], last[name]), name
    assert first["rp"] is first["ez"] is first["u"] is first["tmp"] is not first["r"]
    assert len({id(array) for key, array in ws.items() if key[0] == "temporal"}) == 2
    # a pass keeps five, which its backward reads
    trained = network_pass(X[:CHUNK], params, shape, P).ws
    assert len({id(array) for key, array in trained.items() if key[0] == "temporal"}) == 5


def test_callers_keep_one_workspace(monkeypatch, tiny_driving_pair):
    # train and network_outputs each pass one workspace to all their
    # temporal layers
    seen = []

    def record(X, model, ws):
        seen.append(ws)
        return real(X, model, ws)

    real = network._temporal
    monkeypatch.setattr(network, "_temporal", record)
    n = 2 * CHUNK + 1
    X, params, shape = random_network_case(np.random.default_rng(44), n, 10, 1, 2, False)
    network_outputs(X, params, shape, P)
    train(tiny_driving_pair, TrainConfig(epochs=2, batch_size=25))
    assert len(seen) == 3 + 2 * 3
    for calls in (seen[:3], seen[3:]):
        assert isinstance(calls[0], dict) and all(ws is calls[0] for ws in calls)
        # the smaller last chunk or batch runs in the full one's arrays
        assert len({key[:2] for key in calls[0]}) == len(calls[0])
    assert {(key[0], len(array)) for key, array in seen[0].items()} == {
        ("temporal", CHUNK), ("conjunction", n), ("disjunction", n)
    }
    assert {len(array) for array in seen[3].values()} == {25}


def test_network_outputs_builds_the_windows_once(monkeypatch):
    calls = []

    def record(*args):
        calls.append(args)
        return real(*args)

    real = network._window_rows
    monkeypatch.setattr(network, "_window_rows", record)
    X, params, shape = random_network_case(np.random.default_rng(46), 3 * CHUNK + 1, 10, 1, 2, False)
    network_outputs(X, params, shape, P)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# scoring pools only the slots a live gate row opens


def unread_slots_case(rng, n, length, dim, m, one_live):
    """Signals on a grid of signed zeros and small integers, offsets on
    the same grid (so rows and pooled values hit exact zeros), and gates
    with one live row (one_live) or m of them, some slots closed in every
    row."""
    shape = NetworkShape.cycled(dim, m=m)
    k = shape.k
    X = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(n, length, dim))
    b = rng.choice([-1.0, -0.0, 0.0, 1.0], size=k)
    t1 = rng.integers(0, length, k) + rng.choice([0.0, 0.5], k)
    t2 = np.minimum(t1 + rng.integers(0, length, k), length - 1.0)
    M = (rng.uniform(size=(m, k)) < rng.uniform(0.1, 0.6)).astype(np.float64)
    M[:, rng.uniform(size=k) < 0.4] = 0.0
    M[[0, -1], rng.integers(k, size=2)] = 1.0
    if one_live:
        M[1:] = 0.0
    return X, ModelParams(b, np.minimum(t1, t2), t2, M), shape


def test_network_outputs_skipping_unread_slots_keeps_the_bits():
    # an unread slot's pooled value is 0.0 in place of the pass's, which
    # enters the head only through closed gates: no output bit moves
    rng = np.random.default_rng(47)
    unread = zeros = 0
    for draw in range(300):
        n = CHUNK + 3 if draw % 10 == 0 else int(rng.integers(1, 12))
        length, dim, m = int(rng.integers(1, 9)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        X, params, shape = unread_slots_case(rng, n, length, dim, m, draw % 2 == 0)
        p = ActivationParams(beta=float(rng.uniform(1.0, 30.0)), h=float(rng.choice([0.5, 1.0, 2.0])))
        assert (np.count_nonzero(params.gates().any(axis=1)) == 1) == (draw % 2 == 0 or m == 1)
        out = network_outputs(X, params, shape, p)
        assert out.tobytes() == network_pass(X, params, shape, p).out.tobytes(), draw
        unread += not params.gates().any(axis=0).all()
        zeros += int(np.count_nonzero(out == 0.0))
    assert unread >= 100 and zeros >= 100


def test_network_outputs_pools_only_the_read_slots(monkeypatch):
    rows = []

    def record(X, model, ws):
        g, temporal = real(X, model, ws)
        rows.append((g.shape[1], model.axes.tolist()))
        return g, temporal

    real = network._temporal
    monkeypatch.setattr(network, "_temporal", record)
    X, params, shape = one_slot_gates_case(np.random.default_rng(48), n=CHUNK + 1)
    axes = shape.constants[0]
    for gates, read in (
        ([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]], [0, 1, 2]),
        ([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]], [3]),
        ([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], [0, 1, 2, 3]),
    ):
        rows.clear()
        network_outputs(X, GatedParams(params, gates), shape, P)
        assert rows == [(len(read), axes[read].tolist())] * 2


def test_a_model_on_some_slots_keeps_their_rows_of_every_per_slot_field():
    # every field but the params and the gate head has one slot axis (k = 4
    # here, and no other axis is 4 long): a field added later that
    # `on_slots` does not restrict fails here
    X, params, shape = one_slot_gates_case(np.random.default_rng(50))
    model = network._prepare(X, params, shape, P)
    read = np.array([1, 3])
    part = model.on_slots(read)
    for field in fields(network._Model):
        got, full = getattr(part, field.name), getattr(model, field.name)
        if field.name in ("params", "p", "live", "gates"):
            assert got is full
            continue
        axis = full.shape.index(shape.k)
        assert full.shape.count(shape.k) == 1, field.name
        assert got.dtype == full.dtype, field.name
        assert got.tobytes() == np.take(full, read, axis=axis).tobytes(), field.name


def test_an_unread_slot_that_overflows_is_not_scored():
    # axis 1 feeds only slots 2, 3, 6 and 7, closed in every row: its
    # overflow gives the pass NaN (inf * 0), and the score the outputs of
    # the same signals with axis 1 at zero
    rng = np.random.default_rng(49)
    shape = NetworkShape.cycled(2, m=2)
    params = ModelParams(
        rng.uniform(-1.0, 1.0, 8),
        np.zeros(8),
        np.full(8, 9.0),
        [[0.9, 0.1, 0.0, 0.0, 0.7, 0.6, 0.2, 0.0], [0.0, 0.8, 0.4, 0.3, 0.0, 0.9, 0.0, 0.1]],
    )
    X = rng.uniform(-3.0, 3.0, (CHUNK + 5, 10, 2))
    X[::3, :, 1] = 1.7e308
    X[1::3, :, 1] = -1.7e308
    zeroed = X.copy()
    zeroed[:, :, 1] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = np.isnan(network_pass(X, params, shape, P).out)
        out = network_outputs(X, params, shape, P)
    assert overflowed.tolist() == [i % 3 < 2 for i in range(len(X))]
    assert np.isfinite(out).all()
    assert out.tobytes() == network_outputs(zeroed, params, shape, P).tobytes()


# ---------------------------------------------------------------------------
# one temporal kernel: the masked argmax, the floored top and no clamp


def masked_rule_case(rng, n, near, gates=(1.0, 1.0, 1.0, 1.0)):
    """Signals of length 9 for `NetworkShape.cycled(1, m=1)`, whose four
    slots pool the rows -x, -x, x and x (before their offsets b), and
    whose windows are [2, 5] (unselected steps on both sides), [0, 8]
    (every step), [4, 4] and [1.5, 6] (a shoulder at step 1), under the
    one gate row `gates`.  Each signal's values have one sign inside
    steps 1..6 and the other outside, so that a row whose selected values
    are all negative has its maximum outside the window; half the signals
    have a signed zero at step 4, a selected maximum of +-0.0.  With
    `near`, b is 2 and the signals lie within 2e-10 of it, so the tops of
    slots 0 and 2 lie far below eps; otherwise b is a signed zero."""
    shape = NetworkShape.cycled(1, m=1)
    x = rng.uniform(1.0, 2.0, (n, 9)) * rng.choice([-1.0, 1.0], (n, 1))
    x[:, [0, 7, 8]] *= -1.0
    zero = rng.uniform(size=n) < 0.5
    x[zero, 4] = rng.choice([-0.0, 0.0], np.count_nonzero(zero))
    # offsets flip * b of +0.0 on slots 0 and 2: their rows keep x's zeros
    b = np.full(4, 2.0) if near else np.array([-0.0, 0.0, 0.0, -0.0])
    X = (2.0 + 1e-10 * x if near else x)[:, :, None]
    return X, ModelParams(b, [2.0, 0.0, 4.0, 1.5], [5.0, 8.0, 4.0, 6.0], [gates]), shape


@pytest.mark.parametrize("near", [False, True])
@pytest.mark.parametrize("h", [1.0, 2.0])
def test_scoring_keeps_the_bits_of_the_pass(h, near):
    # the temporal layer floors a slot's top at 0 where it has an
    # unselected step, as a max over r * w does, shifts by its one argmax
    # and puts the unselected lanes at -inf: each case of that rule occurs,
    # and scoring, which pools the read slots CHUNK signals at a time,
    # keeps the pass's bits.
    # A gate row of one slot outputs that slot's pooled value as it is,
    # so its bits show; the head would hide a slot's smaller terms
    p = ActivationParams(h=h)
    for gates in (*np.eye(4), np.ones(4)):
        X, params, shape = masked_rule_case(np.random.default_rng(50), 3 * CHUNK + 1, near, gates)
        r, w = network_pass(X, params, shape, p).temporal[:2]
        selected = np.broadcast_to(w > 0.0, r.shape)
        partial = ~selected.all(axis=-1)
        top = np.where(selected, r, -np.inf).max(axis=-1)
        missed = partial & (top < 0.0) & (r.max(axis=-1) > 0.0)
        # with `near`, slot 3's rows are x + 2, all > 0
        assert np.count_nonzero(missed[:, [0, 2] if near else [0, 2, 3]], axis=0).min() > 50
        assert partial[:, [0, 2, 3]].all() and not partial[:, 1].any()
        if near:
            assert np.count_nonzero((np.abs(top) < 1e-2 * p.eps) & ~missed) > 100
        else:
            # a selected maximum of +0.0 and of -0.0, unselected steps both sides
            for j in (0, 2):
                zeros = r[top[:, j] == 0.0, j, 4]
                assert min(np.count_nonzero(np.signbit(zeros)), np.count_nonzero(~np.signbit(zeros))) > 20
        for n in (1, CHUNK + 1, 3 * CHUNK + 1):
            out = network_outputs(X[:n], params, shape, p)
            assert out.tobytes() == network_pass(X[:n], params, shape, p).out.tobytes(), (gates, n)


def test_scoring_names_the_pass_s_first_non_finite_sample():
    rng = np.random.default_rng(51)
    X, params, shape = masked_rule_case(rng, 3 * CHUNK + 1, False)
    # step 0 lies outside three windows, step 4 inside all four
    for n, first in ((1, 0), (CHUNK + 1, CHUNK), (3 * CHUNK + 1, 2 * CHUNK + 5)):
        for step in (0, 4):
            for value in (np.inf, -np.inf):
                Y = X[:n].copy()
                Y[first::7, step] = value
                with np.errstate(invalid="ignore", over="ignore"):
                    bad = ~np.isfinite(network_pass(Y, params, shape, P).out)
                assert bad.argmax() == first and bad[first::7].all()
                with pytest.raises(NonFiniteError, match=rf"^non-finite network output of sample {first}$"):
                    network_outputs(Y, params, shape, P)


def temporal_fuzz_case(rng):
    """One model of the temporal kernel's fuzz: dim 1-2, length 1-11, n
    1-39 signals and m 1-3 gate rows; signals and offsets on a grid of
    signed zeros and small integers, or normal, at a scale from 1e-12 to
    1e3; integral or fractional windows, in a fifth of the models all
    ending at the last step; h in {0.5, 1, 2}, slope in {0.5, 1, 1.5, 3};
    output gradients with signed zeros."""
    dim, length, n, m = (int(rng.integers(lo, hi)) for lo, hi in ((1, 3), (1, 12), (1, 40), (1, 4)))
    shape = NetworkShape.cycled(dim, m=m)
    k = shape.k
    scale = 10.0 ** float(rng.integers(-12, 4))
    if rng.random() < 0.5:
        X = rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], (n, length, dim)) * scale
        b = rng.choice([-1.0, -0.0, 0.0, 1.0], k) * scale
    else:
        X, b = rng.normal(size=(n, length, dim)) * scale, rng.normal(size=k) * scale
    t1 = rng.uniform(0.0, length - 1.0, k)
    t2 = np.minimum(t1 + rng.uniform(0.0, length, k), length - 1.0)
    if rng.random() < 0.5:
        t1, t2 = np.floor(t1), np.ceil(t2)
    if rng.random() < 0.2:
        t2[:] = length - 1.0
    M = rng.uniform(size=(m, k))
    M[rng.integers(m), rng.integers(k)] = 0.9
    p = ActivationParams(
        beta=float(rng.uniform(0.5, 30.0)),
        h=float(rng.choice([0.5, 1.0, 2.0])),
        slope=float(rng.choice([0.5, 1.0, 1.5, 3.0])),
    )
    dout = rng.normal(size=n)
    zero = rng.random(n) < 0.3
    dout[zero] = np.copysign(0.0, rng.normal(size=np.count_nonzero(zero)))
    return X, ModelParams(b, t1, t2, M), shape, p, dout


def test_temporal_kernel_keeps_the_bits_of_the_clamped_softmax(monkeypatch):
    # the masked kernel gives the pooled values, the outputs and the
    # gradients of the layer it replaced, `_softmax_rows` with its first
    # maximum over all lanes and its clamp, on the fuzz's models and on
    # the masked rule's cases
    rng = np.random.default_rng(52)
    cases = [temporal_fuzz_case(rng) for _ in range(1000)]
    for gates in (*np.eye(4), np.ones(4)):
        for near in (False, True):
            X, params, shape = masked_rule_case(rng, 40, near, gates)
            p = ActivationParams(h=float(rng.choice([1.0, 2.0])))
            cases.append((X, params, shape, p, rng.normal(size=len(X))))
    seen = set()
    for X, params, shape, p, dout in cases:
        model = network._prepare(X, params, shape, p)
        got = network._temporal(X, model, {})[0]
        assert got.tobytes() == temporal_oracle(X, model, {})[0].tobytes()
        fwd = network_pass(X, params, shape, p)
        grads = fwd.vjp(dout).flat
        with monkeypatch.context() as patch:
            patch.setattr(network, "_temporal", temporal_oracle)
            want = network_pass(X, params, shape, p)
            assert fwd.out.tobytes() == want.out.tobytes()
            assert grads.tobytes() == want.vjp(dout).flat.tobytes()
        r, w = fwd.temporal[:2]
        selected = np.broadcast_to(w > 0.0, r.shape)
        best = np.where(selected, r, -np.inf).max(axis=-1)
        partial = ~selected.all(axis=-1)
        seen.add(("maximum outside a window", bool(((best < 0.0) & partial & (r.max(axis=-1) > 0.0)).any())))
        seen.add(("zero top", bool((best == 0.0).any())))
        seen.add(("top below eps", bool(((np.abs(best) < p.eps) & (best != 0.0)).any())))
        seen.add(("ends at the last step", bool((params.t2 == X.shape[1] - 1.0).all())))
        seen.add(("h != 1", p.h != 1.0))
        seen.add(("slope > 1", p.slope > 1.0))
    assert {case for case, hit in seen if hit} == {
        "maximum outside a window", "zero top", "top below eps", "ends at the last step", "h != 1", "slope > 1",
    }


@pytest.mark.parametrize("n", [1, 2, 8, 9, 61])
def test_sums_of_negative_zeros_are_positive_zero(n):
    # the skip's bits rest on this: a closed lane's -0.0 term leaves every
    # sum the head takes as it is
    terms = np.full((3, 2, n), -0.0)
    for total in (np.add.reduce(terms[0, 0]), *np.add.reduce(terms, axis=-1).ravel()):
        assert total == 0.0 and not np.signbit(total)


def test_the_benchmark_fixture_leaves_a_slot_unread():
    # so that perfbench's score-naval runs the skip
    root = Path(__file__).resolve().parent.parent
    params, shape, _ = load_model(root / "perfbench" / "fixture" / "report.json")
    read = params.gates().any(axis=0)
    assert 0 < np.count_nonzero(read) < shape.k
