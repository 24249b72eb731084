"""Backward tests: the differentiation conventions of the network's
closed-form reverse pass in network.py and trainer.py.

Checked on the pieces the VJP is built from (the sparse softmax, the soft
time window, the straight-through gates and the loss): relu ramps pass
gradient only where their input is > 0, the |max| normalizer routes its
gradient to the first maximal entry times the sign of the max, binary
gates pass their gradient on unchanged, unused slots get zero gradient,
and values agree with central differences at smooth points.  Failure
modes name the non-finite quantity.
"""

import numpy as np
import pytest

from stlinfer.network import (
    ActivationParams,
    ModelParams,
    NetworkShape,
    NonFiniteError,
    _softmax_rows,
    _softmax_vjp,
    _window_vjp,
    network_outputs,
    network_pass,
    time_indicator_values,
)
from stlinfer.trainer import _batch_gradients

P = ActivationParams()  # beta 25, h 1


def softmax_grads(r, w, p=P):
    """Sparse softmax of r over weights w, with its gradients wrt r and w."""
    value, saved = _softmax_rows(np.asarray(r, dtype=np.float64), np.asarray(w, dtype=np.float64), p)
    g_r, g_w = _softmax_vjp(np.array(1.0), saved, p)
    return float(value), g_r, g_w


def window_grads(t1, t2, slope, weights):
    """Gradients of weights @ window(t1, t2) wrt t1 and t2."""
    g_t1, g_t2 = _window_vjp(np.asarray(weights, dtype=np.float64)[None], np.array([t1]), np.array([t2]), slope)
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
    gates = np.ones((2, 4))
    fwd = network_pass(X[batch], params, shape, P, gates)
    assert np.abs(fwd.out).max() == 0.0
    grads, mean, _ = _batch_gradients(X, y, batch, params, shape, P, gates)
    assert mean == 1.0
    want = fwd.vjp(0.25 * -y[batch].astype(np.float64))
    for group in ("b", "t1", "t2", "M"):
        assert grads[group].tobytes() == want[group].tobytes()


# ---------------------------------------------------------------------------
# the |max| normalizer of the sparse softmax


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


# ---------------------------------------------------------------------------
# straight-through gates


def test_ste_thresholds_at_half():
    X, params, shape = one_slot_gates_case(np.random.default_rng(31))
    below = np.nextafter(0.5, 0.0)
    params.M = np.array([[0.5, below, 0.9, 0.2], [below, below, 0.1, 0.3]])
    fwd = network_pass(X, params, shape, P)
    assert fwd.live.tolist() == [0]
    binary = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    assert fwd.out.tobytes() == network_pass(X, params, shape, P, binary).out.tobytes()


def test_ste_backward_is_identity():
    # the output does not move with M between thresholds, yet M gets the
    # gradient of the binary gates it thresholds to
    p = ActivationParams(beta=1.0)  # soft, so open gates move the output
    X, params, shape = one_slot_gates_case(np.random.default_rng(32))
    gates = (params.M >= 0.5).astype(np.float64)
    dout = np.random.default_rng(33).normal(size=len(X))
    g_M = network_pass(X, params, shape, p).vjp(dout)["M"]
    nudged = params.copy()
    nudged.M[0, 0] -= 0.1
    assert network_pass(X, nudged, shape, p).out.tobytes() == network_pass(X, params, shape, p).out.tobytes()

    def f(g):
        return dout @ network_pass(X, params, shape, p, g.reshape(gates.shape)).out

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
    for group in ("b", "t1", "t2", "M"):
        assert g1[group].tobytes() == g2[group].tobytes()


def test_unused_leaf_gets_zero_gradient():
    # slots 2 and 3 feed no live row: their offsets and windows get zero
    X, params, shape = one_slot_gates_case(np.random.default_rng(35))
    gates = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    grads = network_pass(X, params, shape, P, gates).vjp(np.ones(len(X)))
    for group in ("b", "t1", "t2"):
        assert grads[group][2:].tolist() == [0.0, 0.0]
    assert np.abs(grads["b"][:2]).min() > 0.0


def test_non_finite_forward_names_the_node():
    X, params, shape = one_slot_gates_case(np.random.default_rng(36))
    y = np.array([1, -1, 1, 1, -1])
    gates = (params.M >= 0.5).astype(np.float64)
    X[2] = -1000.0  # label +1: exp(-out) overflows
    with pytest.raises(NonFiniteError, match=r"^non-finite loss of sample 2$"):
        _batch_gradients(X, y, np.array([3, 2, 0, 1, 4]), params, shape, P, gates)
    params.t1[2] = np.nan
    with pytest.raises(NonFiniteError, match=r"^non-finite parameter t1\[2\]$"):
        _batch_gradients(X, y, np.arange(5), params, shape, P, gates)


def test_non_finite_array_detected():
    X, params, shape = one_slot_gates_case(np.random.default_rng(37))
    X[1] = 1e308  # a window's weighted sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="non-finite network output"):
            network_outputs(X, params, shape, P)
