"""Network layer tests.

The sparse softmax is checked three ways: frozen degenerate examples,
equality with the naive oracle transcription from util.py, and the sign
and bounds properties the extraction step relies on.  Layer tests
compare against exact robustness from the stl module.  The batched
value path is compared bit for bit against the tape it mirrors.
"""

import math

import numpy as np
import pytest

from stlinfer.autodiff import NonFiniteError, Tape
from stlinfer.network import (
    ActivationParams,
    EmptyFormulaError,
    EmptySelectionError,
    ModelParams,
    NetworkShape,
    ParamVars,
    SlotSpec,
    binarize_gates,
    conjunction_layer,
    disjunction_layer,
    forward,
    lift_params,
    network_output,
    network_outputs,
    predicate_layer,
    slot_windows,
    soundness_bound_check,
    soundness_bound_text,
    sparse_softmax,
    sparse_softmax_value,
    sparse_softmin,
    sparse_softmin_value,
    temporal_layer,
    time_indicator,
    time_indicator_values,
)
from stlinfer.stl import CHUNK, Predicate, Signal, TemporalAtom, TemporalOp, robustness
from util import selected_softmax_oracle, selected_softmin_oracle

P = ActivationParams()  # beta 25, h 1


# ---------------------------------------------------------------------------
# sparse softmax / softmin values


def test_single_selected_element_is_exact():
    assert sparse_softmax_value(np.array([5.0]), np.array([1.0]), P) == 5.0
    assert sparse_softmin_value(np.array([5.0]), np.array([1.0]), P) == 5.0


def test_equal_selected_elements_are_exact():
    for c in (-2.5, 0.0, 7.0):
        r = np.full(3, c)
        w = np.ones(3)
        assert sparse_softmax_value(r, w, P) == c
        assert sparse_softmin_value(r, w, P) == c


def test_matches_naive_oracle_on_worked_example():
    r = np.array([1.0, -2.0, 3.0])
    w = np.array([1.0, 1.0, 0.0])
    p = ActivationParams(beta=5.0, h=1.0)
    v = sparse_softmax_value(r, w, p)
    assert 0.0 < v <= 1.0  # selected max is 1; the unselected 3 is invisible
    oracle = selected_softmax_oracle(r, w, beta=5.0, h=1.0)
    assert math.isclose(v, oracle, rel_tol=1e-12)


def test_matches_naive_oracle_on_random_inputs():
    rng = np.random.default_rng(0)
    compared = 0
    for _ in range(500):
        l = int(rng.integers(1, 30))
        r = rng.uniform(-10, 10, l)
        w = (rng.random(l) < 0.6).astype(np.float64)
        if not w.any():
            w[int(rng.integers(l))] = 1.0
        beta = float(rng.uniform(1, 25))
        p = ActivationParams(beta=beta, h=1.0)
        mx = selected_softmax_oracle(r, w, beta, 1.0)
        mn = selected_softmin_oracle(r, w, beta, 1.0)
        if not (math.isfinite(mx) and math.isfinite(mn)):
            continue  # naive transcription underflowed; not a valid reference
        compared += 1
        assert math.isclose(sparse_softmax_value(r, w, p), mx, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(sparse_softmin_value(r, w, p), mn, rel_tol=1e-9, abs_tol=1e-12)
    assert compared > 400


def test_softmin_examples():
    p = P
    assert sparse_softmin_value(np.array([-1.0, -3.0]), np.ones(2), p) < 0.0
    v = sparse_softmin_value(np.array([2.0, 4.0]), np.ones(2), p)
    assert 1.9 < v <= 2.0 + 1e-9  # min-like: close to 2 from above


def test_output_bounded_by_selected_range():
    rng = np.random.default_rng(1)
    for _ in range(300):
        l = int(rng.integers(1, 40))
        r = rng.uniform(-10, 10, l)
        w = (rng.random(l) < 0.5).astype(np.float64)
        if not w.any():
            w[int(rng.integers(l))] = 1.0
        sel = r[w > 0]
        v = sparse_softmax_value(r, w, P)
        assert sel.min() - 1e-9 <= v <= sel.max() + 1e-9


def test_zero_weight_entries_cannot_affect_the_output():
    rng = np.random.default_rng(2)
    for _ in range(200):
        r = rng.uniform(-10, 10, 12)
        w = np.zeros(12)
        w[rng.choice(12, size=4, replace=False)] = 1.0
        r2 = r.copy()
        r2[w == 0] = rng.uniform(-1e6, 1e6, int((w == 0).sum()))
        assert sparse_softmax_value(r, w, P) == sparse_softmax_value(r2, w, P)
        assert sparse_softmin_value(r, w, P) == sparse_softmin_value(r2, w, P)


def test_empty_selection_raises():
    with pytest.raises(EmptySelectionError, match="empty time window"):
        sparse_softmax_value(np.array([1.0, 2.0]), np.zeros(2), P)


def test_deeply_negative_selected_values_stay_finite():
    # naive exponentials would underflow to 0/0 here
    r = np.array([-500.0, -800.0, 3.0])
    w = np.array([1.0, 1.0, 0.0])
    v = sparse_softmax_value(r, w, P)
    assert -800.0 <= v <= -500.0 + 1e-9


def test_soft_fractional_weights_accepted():
    r = np.array([1.0, 2.0, 3.0])
    w = np.array([0.25, 1.0, 0.5])
    v = sparse_softmax_value(r, w, P)
    assert 1.0 <= v <= 3.0


# ---------------------------------------------------------------------------
# soundness bound


def test_soundness_bound_examples():
    assert soundness_bound_check(ActivationParams(beta=10.0, h=1.0), 40)
    assert not soundness_bound_check(ActivationParams(beta=0.001, h=1.0), 1000)
    # right-hand side vanishes at length 1
    assert soundness_bound_check(ActivationParams(beta=0.001, h=0.01), 1)
    with pytest.raises(ValueError, match="length"):
        soundness_bound_check(P, 0)


def test_soundness_bound_text_mentions_both_sides():
    text = soundness_bound_text(ActivationParams(beta=10.0, h=1.0), 40)
    assert "h*exp(beta*h)" in text and ">" in text and "l=40" in text
    text = soundness_bound_text(ActivationParams(beta=0.001, h=1.0), 1000)
    assert "<=" in text


def test_sign_agreement_on_random_binary_windows():
    rng = np.random.default_rng(3)
    p = ActivationParams(beta=25.0, h=1.0)
    for _ in range(2000):
        l = int(rng.integers(2, 60))
        assert soundness_bound_check(p, l)
        r = rng.uniform(-10, 10, l)
        w = (rng.random(l) < 0.5).astype(np.float64)
        if not w.any():
            w[int(rng.integers(l))] = 1.0
        sel = r[w > 0]
        assert (sparse_softmax_value(r, w, p) > 0) == (sel.max() > 0)
        assert (sparse_softmin_value(r, w, p) > 0) == (sel.min() > 0)


# ---------------------------------------------------------------------------
# time indicator


def test_indicator_exact_binary_window():
    got = time_indicator_values(4.0, 8.0, 1.0, 12)
    want = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0], dtype=np.float64)
    assert np.array_equal(got, want)


def test_indicator_full_window_is_all_ones():
    assert np.array_equal(time_indicator_values(0.0, 11.0, 1.0, 12), np.ones(12))


def test_indicator_integer_windows_exact_for_small_slopes():
    rng = np.random.default_rng(4)
    for _ in range(100):
        l = int(rng.integers(2, 30))
        t1 = int(rng.integers(0, l))
        t2 = int(rng.integers(t1, l))
        slope = float(rng.choice([0.25, 0.5, 1.0]))
        got = time_indicator_values(float(t1), float(t2), slope, l)
        want = ((np.arange(l) >= t1) & (np.arange(l) <= t2)).astype(np.float64)
        assert np.array_equal(got, want)


def test_indicator_fractional_shoulder():
    got = time_indicator_values(3.5, 8.0, 1.0, 12)
    assert got[2] == 0.0 and got[3] == 0.5 and got[4] == 1.0


def test_indicator_rejects_bad_slope():
    with pytest.raises(ValueError, match="slope"):
        time_indicator_values(0.0, 3.0, 0.0, 5)


# ---------------------------------------------------------------------------
# layers against exact robustness


def test_predicate_layer_rows():
    tape = Tape()
    values = np.full((6, 1), 3.0)
    shape = NetworkShape(
        (SlotSpec(0, 1, TemporalOp.ALWAYS), SlotSpec(0, -1, TemporalOp.ALWAYS)), m=1
    )
    b = [tape.leaf(1.0), tape.leaf(-1.0)]
    rows = predicate_layer(tape, values, shape, b)
    assert np.array_equal(rows[0].value, np.full(6, 2.0))
    assert np.array_equal(rows[1].value, np.full(6, -2.0))


def test_predicate_layer_matches_exact_robustness():
    rng = np.random.default_rng(5)
    values = rng.uniform(-5, 5, (10, 2))
    sig = Signal(values)
    shape = NetworkShape.cycled(2)
    tape = Tape()
    b = [tape.leaf(float(rng.uniform(-3, 3))) for _ in range(shape.k)]
    rows = predicate_layer(tape, values, shape, b)
    for j, slot in enumerate(shape.slots):
        pred = Predicate(slot.axis, slot.sign, b[j].value)
        want = [robustness(sig, pred, t) for t in range(10)]
        assert np.allclose(rows[j].value, want, rtol=0, atol=1e-15)


def _temporal_value(r_row, t1, t2, op, p):
    tape = Tape()
    shape = NetworkShape((SlotSpec(0, 1, op),), m=1)
    rows = [tape.const(np.asarray(r_row, dtype=np.float64))]
    windows = slot_windows(tape, [tape.const(float(t1))], [tape.const(float(t2))], p, len(r_row))
    return temporal_layer(rows, windows, shape, p)[0].value


def test_temporal_layer_eventually_full_window():
    v = _temporal_value([1.0, 5.0, 2.0], 0, 2, TemporalOp.EVENTUALLY, P)
    assert v > 4.9


def test_temporal_layer_point_window_is_exact():
    v = _temporal_value([1.0, 5.0, 2.0], 2, 2, TemporalOp.ALWAYS, P)
    assert v == 2.0


def test_temporal_layer_sign_matches_exact_semantics():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        l = int(rng.integers(2, 25))
        row = rng.uniform(-5, 5, l)
        t1 = int(rng.integers(0, l))
        t2 = int(rng.integers(t1, l))
        op = TemporalOp.ALWAYS if rng.random() < 0.5 else TemporalOp.EVENTUALLY
        sig = Signal(row.reshape(-1, 1))
        exact = robustness(sig, TemporalAtom(op, t1, t2, Predicate(0, 1, 0.0)))
        approx = _temporal_value(row, t1, t2, op, P)
        assert (approx > 0) == (exact > 0)


def test_conjunction_layer_single_gate_is_exact():
    tape = Tape()
    g = [tape.const(3.0), tape.const(-1.0)]
    gates = [tape.const(np.array([0.0, 1.0]))]
    hs, live = conjunction_layer(g, gates, P)
    assert live.tolist() == [True]
    assert hs[0].value == -1.0


def test_conjunction_layer_is_min_like():
    tape = Tape()
    g = [tape.const(3.0), tape.const(-1.0)]
    gates = [tape.const(np.array([1.0, 1.0]))]
    hs, _ = conjunction_layer(g, gates, P)
    assert hs[0].value < 0.0


def test_dead_rows_are_skipped():
    tape = Tape()
    g = [tape.const(3.0), tape.const(-1.0)]
    gates = [tape.const(np.zeros(2)), tape.const(np.array([1.0, 0.0]))]
    hs, live = conjunction_layer(g, gates, P)
    assert live.tolist() == [False, True]
    assert len(hs) == 1 and hs[0].value == 3.0


def test_disjunction_layer():
    tape = Tape()
    one = disjunction_layer([tape.const(-7.0)], P)
    assert one.value == -7.0
    two = disjunction_layer([tape.const(-1.0), tape.const(2.0)], P)
    assert two.value > 0.0
    with pytest.raises(EmptyFormulaError, match="gated off"):
        disjunction_layer([], P)


# ---------------------------------------------------------------------------
# shapes, parameters, forward


def test_cycled_shape_covers_all_slot_kinds():
    shape = NetworkShape.cycled(1)
    assert shape.k == 4 and shape.m == 2
    combos = {(s.axis, s.sign, s.op) for s in shape.slots}
    assert len(combos) == 4
    shape2 = NetworkShape.cycled(2)
    assert shape2.k == 8
    assert len({(s.axis, s.sign, s.op) for s in shape2.slots}) == 8


def test_cycled_shape_validation():
    with pytest.raises(ValueError, match="dimension"):
        NetworkShape.cycled(0)
    with pytest.raises(ValueError, match="multiple"):
        NetworkShape.cycled(2, k=6)
    with pytest.raises(ValueError, match="at least one temporal slot"):
        NetworkShape((), m=1)
    with pytest.raises(ValueError, match="conjunction row"):
        NetworkShape((SlotSpec(0, 1, TemporalOp.ALWAYS),), m=0)


def test_model_params_validation_and_snapping():
    with pytest.raises(ValueError, match="share shape"):
        ModelParams(np.zeros(3), np.zeros(2), np.zeros(3), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="gate matrix"):
        ModelParams(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((1, 2)))
    p = ModelParams(
        np.array([0.5, -0.5]),
        np.array([1.3, 0.0]),
        np.array([4.2, 2.0]),
        np.array([[0.49, 0.5]]),
    )
    s = p.snapped()
    assert s.t1.tolist() == [1.0, 0.0] and s.t2.tolist() == [5.0, 2.0]
    assert s.M.tolist() == [[0.0, 1.0]]


def test_activation_params_validation():
    with pytest.raises(ValueError, match="positive"):
        ActivationParams(beta=0.0)
    with pytest.raises(ValueError, match="positive"):
        ActivationParams(slope=-1.0)


def test_forward_invariant_to_slot_permutation():
    rng = np.random.default_rng(7)
    length, dim = 12, 2
    values = rng.uniform(-4, 4, (length, dim))
    shape = NetworkShape.cycled(dim, m=2)
    params = ModelParams(
        b=rng.uniform(-2, 2, shape.k),
        t1=np.array([float(rng.integers(0, 5)) for _ in range(shape.k)]),
        t2=np.array([float(rng.integers(6, length)) for _ in range(shape.k)]),
        M=rng.uniform(0.0, 1.0, (2, shape.k)),
    )
    base = network_output(values, params, shape, P)
    perm = rng.permutation(shape.k)
    shape_p = NetworkShape(tuple(shape.slots[j] for j in perm), m=2)
    params_p = ModelParams(params.b[perm], params.t1[perm], params.t2[perm], params.M[:, perm])
    assert abs(network_output(values, params_p, shape_p, P) - base) <= 1e-12


def test_forward_accepts_prebuilt_windows_and_gates():
    rng = np.random.default_rng(8)
    values = rng.uniform(-3, 3, (8, 1))
    shape = NetworkShape.cycled(1)
    params = ModelParams(
        b=rng.uniform(-1, 1, 4),
        t1=np.zeros(4),
        t2=np.full(4, 7.0),
        M=np.full((2, 4), 0.8),
    )
    tape = Tape()
    pv = lift_params(tape, params)
    windows = slot_windows(tape, pv.t1, pv.t2, P, 8)
    gates = binarize_gates(pv.m_rows)
    prebuilt = forward(tape, values, pv, shape, P, windows=windows, gates=gates).value
    assert prebuilt == network_output(values, params, shape, P)


# ---------------------------------------------------------------------------
# batched value path against the tape, bit for bit


def _tape_outputs(X, params, shape, p):
    out = []
    for values in X:
        tape = Tape()
        out.append(forward(tape, values, lift_params(tape, params), shape, p).value)
    return np.array(out)


# thresholding happens at exactly 0.5, so probe both of its neighbours
GATE_LEVELS = [0.1, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 0.9]


def _random_case(rng, n):
    dim = int(rng.integers(1, 3))
    length = int(rng.integers(2, 71))
    shape = NetworkShape.cycled(dim, m=int(rng.integers(1, 4)))
    t1 = rng.uniform(0.0, length - 1, shape.k)
    t2 = np.array([rng.uniform(a, length - 1) for a in t1])
    if rng.random() < 0.5:
        t1, t2 = np.floor(t1), np.ceil(t2)
    M = rng.choice(GATE_LEVELS, size=(shape.m, shape.k))
    M[0, int(rng.integers(shape.k))] = 0.5
    params = ModelParams(rng.uniform(-3.0, 3.0, shape.k), t1, t2, M)
    p = ActivationParams(
        beta=float(rng.uniform(1.0, 40.0)),
        h=float(rng.uniform(0.5, 2.0)),
        slope=float(rng.choice([0.5, 1.0, 1.7, 3.0])),
    )
    return rng.uniform(-4.0, 4.0, (n, length, dim)), params, shape, p


def test_batched_forward_equals_tape_bitwise():
    rng = np.random.default_rng(21)
    for _ in range(80):
        X, params, shape, p = _random_case(rng, int(rng.integers(1, 6)))
        got = network_outputs(X, params, shape, p)
        assert got.tobytes() == _tape_outputs(X, params, shape, p).tobytes()


@pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1])
def test_batched_forward_chunk_edges(n):
    X, params, shape, p = _random_case(np.random.default_rng(22 + n), n)
    got = network_outputs(X, params, shape, p)
    assert got.shape == (n,)
    assert got.tobytes() == _tape_outputs(X, params, shape, p).tobytes()
    assert network_output(X[-1], params, shape, p) == got[-1]


def test_batched_forward_raises_the_tapes_errors():
    shape = NetworkShape.cycled(1, m=2)
    X = np.zeros((3, 6, 1))
    good = dict(b=np.zeros(4), t1=np.zeros(4), t2=np.full(4, 5.0), M=np.full((2, 4), 0.9))
    cases = [
        # slot 2's window lies past the end of the signal
        (dict(t1=np.array([0.0, 0.0, 7.5, 0.0]), t2=np.array([5.0, 5.0, 9.0, 5.0])), EmptySelectionError),
        (dict(M=np.full((2, 4), np.nextafter(0.5, 0.0))), EmptyFormulaError),
        (dict(b=np.array([0.0, np.nan, 0.0, 0.0])), NonFiniteError),
    ]
    for change, error in cases:
        params = ModelParams(**{**good, **change})
        with pytest.raises(error) as from_tape:
            _tape_outputs(X, params, shape, P)
        with pytest.raises(error) as batched:
            network_outputs(X, params, shape, P)
        if error is not NonFiniteError:  # the tape names its node instead
            assert str(batched.value) == str(from_tape.value)


def test_value_helpers_equal_the_tape_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(300):
        l = int(rng.integers(1, 40))
        r = rng.uniform(-5.0, 5.0, l)
        w = np.where(rng.random(l) < 0.5, 0.0, rng.choice([1.0, 0.3], l))
        w[int(rng.integers(l))] = 1.0
        p = ActivationParams(beta=float(rng.uniform(1.0, 40.0)), h=float(rng.uniform(0.5, 2.0)))
        tape = Tape()
        assert sparse_softmax_value(r, w, p) == sparse_softmax(tape.const(r), tape.const(w), p).value
        assert sparse_softmin_value(r, w, p) == sparse_softmin(tape.const(r), tape.const(w), p).value
        t1 = float(rng.uniform(0.0, l))
        t2 = float(rng.uniform(t1, l))
        slope = float(rng.choice([0.5, 1.0, 2.5]))
        want = time_indicator(tape, tape.const(t1), tape.const(t2), slope, l).value
        assert time_indicator_values(t1, t2, slope, l).tobytes() == want.tobytes()
