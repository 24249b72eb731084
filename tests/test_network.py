"""Network tests.

The sparse softmax is checked three ways: frozen degenerate examples,
equality with the naive oracle transcription from util.py, and the sign
and bounds properties the extraction step relies on.  Layer behaviour is
checked through the batched forward against exact robustness from the
stl module, and the forward as a whole against a naive per-signal
network built from the oracles.  The closed-form backward is checked
against central differences.  The guarantee itself is a hypothesis
property over whole snapped models with data at their thresholds.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from stlinfer.datasets import LabeledDataset
from stlinfer.evaluate import sign_agreement
from stlinfer.network import (
    CHUNK,
    ActivationParams,
    EmptyFormulaError,
    EmptySelectionError,
    ModelParams,
    NetworkShape,
    NonFiniteError,
    SlotSpec,
    guarantee_failure,
    network_outputs,
    network_pass,
    soundness_bound_check,
    soundness_bound_text,
)
from stlinfer.stl import Predicate, Signal, TemporalAtom, TemporalOp, robustness
from stlinfer.trainer import formula_from_gates
from util import (
    GatedParams,
    naive_network_output,
    selected_softmax_oracle,
    selected_softmin_oracle,
    sparse_softmax_value,
    sparse_softmin_value,
    time_indicator_values,
    trapezoid_window,
)

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
    # the temporal layer refuses a window that selects no step, here one
    # past the end of a two-step signal
    with pytest.raises(EmptySelectionError, match="empty time window"):
        _temporal_value([1.0, 2.0], 3, 3, TemporalOp.EVENTUALLY, P)


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


@pytest.mark.parametrize(
    "delta",
    [
        1e-8,
        pytest.param(
            1e-10,
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 1: a top far below eps leaves the softmax near uniform",
            ),
        ),
    ],
)
def test_sign_agreement_holds_near_a_threshold(delta):
    # the snapped one-slot model G[0,39](x0 > 2) on a signal at 2 + delta
    # with one step at 2 - delta: the formula is false, and at delta 1e-10
    # the network outputs about +9.2e-11, the mean of the row more than
    # its minimum.  Item 1's mend turns this into a plain pass
    shape = NetworkShape((SlotSpec(0, 1, TemporalOp.ALWAYS),), 1)
    params = ModelParams([2.0], [0.0], [39.0], [[1.0]])
    atom = TemporalAtom(TemporalOp.ALWAYS, 0, 39, Predicate(0, 1, 2.0))
    X = np.full((1, 40, 1), 2.0 + delta)
    X[0, 20, 0] = 2.0 - delta
    assert robustness(Signal(X[0]), atom) < 0.0
    assert network_outputs(X, params, shape, P)[0] < 0.0


# ---------------------------------------------------------------------------
# the guarantee as a property of whole snapped models


@st.composite
def snapped_model_and_data(draw, offsets, min_beta_h=0.0):
    """A snapped model of `NetworkShape.cycled(dim, m)` (dims 1-3, m 1-3)
    on signals of length 1-61, an activation that passes the soundness
    bound at h 0.5, 1 or 2, and 1-30 signals whose every value lies at
    the threshold of a slot reading its axis, moved by -offset, 0 (an
    exact tie, signed zeros kept) or +offset, each offset drawn from
    `offsets`.  Windows are drawn fractional and snapped, and the binary
    gates have one gate forced open."""
    dim, length, m = draw(st.integers(1, 3)), draw(st.integers(1, 61)), draw(st.integers(1, 3))
    shape = NetworkShape.cycled(dim, m=m)
    k = shape.k
    p = ActivationParams(
        beta=draw(st.sampled_from([5.0, 12.5, 25.0, 50.0])),
        h=draw(st.sampled_from([0.5, 1.0, 2.0])),
        slope=draw(st.sampled_from([0.5, 1.0])),
    )
    assume(guarantee_failure(p, shape, length) is None and p.beta * p.h >= min_beta_h)
    levels = st.sampled_from([-2.0, -1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    b = np.array(draw(st.lists(levels, min_size=k, max_size=k)))
    ends = st.floats(0.0, length - 1.0)
    t1, t2 = np.sort(np.array([[draw(ends), draw(ends)] for _ in range(k)]), axis=1).T
    gates = np.array(draw(st.lists(st.booleans(), min_size=m * k, max_size=m * k))).reshape(m, k)
    gates[draw(st.integers(0, m - 1)), draw(st.integers(0, k - 1))] = True
    params = ModelParams(b, t1, t2, gates).snapped()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 30))
    # a slot crosses its threshold where sign * x = b, at x = sign * b
    axes, crossing = shape.constants[0], b * [slot.sign for slot in shape.slots]
    X = np.empty((n, length, dim))
    for axis in range(dim):
        at = rng.choice(crossing[axes == axis], (n, length))
        moved = at + rng.choice([-1.0, 1.0], (n, length)) * rng.choice(offsets, (n, length))
        X[:, :, axis] = np.where(rng.random((n, length)) < 0.3, at, moved)
    return params, shape, p, LabeledDataset(X, np.ones(n, dtype=np.int64))


def snapped_property(offsets, min_beta_h=0.0, phases=tuple(Phase)):
    """The guarantee as a derandomized hypothesis test over
    `snapped_model_and_data(offsets, min_beta_h)`, run in hypothesis's
    `phases`: when `guarantee_failure` is None, `sign_agreement` of the
    network with the formula its gates select is 1.0.  Plain tests call
    it: a failing @given test makes hypothesis's pytest plugin import
    libcst, whose DeprecationWarning the `error` warning filter turns
    into an INTERNALERROR that would hide the strict xfail below."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None, phases=phases)
    @given(case=snapped_model_and_data(offsets, min_beta_h))
    def agrees(case):
        params, shape, p, data = case
        formula = formula_from_gates(params, shape, params.gates())
        assert sign_agreement(params, shape, p, formula, data) == 1.0

    return agrees


def test_snapped_networks_classify_as_their_formulas():
    """The guarantee over whole snapped models through the public path,
    with values at the thresholds and at offsets of 1e-6 to 1e3 from
    them, at beta * h >= 10.  That is where it holds today.  The strict
    xfail below holds the rest, both ROADMAP item 1: offsets of 1e-9 and
    1e-12, below eps, and 1e-6 at a smaller beta * h, where a row that
    holds a tie at 0 keeps a 1e-6 lane at exp(-beta * h * 1e-6 / eps),
    above exp's underflow, and pools to a tiny nonzero value where the
    formula reads the tie as false."""
    snapped_property([1e-6, 1e-3, 1.0, 1e3], min_beta_h=10.0)()


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: a value far below eps/(beta*h) leaves the softmax near uniform",
)
def test_snapped_networks_classify_as_their_formulas_near_eps():
    """The property of the test above where it fails today (ROADMAP item
    1), at every bound-passing activation: offsets of 1e-9 and 1e-12 from
    the thresholds, below eps = 1e-8, where a row whose largest selected
    value lies far below eps pools to about its mean, and 1e-6, where a
    row that holds a tie at 0 pools to a tiny nonzero value when
    beta * h * 1e-6 / eps is small.  Item 1's mend merges the two tests
    into one plain test over every offset."""
    # the counterexample is known, so it is not shrunk
    snapped_property([1e-12, 1e-9, 1e-6], phases=[Phase.generate])()


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


def test_activation_params_refuse_zero_slope():
    # the window layer divides by the slope, which only ActivationParams checks
    with pytest.raises(ValueError, match="slope"):
        ActivationParams(slope=0.0)


# ---------------------------------------------------------------------------
# layers against exact robustness, through the batched forward


def _slot_network(values, slots, b, t1, t2, M, p=P):
    """Outputs of a network with the given slots on signals (n, length, dim)."""
    shape = NetworkShape(tuple(SlotSpec(*s) for s in slots), m=len(M))
    k = len(slots)
    params = ModelParams(
        np.asarray(b, dtype=np.float64),
        np.full(k, float(t1)) if np.ndim(t1) == 0 else np.asarray(t1, dtype=np.float64),
        np.full(k, float(t2)) if np.ndim(t2) == 0 else np.asarray(t2, dtype=np.float64),
        np.asarray(M, dtype=np.float64),
    )
    return network_outputs(np.asarray(values, dtype=np.float64), params, shape, p)


def _const_slots(*outputs, M):
    """A network whose slot j outputs exactly outputs[j]: one always-slot
    per axis of a one-step signal holding those values."""
    slots = [(j, 1, TemporalOp.ALWAYS) for j in range(len(outputs))]
    return float(_slot_network([[outputs]], slots, np.zeros(len(outputs)), 0, 0, M)[0])


def test_predicate_layer_rows():
    # a point window pools a single entry, so the output is the row value
    values = np.full((1, 6, 1), 3.0)
    always = TemporalOp.ALWAYS
    assert _slot_network(values, [(0, 1, always)], [1.0], 2, 2, [[1.0]])[0] == 2.0
    assert _slot_network(values, [(0, -1, always)], [-1.0], 2, 2, [[1.0]])[0] == -2.0


def test_predicate_layer_matches_exact_robustness():
    rng = np.random.default_rng(5)
    values = rng.uniform(-5, 5, (10, 2))
    sig = Signal(values)
    for slot in NetworkShape.cycled(2).slots:
        b = float(rng.uniform(-3, 3))
        pred = Predicate(slot.axis, slot.sign, b)
        for t in range(10):
            got = _slot_network(values[None], [(slot.axis, slot.sign, slot.op)], [b], t, t, [[1.0]])
            assert abs(got[0] - robustness(sig, pred, t)) <= 1e-15


def _temporal_value(r_row, t1, t2, op, p):
    values = np.asarray(r_row, dtype=np.float64).reshape(1, -1, 1)
    return _slot_network(values, [(0, 1, op)], [0.0], t1, t2, [[1.0]], p)[0]


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
    assert _const_slots(3.0, -1.0, M=[[0.0, 1.0]]) == -1.0


def test_conjunction_layer_is_min_like():
    assert _const_slots(3.0, -1.0, M=[[1.0, 1.0]]) < 0.0


def test_dead_rows_are_skipped():
    assert _const_slots(3.0, -1.0, M=[[0.0, 0.0], [1.0, 0.0]]) == 3.0
    shape = NetworkShape.cycled(1, m=2)
    params = ModelParams(np.zeros(4), np.zeros(4), np.full(4, 3.0), [[0.2, 0.1, 0.0, 0.4], [0.9, 0.0, 0.0, 0.0]])
    assert network_pass(np.zeros((1, 4, 1)), params, shape, P).model.live.tolist() == [1]


def test_disjunction_layer():
    assert _const_slots(-7.0, 0.0, M=[[1.0, 0.0]]) == -7.0
    assert _const_slots(-1.0, 2.0, M=[[1.0, 0.0], [0.0, 1.0]]) > 0.0
    with pytest.raises(EmptyFormulaError, match="gated off"):
        _const_slots(-1.0, 2.0, M=[[0.0, 0.0]])


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
    with pytest.raises(ValueError, match="slot sign must be"):
        SlotSpec(0, 0, TemporalOp.ALWAYS)
    with pytest.raises(ValueError, match="slot axis must be nonnegative"):
        SlotSpec(-1, 1, TemporalOp.ALWAYS)


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
    assert p.gates().tolist() == [[0.0, 1.0]]


GROUPS = ("b", "t1", "t2", "M")


def test_model_params_groups_are_views_of_flat():
    b, t1, t2, M = np.arange(3.0), np.arange(3.0, 6.0), np.arange(6.0, 9.0), np.arange(9.0, 15.0).reshape(2, 3)
    params = ModelParams(b, t1, t2, M)
    # b, t1, t2, then M row by row
    assert params.flat.tolist() == list(range(15))
    for name, given in zip(GROUPS, (b, t1, t2, M)):
        assert np.shares_memory(getattr(params, name), params.flat)
        assert not np.shares_memory(getattr(params, name), given)
    params.M[1, 0] = -1.0
    params.t1[2] = -2.0
    assert params.flat[12] == -1.0 and params.flat[5] == -2.0
    zeros = params.zeros()
    assert zeros.M.shape == (2, 3) and zeros.flat.tolist() == [0.0] * 15


@pytest.mark.parametrize("name", GROUPS + ("flat",))
def test_model_params_groups_cannot_be_rebound(name):
    params = ModelParams(np.zeros(2), np.zeros(2), np.ones(2), np.full((1, 2), 0.7))
    before = params.flat.copy()
    with pytest.raises(AttributeError):
        setattr(params, name, np.zeros_like(getattr(params, name)))
    assert params.flat.tobytes() == before.tobytes()


def _non_finite_by_group(params):
    """The first non-finite entry, found group by group with argwhere."""
    for name in GROUPS:
        finite = np.isfinite(getattr(params, name))
        if not finite.all():
            return f"{name}[{', '.join(str(i) for i in np.argwhere(~finite)[0])}]"
    return None


def test_non_finite_entry_names_the_first_bad_entry():
    rng = np.random.default_rng(9)
    params = ModelParams(rng.normal(size=4), np.zeros(4), np.full(4, 5.0), rng.uniform(size=(3, 4)))
    assert params.non_finite_entry() is None
    named = [("b", 2, "b[2]"), ("t1", 0, "t1[0]"), ("t2", 3, "t2[3]"), ("M", (1, 3), "M[1, 3]"), ("M", (0, 0), "M[0, 0]")]
    for name, index, want in named:
        for value in (math.nan, math.inf, -math.inf):
            bad = ModelParams(params.b, params.t1, params.t2, params.M)
            getattr(bad, name)[index] = value
            assert bad.non_finite_entry() == want == _non_finite_by_group(bad)
    # several bad entries: the first in b, t1, t2, M order wins
    for _ in range(200):
        bad = ModelParams(params.b, params.t1, params.t2, params.M)
        bad.flat[rng.choice(bad.flat.size, int(rng.integers(1, 4)), replace=False)] = math.nan
        assert bad.non_finite_entry() == _non_finite_by_group(bad)


def test_vjp_returns_gradients_in_the_parameter_layout():
    rng = np.random.default_rng(10)
    X, params, shape, p = _random_case(rng, 4)
    grads = network_pass(X, params, shape, p).vjp(rng.normal(size=len(X)))
    assert isinstance(grads, ModelParams)
    assert grads.flat.shape == params.flat.shape and grads.M.shape == params.M.shape
    by_group = np.concatenate([grads.b, grads.t1, grads.t2, grads.M.ravel()])
    assert grads.flat.tobytes() == by_group.tobytes()
    for name in GROUPS:
        assert np.shares_memory(getattr(grads, name), grads.flat)


def test_activation_params_validation():
    with pytest.raises(ValueError, match="positive"):
        ActivationParams(beta=0.0)
    with pytest.raises(ValueError, match="positive"):
        ActivationParams(slope=-1.0)


@pytest.mark.parametrize("field", ["beta", "h", "eps", "slope"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_activation_params_name_the_field_that_is_not_positive(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be positive, got {value!r}$"):
        ActivationParams(**{field: value})


@pytest.mark.parametrize("field", ["beta", "h", "eps", "slope"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_activation_params_refuse_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ActivationParams(**{field: value})


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
    base = network_outputs(values[None], params, shape, P)[0]
    perm = rng.permutation(shape.k)
    shape_p = NetworkShape(tuple(shape.slots[j] for j in perm), m=2)
    params_p = ModelParams(params.b[perm], params.t1[perm], params.t2[perm], params.M[:, perm])
    assert abs(network_outputs(values[None], params_p, shape_p, P)[0] - base) <= 1e-12


def test_wide_slope_breaks_sign_agreement():
    # the snapped network for F[4,8](x0 > 0): a shoulder wider than one
    # step gives weight to x[3], which the formula never reads
    shape = NetworkShape((SlotSpec(0, 1, TemporalOp.EVENTUALLY),), m=1)
    params = ModelParams([0.0], [4.0], [8.0], [[1.0]])
    x = np.full((12, 1), -1.0)
    x[3] = 5.0
    formula = TemporalAtom(TemporalOp.EVENTUALLY, 4, 8, Predicate(0, 1, 0.0))
    assert robustness(Signal(x), formula) == -1.0
    assert network_outputs(x[None], params, shape, ActivationParams(slope=1.0))[0] == -1.0
    assert network_outputs(x[None], params, shape, ActivationParams(slope=2.5))[0] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# batched forward against the naive per-signal network


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


def _compare_with_naive(X, params, shape, p, got) -> int:
    """Assert closeness on every signal the naive oracles can evaluate;
    returns how many that was."""
    compared = 0
    for values, v in zip(X, got):
        want = naive_network_output(values, params, shape, p)
        if not math.isfinite(want):
            continue  # naive transcription underflowed; not a valid reference
        assert math.isclose(v, want, rel_tol=1e-9, abs_tol=1e-12)
        compared += 1
    return compared


def test_batched_forward_matches_naive_forward():
    rng = np.random.default_rng(21)
    compared = total = 0
    for _ in range(80):
        X, params, shape, p = _random_case(rng, int(rng.integers(1, 6)))
        compared += _compare_with_naive(X, params, shape, p, network_outputs(X, params, shape, p))
        total += len(X)
    assert compared > total // 2


@pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1])
def test_batched_forward_chunk_edges(n):
    X, params, shape, p = _random_case(np.random.default_rng(22 + n), n)
    got = network_outputs(X, params, shape, p)
    assert got.shape == (n,)
    # a signal's output does not depend on the chunk it is evaluated in
    one_by_one = np.array([network_outputs(values[None], params, shape, p)[0] for values in X])
    assert got.tobytes() == one_by_one.tobytes()
    _compare_with_naive(X, params, shape, p, got)


def test_batched_forward_raises_named_errors():
    shape = NetworkShape.cycled(1, m=2)
    good = dict(b=np.zeros(4), t1=np.zeros(4), t2=np.full(4, 5.0), M=np.full((2, 4), 0.9))
    cases = [
        # slot 2's window lies past the end of the signal
        (dict(t1=np.array([0.0, 0.0, 7.5, 0.0]), t2=np.array([5.0, 5.0, 9.0, 5.0])),
         EmptySelectionError, "empty time window"),
        # also when no gate row opens slot 2: scoring checks every slot
        (dict(t1=np.array([0.0, 0.0, 7.5, 0.0]), t2=np.array([5.0, 5.0, 9.0, 5.0]),
              M=np.array([[0.9, 0.9, 0.1, 0.9]] * 2)),
         EmptySelectionError, "empty time window"),
        (dict(M=np.full((2, 4), np.nextafter(0.5, 0.0))), EmptyFormulaError, "gated off"),
        (dict(b=np.array([0.0, np.nan, 0.0, 0.0])), NonFiniteError, r"parameter b\[1\]$"),
        (dict(M=np.array([[0.9] * 4, [0.9, 0.9, np.inf, 0.9]])), NonFiniteError, r"parameter M\[1, 2\]$"),
    ]
    # one chunk or more: the model is checked before any chunk runs
    for X in (np.zeros((3, 6, 1)), np.zeros((CHUNK + 1, 6, 1))):
        for change, error, message in cases:
            params = ModelParams(**{**good, **change})
            with pytest.raises(error, match=message):
                network_outputs(X, params, shape, P)


def test_forward_names_a_slot_axis_beyond_the_data():
    shape = NetworkShape.cycled(2, m=1)
    # also when no gate opens a slot that reads axis 1 (slots 2, 3, 6, 7)
    for M in (np.ones((1, 8)), np.array([[1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0]])):
        params = ModelParams(np.zeros(8), np.zeros(8), np.full(8, 5.0), M)
        with pytest.raises(ValueError, match=r"^slot 2 reads axis 1, but the data has dim 1$"):
            network_outputs(np.zeros((3, 6, 1)), params, shape, P)


def test_forward_refuses_signals_that_are_not_3d():
    shape = NetworkShape.cycled(1, m=1)
    params = ModelParams(np.zeros(4), np.zeros(4), np.full(4, 2.0), np.ones((1, 4)))
    for bad in (np.zeros((3, 4)), np.zeros(4), np.zeros((2, 3, 4, 1))):
        message = rf"^signals must have shape \(n, length, dim\), got shape {re.escape(str(bad.shape))}$"
        with pytest.raises(ValueError, match=message):
            network_outputs(bad, params, shape, P)
        with pytest.raises(ValueError, match=message):
            network_pass(bad, params, shape, P)


def test_time_indicator_matches_explicit_trapezoid():
    rng = np.random.default_rng(23)
    for _ in range(300):
        l = int(rng.integers(1, 40))
        t1 = float(rng.uniform(0.0, l))
        t2 = float(rng.uniform(t1, l))
        slope = float(rng.choice([0.5, 1.0, 2.5]))
        want = trapezoid_window(t1, t2, slope, l)
        assert np.allclose(time_indicator_values(t1, t2, slope, l), want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form backward


def test_gate_gradient_matches_central_differences():
    # fed as continuous weights, open gates are smooth inputs of the network
    rng = np.random.default_rng(24)
    step = 1e-6
    worst = 0.0
    checked = 0
    for _ in range(30):
        X, params, shape, p = _random_case(rng, int(rng.integers(1, 5)))
        gates = np.where(rng.random(params.M.shape) < 0.6, rng.uniform(0.3, 1.0, params.M.shape), 0.0)
        gates[0, 0] = 0.7
        dout = rng.normal(size=len(X))
        grad = network_pass(X, GatedParams(params, gates), shape, p).vjp(dout).M
        for i, j in np.argwhere(gates > 0.0):
            hi, lo = gates.copy(), gates.copy()
            hi[i, j] += step
            lo[i, j] -= step
            up = dout @ network_pass(X, GatedParams(params, hi), shape, p).out
            down = dout @ network_pass(X, GatedParams(params, lo), shape, p).out
            fd = (up - down) / (2.0 * step)
            worst = max(worst, abs(fd - grad[i, j]) / max(1.0, abs(fd), abs(grad[i, j])))
            checked += 1
    assert checked > 100
    assert worst <= 1e-4


def test_gate_gradient_is_straight_through():
    rng = np.random.default_rng(25)
    X = rng.uniform(-3.0, 3.0, (6, 10, 1))
    shape = NetworkShape.cycled(1, m=3)
    gates = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
    b, t1, t2 = rng.uniform(-1.0, 1.0, 4), np.zeros(4), np.full(4, 9.0)
    dout = rng.normal(size=6)
    # M's values past the threshold do not matter, only the gates they give
    grads = [
        network_pass(X, ModelParams(b, t1, t2, np.where(gates > 0, level, 0.1)), shape, P).vjp(dout).M
        for level in (0.6, 0.95)
    ]
    assert grads[0].tobytes() == grads[1].tobytes()
    # a dead row takes no part in the output and gets no gradient
    assert grads[0][1].tolist() == [0.0] * 4
    assert np.abs(grads[0][0]).max() > 0.0 and np.abs(grads[0][2]).max() > 0.0
