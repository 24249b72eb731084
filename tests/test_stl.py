"""Exact-semantics tests: hand-derived robustness values, the strict
satisfaction rule, grammar round-trips, and the algebraic identities the
evaluator has to satisfy exactly (not approximately)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlinfer.stl import (
    And,
    IntervalError,
    Or,
    ParseError,
    Predicate,
    Signal,
    TemporalAtom,
    TemporalOp,
    dnf,
    dnf_clauses,
    format_formula,
    mcr,
    parse_formula,
    robustness,
    satisfied,
)
from util import count_atoms, dataset_from_samples, random_dnf, random_propositional, random_signal, random_tree

F, G = TemporalOp.EVENTUALLY, TemporalOp.ALWAYS


def const_signal(value: float, length: int = 40, dim: int = 1) -> Signal:
    return Signal(np.full((length, dim), float(value)))


# ---------------------------------------------------------------------------
# frozen robustness values


def test_always_on_constant_zero_signal():
    # min over the window of (0 - (-1.97)) = 1.97 at every step
    f = TemporalAtom(G, 0, 39, Predicate(0, 1, -1.97))
    assert robustness(const_signal(0.0), f) == 1.97


def test_eventually_picks_the_max():
    s = Signal(np.array([[3.0], [1.0], [2.0]]))
    f = TemporalAtom(F, 0, 2, Predicate(0, 1, 0.0))
    assert robustness(s, f) == 3.0


def test_conjunction_is_min_disjunction_is_max():
    s = Signal(np.array([[2.0, -1.0]]))
    a, b = Predicate(0, 1, 0.0), Predicate(1, 1, 0.0)
    assert robustness(s, And((a, b))) == -1.0
    assert robustness(s, Or((a, b))) == 2.0


def test_robustness_at_later_time():
    s = Signal(np.arange(10.0).reshape(-1, 1))
    f = TemporalAtom(G, 2, 4, Predicate(0, 1, 0.0))
    # window shifts with t: at t=3 it covers samples 5..7
    assert robustness(s, f, 3) == 5.0


def test_satisfaction_is_strict():
    X = np.stack([const_signal(v, 5).values for v in (0.5, -0.5, 0.0)])
    # r = 0 counts as violation
    assert satisfied(X, Predicate(0, 1, 0.0)).tolist() == [True, False, False]


def test_a_verdict_is_the_sign_of_the_difference_on_extreme_values():
    # satisfied compares x with the offset where robustness subtracts
    # them: both agree on zeros of either sign, subnormals, overflowing
    # differences, infinities and NaN, for either sign, under G and F
    grid = [0.0, -0.0, 5e-324, -5e-324, 1.8e308, -1.8e308, np.inf, -np.inf, np.nan, 1.0, -2.5, 0.1, 1e-300]
    offsets = [v for v in grid if np.isfinite(v)]
    # every pair of grid values as a two-step signal
    X = np.array([[a, b] for a in grid for b in grid])[:, :, None]
    for sign in (1, -1):
        for offset in offsets:
            with np.errstate(over="ignore", invalid="ignore"):
                holds = sign * X[:, :, 0] - offset > 0.0
            pred = Predicate(0, sign, offset)
            assert satisfied(X, pred).tolist() == holds[:, 0].tolist(), (sign, offset)
            for op, reduce in ((G, np.all), (F, np.any)):
                got = satisfied(X, TemporalAtom(op, 0, 1, pred))
                assert got.tolist() == reduce(holds, axis=1).tolist(), (sign, offset, op)


def test_mcr_all_correct_and_all_wrong():
    f = Predicate(0, 1, 0.0)
    pos, neg = const_signal(1.0, 3), const_signal(-1.0, 3)
    assert mcr(dataset_from_samples([(pos, 1), (neg, -1)]), f) == 0.0
    assert mcr(dataset_from_samples([(pos, -1), (neg, 1)]), f) == 1.0
    assert mcr(dataset_from_samples([(pos, 1), (neg, 1)]), f) == 0.5


def test_mcr_rejects_empty_and_bad_labels():
    with pytest.raises(ValueError, match="empty"):
        mcr(dataset_from_samples([]), Predicate(0, 1, 0.0))
    with pytest.raises(ValueError, match="label"):
        dataset_from_samples([(const_signal(1.0, 3), 0)])


# ---------------------------------------------------------------------------
# interval and input validation


def test_window_outside_signal_names_the_atom():
    f = TemporalAtom(G, 0, 39, Predicate(0, 1, 0.0))
    with pytest.raises(IntervalError, match=r"G\[0,39\]"):
        robustness(const_signal(0.0, 20), f)


def test_satisfied_names_an_axis_beyond_the_data():
    f = Or((TemporalAtom(G, 0, 3, Predicate(0, 1, 0.0)), TemporalAtom(G, 0, 3, Predicate(5, 1, 0.0))))
    with pytest.raises(IntervalError, match=r"^x5 > 0 reads axis 5, but the data has dim 2$"):
        satisfied(np.zeros((4, 6, 2)), f)


def test_robustness_names_an_axis_beyond_the_signal():
    signal = Signal(np.zeros((4, 2)))
    message = r"^x5 > 0 reads axis 5, but the data has dim 2$"
    for text in ("x5 > 0", "G[0,3](x5 > 0)", "G[0,3](x5 > 0 & x1 < 2)"):
        with pytest.raises(IntervalError, match=message):
            robustness(signal, parse_formula(text))
    with pytest.raises(IntervalError, match=message):
        satisfied(np.zeros((3, 4, 2)), parse_formula("F[0,3](x0 > 1 | x5 > 0)"))


def test_shifted_window_out_of_range():
    f = TemporalAtom(F, 3, 5, Predicate(0, 1, 0.0))
    robustness(const_signal(0.0, 10), f, 4)  # reaches index 9, still inside
    with pytest.raises(IntervalError):
        robustness(const_signal(0.0, 10), f, 5)


def test_predicate_time_out_of_range():
    with pytest.raises(IntervalError, match="length"):
        robustness(const_signal(0.0, 4), Predicate(0, 1, 0.0), 4)


def test_temporal_atoms_refuse_nesting_and_bad_windows():
    inner = TemporalAtom(G, 0, 1, Predicate(0, 1, 0.0))
    with pytest.raises(ValueError, match="nest"):
        TemporalAtom(F, 0, 2, inner)
    with pytest.raises(ValueError, match="nest"):
        TemporalAtom(F, 0, 2, And((Predicate(0, 1, 0.0), inner)))
    with pytest.raises(ValueError, match="t1 <= t2"):
        TemporalAtom(G, 3, 2, Predicate(0, 1, 0.0))
    with pytest.raises(ValueError, match="t1 <= t2"):
        TemporalAtom(G, -1, 2, Predicate(0, 1, 0.0))
    with pytest.raises(ValueError, match="integer"):
        TemporalAtom(G, 0.5, 2, Predicate(0, 1, 0.0))


def test_node_validation():
    with pytest.raises(ValueError, match="sign"):
        Predicate(0, 2, 0.0)
    with pytest.raises(ValueError, match="axis"):
        Predicate(-1, 1, 0.0)
    with pytest.raises(ValueError, match="two operands"):
        And((Predicate(0, 1, 0.0),))
    with pytest.raises(ValueError, match="two operands"):
        Or((Predicate(0, 1, 0.0),))


def test_signal_validation():
    with pytest.raises(ValueError, match="2-D"):
        Signal(np.zeros(5))
    with pytest.raises(ValueError, match="at least one"):
        Signal(np.zeros((0, 2)))
    with pytest.raises(ValueError, match="finite"):
        Signal(np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# printing and parsing


def test_format_single_atom():
    f = TemporalAtom(G, 9, 14, Predicate(1, 1, 23.37))
    assert format_formula(f) == "G[9,14](x1 > 23.37)"


def test_format_two_clause_dnf():
    f = dnf(
        [
            [
                TemporalAtom(G, 0, 5, Predicate(0, 1, 1.0)),
                TemporalAtom(F, 2, 4, Predicate(1, -1, 0.0)),
            ],
            [TemporalAtom(G, 1, 3, Predicate(0, -1, 1.0))],
        ]
    )
    assert format_formula(f) == "(G[0,5](x0 > 1) & F[2,4](x1 < 0)) | (G[1,3](x0 < -1))"


def test_parse_single_atom():
    f = parse_formula("G[9,14](x1 > 23.37)")
    assert f == TemporalAtom(G, 9, 14, Predicate(1, 1, 23.37))


def test_parse_less_than_flips_sign():
    assert parse_formula("x0 < 2.5") == Predicate(0, -1, -2.5)


def test_parse_is_whitespace_insensitive():
    a = parse_formula("G[0,5](x0>1)&F[2,4](x1<0)")
    b = parse_formula("  G[0,5] ( x0 > 1 )  &  F[2,4] ( x1 < 0 ) ")
    assert a == b


def test_parse_precedence_and_parens():
    f = parse_formula("x0 > 0 & x0 > 1 | x0 > 2")
    assert isinstance(f, Or) and isinstance(f.items[0], And)
    g = parse_formula("x0 > 0 & (x0 > 1 | x0 > 2)")
    assert isinstance(g, And) and isinstance(g.items[1], Or)


def test_parse_negation_folds_away():
    assert parse_formula("!(x0 > 1)") == Predicate(0, -1, -1.0)
    assert parse_formula("!G[0,3](x0 > 1)") == TemporalAtom(F, 0, 3, Predicate(0, -1, -1.0))
    f = parse_formula("!(x0 > 1 & x1 < 0)")
    assert isinstance(f, Or)


def test_parse_rejects_nested_temporal_with_position():
    with pytest.raises(ParseError, match="nested temporal") as err:
        parse_formula("G[0,5](F[1,2](x0 > 0))")
    assert err.value.position == 7


def test_parse_error_positions():
    for text, fragment in [
        ("", "expected a predicate"),
        ("x0 >", "expected a number"),
        ("x0 = 1", "expected '<' or '>'"),
        ("G[0,5](x0 > 1) extra", "trailing"),
        ("G[0,5](x0 > 1", "expected '\\)'"),
        ("G[5,2](x0 > 1)", "t1 <= t2"),
        ("y0 > 1", "expected a predicate"),
        # float() reads an overflowing constant as inf, which no offset may be
        ("G[0,99](x0 > 1e999)", "offset must be finite, got inf at position 13$"),
        ("!(x1 <  -1e999)", "offset must be finite, got inf at position 8$"),
    ]:
        with pytest.raises(ParseError, match=fragment):
            parse_formula(text)


def test_round_trip_random_formulas():
    rng = np.random.default_rng(7)
    for _ in range(200):
        f = random_dnf(rng, dim=int(rng.integers(1, 4)), length=12)
        assert parse_formula(format_formula(f)) == f


def test_round_trip_preserves_robustness():
    rng = np.random.default_rng(8)
    for _ in range(50):
        dim = int(rng.integers(1, 3))
        f = random_dnf(rng, dim, length=10)
        s = random_signal(rng, 10, dim)
        assert robustness(s, parse_formula(format_formula(f))) == robustness(s, f)


# ---------------------------------------------------------------------------
# DNF helpers


def test_dnf_builders_round_trip():
    a = TemporalAtom(G, 0, 2, Predicate(0, 1, 1.0))
    b = TemporalAtom(F, 1, 3, Predicate(0, -1, 0.5))
    c = TemporalAtom(F, 0, 0, Predicate(0, 1, -2.0))
    clauses = ((a, b), (c,))
    f = dnf(clauses)
    assert dnf_clauses(f) == clauses
    assert count_atoms(f) == 3
    # degenerate single-clause and single-atom forms collapse
    assert dnf([[a]]) == a
    assert dnf([[a, b]]) == And((a, b))


def test_dnf_rejects_empty():
    with pytest.raises(ValueError, match="clause"):
        dnf([[]])
    with pytest.raises(ValueError, match="no clauses"):
        dnf([])
    with pytest.raises(ValueError, match="conjunction of temporal atoms"):
        dnf_clauses(Predicate(0, 1, 0.0))


# ---------------------------------------------------------------------------
# algebraic identities (exact, not approximate)


def test_structural_negation_duality_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.integers(1, 3))
        f = random_dnf(rng, dim, length=8)
        s = random_signal(rng, 8, dim)
        negated = parse_formula(f"!({format_formula(f)})")
        assert robustness(s, negated) == -robustness(s, f)


def test_distributivity_of_temporal_over_boolean():
    rng = np.random.default_rng(12)
    for _ in range(300):
        dim = int(rng.integers(1, 3))
        length = int(rng.integers(2, 9))
        s = random_signal(rng, length, dim)
        t1 = int(rng.integers(0, length))
        t2 = int(rng.integers(t1, length))
        p1 = random_propositional(rng, dim, depth=1)
        p2 = random_propositional(rng, dim, depth=1)
        lhs_f = TemporalAtom(F, t1, t2, Or((p1, p2)))
        rhs_f = Or((TemporalAtom(F, t1, t2, p1), TemporalAtom(F, t1, t2, p2)))
        assert robustness(s, lhs_f) == robustness(s, rhs_f)
        lhs_g = TemporalAtom(G, t1, t2, And((p1, p2)))
        rhs_g = And((TemporalAtom(G, t1, t2, p1), TemporalAtom(G, t1, t2, p2)))
        assert robustness(s, lhs_g) == robustness(s, rhs_g)


@given(
    data=st.data(),
    length=st.integers(min_value=2, max_value=12),
)
@settings(max_examples=200, deadline=None)
def test_monotone_interval_growth(data, length):
    values = data.draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=length,
            max_size=length,
        )
    )
    s = Signal(np.array(values).reshape(-1, 1))
    t1 = data.draw(st.integers(0, length - 1))
    t2 = data.draw(st.integers(t1, length - 1))
    a1 = data.draw(st.integers(0, t1))
    b2 = data.draw(st.integers(t2, length - 1))
    p = Predicate(0, 1, data.draw(st.floats(min_value=-10, max_value=10, allow_nan=False)))
    # growing the window can only help eventually and only hurt always
    assert robustness(s, TemporalAtom(F, a1, b2, p)) >= robustness(s, TemporalAtom(F, t1, t2, p))
    assert robustness(s, TemporalAtom(G, a1, b2, p)) <= robustness(s, TemporalAtom(G, t1, t2, p))


@given(
    value=st.floats(min_value=-5, max_value=5, allow_nan=False),
    t=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_point_interval_equals_instant_robustness(value, t):
    rng = np.random.default_rng(int(abs(value) * 1000) + t)
    s = random_signal(rng, 8, 1)
    p = Predicate(0, 1, value)
    at_t = robustness(s, p, t)
    assert robustness(s, TemporalAtom(F, t, t, p)) == at_t
    assert robustness(s, TemporalAtom(G, t, t, p)) == at_t


# ---------------------------------------------------------------------------
# batched verdicts against the recursive oracle


def _coarse(f):
    """Offsets rounded to -1, -0, 0 or 1."""
    if isinstance(f, Predicate):
        return Predicate(f.axis, f.sign, float(np.round(f.offset / 5.0)))
    if isinstance(f, TemporalAtom):
        return TemporalAtom(f.op, f.t1, f.t2, _coarse(f.child))
    return type(f)(tuple(_coarse(i) for i in f.items))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    depth=st.sampled_from([0, 1, None]),
    coarse=st.booleans(),
    short=st.booleans(),
)
def test_satisfied_matches_per_signal_satisfies(seed, depth, coarse, short):
    # depth 0 builds DNFs of predicate atoms, as training extracts them,
    # depth 1 DNFs of atoms with mostly boolean children, and None any
    # tree of the grammar on integer-valued signals, some with an axis or
    # a window past the data.  Coarse draws round every value and offset
    # to -1, -0, 0 or 1, so robustness is often a zero of either sign,
    # which must count as a violation.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    length = int(rng.integers(1, 15))
    if depth is None:
        f = random_tree(rng, dim, length)
        X = rng.integers(-3, 4, (int(rng.integers(1, 6)), length, dim)).astype(np.float64)
    else:
        f = random_dnf(rng, dim, length, depth)
        X = rng.uniform(-3.0, 3.0, (int(rng.integers(1, 6)), length, dim))
    if coarse:
        f, X = _coarse(f), np.round(X / 3.0)
    if short:
        X = X[:, : int(rng.integers(1, length + 1))]
    try:
        want = np.array([robustness(Signal(x), f) > 0.0 for x in X])
    except IntervalError as e:
        with pytest.raises(IntervalError) as got:
            satisfied(X, f)
        assert str(got.value) == str(e)
        return
    got = satisfied(X, f)
    assert got.dtype == bool and np.array_equal(got, want)

