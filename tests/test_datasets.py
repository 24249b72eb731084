"""Generator tests pin the behavioral geometry each scenario promises:
which reference formulas separate which behaviors, where the stop line
sits, and that the CSV round trip is lossless, through the parse and
through the binary twin alike."""

import os
import re
from pathlib import Path

import numpy as np
import pytest

from stlinfer import datasets
from stlinfer.datasets import (
    DrivingBehavior,
    LabeledDataset,
    gen_driving,
    gen_driving_pair,
    gen_naval,
    load_csv,
    save_csv,
)
from stlinfer.stl import Signal, mcr, parse_formula, robustness
from util import (
    dataset_from_samples,
    gen_driving_oracle,
    gen_naval_oracle,
    save_csv_oracle,
    traced_peak,
)
import util

LANE_REF = parse_formula("G[0,39](x0 > -1.97)")


def test_go_forward_keeps_lane_overtake_leaves_it():
    gf = gen_driving(DrivingBehavior.GO_FORWARD, 200, 40, seed=5)
    ot = gen_driving(DrivingBehavior.OVERTAKE, 200, 40, seed=5)
    assert all(robustness(Signal(x), LANE_REF) > 0.0 for x in gf.X)
    assert not any(robustness(Signal(x), LANE_REF) > 0.0 for x in ot.X)


def test_go_forward_always_advances():
    gf = gen_driving(DrivingBehavior.GO_FORWARD, 100, 40, seed=5)
    assert np.all(np.diff(gf.X[:, :, 1], axis=1) > 0)
    assert np.all(np.abs(gf.X[:, :, 0]) < 2.0)


def test_stop_and_go_holds_exactly_at_the_line():
    stop_line = datasets._STOP_FRACTION * (datasets._Y0_MAX + datasets._V_MAX * 39)
    sg = gen_driving(DrivingBehavior.STOP_AND_GO, 100, 40, seed=5)
    for x in sg.X:
        hits = np.flatnonzero(x[:, 1] == stop_line)
        assert len(hits) == datasets._STOP_HOLD
        assert np.all(np.diff(hits) == 1)


def test_turns_leave_the_road_and_switch_settles_in_lane_two():
    for behavior in (DrivingBehavior.LEFT_TURN_LANE1, DrivingBehavior.LEFT_TURN_LANE2):
        turns = gen_driving(behavior, 100, 40, seed=5)
        assert np.all(turns.X[:, -1, 0] < -6.0)
    last = gen_driving(DrivingBehavior.SWITCH_LANE, 100, 40, seed=5).X[:, -1, 0]
    assert np.all((-6.0 < last) & (last < -2.0))


def test_overtake_returns_to_its_lane():
    ot = gen_driving(DrivingBehavior.OVERTAKE, 100, 40, seed=5)
    assert np.all(ot.X[:, :, 0].min(axis=1) < -2.0)
    assert np.all(ot.X[:, -1, 0] > -2.0)


def test_gen_driving_shapes_and_determinism():
    data = gen_driving(DrivingBehavior.GO_FORWARD, 2000, 40, seed=0)
    assert len(data) == 2000
    assert data.length == 40 and data.dim == 2
    again = gen_driving(DrivingBehavior.GO_FORWARD, 2000, 40, seed=0)
    assert np.array_equal(data.X, again.X) and np.array_equal(data.y, again.y)
    other = gen_driving(DrivingBehavior.GO_FORWARD, 1, 40, seed=1)
    assert not np.array_equal(other.X[0], data.X[0])


def test_gen_driving_pair_layout():
    data = gen_driving_pair(DrivingBehavior.GO_FORWARD, DrivingBehavior.OVERTAKE, 30, seed=2)
    labels = data.y
    assert labels[:30].tolist() == [1] * 30
    assert labels[30:].tolist() == [-1] * 30


def test_gen_driving_validations():
    with pytest.raises(ValueError, match="count"):
        gen_driving(DrivingBehavior.GO_FORWARD, 0)
    with pytest.raises(ValueError, match="length"):
        gen_driving(DrivingBehavior.GO_FORWARD, 1, length=1)


def test_behavior_from_name():
    assert DrivingBehavior.from_name("overtake") is DrivingBehavior.OVERTAKE
    assert DrivingBehavior.from_name("StopAndGo") is DrivingBehavior.STOP_AND_GO
    with pytest.raises(ValueError, match="unknown driving behavior 'Drift'"):
        DrivingBehavior.from_name("Drift")


NAVAL_REF = parse_formula("G[9,14](x1 > 23.37) & F[60,60](x0 < 27.96)")


def test_naval_reference_formula_separates():
    data = gen_naval(300, seed=1)
    assert mcr(data, NAVAL_REF) == 0.0


def test_naval_balance_and_both_anomaly_kinds():
    data = gen_naval(60, seed=0)
    labels = data.y
    assert (labels == 1).sum() == 30 and (labels == -1).sum() == 30
    assert data.length == 61 and data.dim == 2
    negatives = data.X[labels == -1]
    island = np.count_nonzero(negatives[:, 8:17, 1].min(axis=1) < 23.0)
    abort = np.count_nonzero(negatives[:, -1, 0] > 50.0)
    assert island + abort == len(negatives)
    assert island == 15 and abort == 15


def test_naval_determinism_and_validation():
    a = gen_naval(10, seed=4)
    b = gen_naval(10, seed=4)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    with pytest.raises(ValueError, match="even"):
        gen_naval(7)
    with pytest.raises(ValueError, match="even"):
        gen_naval(0)


# ---------------------------------------------------------------------------
# the generators against their one-sample-at-a-time oracles

ORACLE_SEEDS = (0, 1, 7, 101)
ORACLE_LENGTHS = (2, 3, 4, 5, 13, 40, 61)
ORACLE_COUNT = 12


def assert_equals_the_oracle(behavior, length, seed):
    want = gen_driving_oracle(behavior, ORACLE_COUNT, length, seed)
    for label in (1, -1):
        data = gen_driving(behavior, ORACLE_COUNT, length, seed, label=label)
        assert data.X.tobytes() == want.tobytes(), (behavior, length, seed)
        assert data.y.tolist() == [label] * ORACLE_COUNT


@pytest.mark.parametrize("behavior", list(DrivingBehavior), ids=lambda b: b.value)
def test_gen_driving_equals_the_per_sample_oracle(behavior):
    for length in ORACLE_LENGTHS:
        for seed in ORACLE_SEEDS:
            assert_equals_the_oracle(behavior, length, seed)


STOP_FRACTIONS = (1.0, 1.2)  # stop lines at or past the reachable range


def stop_and_go_arrivals(*fractions) -> set:
    """Arrival steps minus L over the oracle grid, 0 for no arrival."""
    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        for fraction in fractions:
            mp.setattr(datasets, "_STOP_FRACTION", fraction)
            for length in ORACLE_LENGTHS:
                for seed in ORACLE_SEEDS:
                    args = (DrivingBehavior.STOP_AND_GO, ORACLE_COUNT, length, seed)
                    seen.update((datasets._driving_draws(*args)[2] - length).tolist())
    return seen


def test_the_oracle_grid_reaches_the_edge_cases():
    """Lane changes past the last step and left turns that never turn
    happen at the shipped geometry; StopAndGo arrives at L - 3 and L - 2
    there, and at L - 1 and never once the stop line moves out."""
    seen = set()
    turn = DrivingBehavior.LEFT_TURN_LANE1
    for length in ORACLE_LENGTHS:
        for seed in ORACLE_SEEDS:
            draws = lambda b: datasets._driving_draws(b, ORACLE_COUNT, length, seed)
            if (draws(DrivingBehavior.SWITCH_LANE)[1][:, 0] >= length).any():
                seen.add("switch never")
            t_out, t_back = draws(DrivingBehavior.OVERTAKE)[1].T
            if (t_out >= length).any():
                seen.add("overtake never")
            if ((t_out < length) & (t_back >= length)).any():
                seen.add("overtake ends in lane 2")
            v = draws(turn)[0][:, 2:]
            y = gen_driving_oracle(turn, ORACLE_COUNT, length, seed)[:, :, 1]
            if not (y + v >= datasets._TURN_Y_LANE1).any(axis=1).all():
                seen.add("no left turn")
    assert seen == {"switch never", "overtake never", "overtake ends in lane 2", "no left turn"}
    assert stop_and_go_arrivals(datasets._STOP_FRACTION) >= {-3, -2}
    assert stop_and_go_arrivals(*STOP_FRACTIONS) >= {-1, 0}


@pytest.mark.parametrize("fraction", STOP_FRACTIONS)
def test_stop_and_go_equals_the_oracle_for_late_or_no_arrival(monkeypatch, fraction):
    monkeypatch.setattr(datasets, "_STOP_FRACTION", fraction)
    monkeypatch.setattr(util, "_STOP_FRACTION", fraction)
    for length in ORACLE_LENGTHS:
        for seed in ORACLE_SEEDS:
            assert_equals_the_oracle(DrivingBehavior.STOP_AND_GO, length, seed)


def test_gen_naval_equals_the_per_track_oracle():
    for seed in ORACLE_SEEDS:
        for count in (2, 4, 6, 30):
            data = gen_naval(count, seed)
            assert data.X.tobytes() == gen_naval_oracle(count, seed).tobytes(), (seed, count)


GO, OVERTAKE = DrivingBehavior.GO_FORWARD, DrivingBehavior.OVERTAKE


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: gen_driving(GO, v), "count"),
        (lambda v: gen_driving(GO, 3, length=v), "length"),
        (lambda v: gen_driving_pair(GO, OVERTAKE, v), "count_per_class"),
        (lambda v: gen_driving_pair(GO, OVERTAKE, 3, length=v), "length"),
        (lambda v: gen_naval(v), "count"),
        (lambda v: gen_driving(GO, 3, seed=v), "seed"),
        (lambda v: gen_driving_pair(GO, OVERTAKE, 3, seed=v), "seed"),
        (lambda v: gen_naval(4, seed=v), "seed"),
    ],
)
@pytest.mark.parametrize("value", [2.5, 4.0, True, "4", None])
def test_generators_refuse_a_count_or_length_that_is_not_an_int(call, name, value):
    with pytest.raises(TypeError, match=f"^{name} must be an int, got {value!r}$"):
        call(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda seed: gen_driving(GO, 3, seed=seed),
        lambda seed: gen_driving_pair(GO, OVERTAKE, 3, seed=seed),
        lambda seed: gen_naval(4, seed=seed),
    ],
)
@pytest.mark.parametrize("seed", [-1, np.int64(-7)])
def test_generators_refuse_a_negative_seed(call, seed):
    with pytest.raises(ValueError, match=f"^seed must be >= 0, got {seed}$"):
        call(seed)


@pytest.mark.parametrize("behavior", list(DrivingBehavior))
def test_gen_driving_pair_refuses_one_behavior_twice(behavior):
    # both classes draw from one seed: the two halves would be equal
    with pytest.raises(
        ValueError, match=f"^positive and negative behaviors must differ, got {behavior.value} twice$"
    ):
        gen_driving_pair(behavior, behavior, 3)


def test_generators_take_numpy_ints():
    four = np.int64(4)
    assert gen_driving(DrivingBehavior.GO_FORWARD, four, length=four).X.shape == (4, 4, 2)
    assert len(gen_naval(four)) == 4
    assert gen_naval(4, seed=four).X.tobytes() == gen_naval(4, seed=4).X.tobytes()
    assert gen_driving(GO, 3, seed=four).X.tobytes() == gen_driving(GO, 3, seed=4).X.tobytes()


# ---------------------------------------------------------------------------
# dataset container


def test_labeled_dataset_validation():
    sig = Signal(np.zeros((4, 1)))
    with pytest.raises(ValueError, match="label"):
        dataset_from_samples([(sig, 0)])
    with pytest.raises(ValueError, match="disagree on length"):
        dataset_from_samples([(sig, 1), (Signal(np.zeros((5, 1))), -1)])
    with pytest.raises(ValueError, match="disagree on dimension"):
        dataset_from_samples([(sig, 1), (Signal(np.zeros((4, 2))), -1)])


@pytest.mark.parametrize("shape", [(2, 0, 1), (2, 3, 0), (1, 0, 0)])
def test_labeled_dataset_refuses_signals_without_a_step_or_an_axis(shape):
    # mcr and train would read a step or an axis that is not there
    text = f"signals need length and dim of at least 1, got X of shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        LabeledDataset(np.zeros(shape), [1] * shape[0])


@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 5, 0), (0, 0, 2)])
def test_labeled_dataset_keeps_an_empty_set_of_any_shape(shape):
    data = LabeledDataset(np.zeros(shape), np.zeros(0, dtype=np.int64))
    assert len(data) == 0 and data.X.shape == shape


# ---------------------------------------------------------------------------
# CSV round trip


def twin_of(path) -> Path:
    return Path(f"{path}.npy")


def load_parsed(path) -> LabeledDataset:
    """load_csv through the parse: the twin save_csv wrote is deleted first."""
    twin_of(path).unlink()
    return load_csv(path)


def test_csv_round_trip_is_lossless(tmp_path, tiny_naval):
    path = tmp_path / "naval.csv"
    save_csv(tiny_naval, path)
    head = path.read_text(encoding="utf-8").split("\n", 1)[0]
    assert head == "label,2,61"
    back = load_parsed(path)
    assert back.y.tolist() == tiny_naval.y.tolist()
    assert np.array_equal(back.X, tiny_naval.X)


def test_csv_save_refuses_empty(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        save_csv(dataset_from_samples([]), tmp_path / "x.csv")


def test_csv_load_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(path)

    path.write_text("time,2,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: expected header"):
        load_csv(path)

    path.write_text("label,two,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: header dim and len"):
        load_csv(path)

    path.write_text("label,0,4\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":1: dim and len must be positive"):
        load_csv(path)

    path.write_text("label,1,2\n1,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: expected 3 fields, got 2"):
        load_csv(path)

    path.write_text("label,1,2\n1,1.0,2.0\n-1,1.0,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":3: "):
        load_csv(path)

    path.write_text("label,1,2\n3,1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: label must be \+1 or -1"):
        load_csv(path)

    path.write_text("label,1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_load_names_the_line_of_a_non_finite_value(tmp_path, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,1,2\n1,1.0,2.0\n-1,{bad},2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":3: signal values must be finite"):
        load_csv(path)


def test_csv_load_counts_blank_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,1,2\n1,0.5,0.5\n\n1,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":4: expected 3 fields, got 2"):
        load_csv(path)
    path.write_text("\nlabel,1,2\n\n\n-1,0.5,oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":5: could not convert string to float: 'oops'"):
        load_csv(path)


BOM = b"\xef\xbb\xbf"


def test_csv_load_skips_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    for text in ["label,1,2\n1,0.5,0.25\n-1,1,2\n", "\nlabel,2,1\r\n-1,-0.0,1e-310\r\n"]:
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(BOM + text.encode("utf-8"))
        a, b = load_csv(plain), load_csv(marked)
        assert a.X.tobytes() == b.X.tobytes() and a.y.tolist() == b.y.tolist()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", ": empty file"),
        ("time,2,4\n", ":1: expected header 'label,<dim>,<len>', got 'time,2,4'"),
        ("label,two,4\n", ":1: header dim and len must be integers, got 'label,two,4'"),
        ("\nlabel,0,4\n", ":2: dim and len must be positive"),
        ("label,1,2\n", ": no data rows"),
    ],
)
def test_csv_header_errors_read_the_same_after_a_byte_order_mark(tmp_path, text, message):
    for name, mark in (("plain.csv", b""), ("marked.csv", BOM)):
        path = tmp_path / name
        path.write_bytes(mark + text.encode("utf-8"))
        with pytest.raises(ValueError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}{message}"


def test_csv_load_names_the_first_line_that_is_not_utf8(tmp_path):
    # Latin-1 text: the decoder reads ahead in blocks, so the line is found
    # again; line 2002 lies past the first 8192 bytes
    path = tmp_path / "latin.csv"
    rows = "".join(f"1,{i},0.5\n" for i in range(2000)).encode("utf-8")
    for body, line in ((b"label,1,2 caf\xe9\n" + rows, 1), (b"label,1,2\n" + rows + b"-1,0,0.5\xe9\n", 2002)):
        for mark in (b"", BOM):
            path.write_bytes(mark + body)
            with pytest.raises(ValueError) as err:
                load_csv(path)
            assert str(err.value) == f"{path}:{line}: not UTF-8 text (byte 0xe9)"


# ---------------------------------------------------------------------------
# the one-call parse against the per-line parse


def per_line_parse(text: str):
    """Reference reader: Python int() and float() on every field."""
    rows = [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip()][1:]
    labels = [int(ln.split(",")[0]) for ln in rows]
    values = [[float(f) for f in ln.split(",")[1:]] for ln in rows]
    return np.array(values), np.array(labels)


def assert_loads_like_per_line(path, text: str, length: int, dim: int):
    data = load_csv(path)
    values, labels = per_line_parse(text)
    assert data.X.shape == (len(labels), length, dim)
    assert data.X.reshape(len(labels), -1).tobytes() == values.tobytes()
    assert data.y.tolist() == labels.tolist()


def bit_pattern_set() -> LabeledDataset:
    """40 samples of random float64 bit patterns, -0.0, subnormals and +-max."""
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=(40, 6, 2), dtype=np.uint64, endpoint=False)
    X = bits.view(np.float64).copy()
    X[~np.isfinite(X)] = 1.0
    fi = np.finfo(np.float64)
    special = [fi.max, -fi.max, fi.tiny, -fi.tiny, fi.smallest_subnormal, -fi.smallest_subnormal,
               2.5e-310, -0.0, 0.0, 1.0 / 3.0]
    X[0].flat[: len(special)] = special
    return LabeledDataset(X, np.where(rng.random(40) < 0.5, 1, -1))


def test_csv_bit_patterns_round_trip(tmp_path, monkeypatch):
    data = bit_pattern_set()
    monkeypatch.setattr(datasets, "_CSV_ROWS", 16)  # two full chunks and a partial one
    path = tmp_path / "bits.csv"
    save_csv(data, path)
    save_csv_oracle(data, tmp_path / "whole.csv")
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    monkeypatch.setattr(datasets, "_parse_rows", None)  # each chunk's one-call parse reads it
    back = load_parsed(path)
    assert back.X.tobytes() == data.X.tobytes()
    assert back.y.tolist() == data.y.tolist()
    assert_loads_like_per_line(path, path.read_text(encoding="utf-8"), 6, 2)


@pytest.mark.parametrize(
    "text",
    [
        "label,1,2\n 1 , 0.5 ,-2.25e-3\n-1,\t1e300, 7 \n",  # spaces around fields
        "label,1,2\n+1,0.5,0.25\n-1,1,2\n",  # a '+1' label
        "label,1,2\r\n1,0.5,0.25\r\n-1,1,2\r\n",  # CRLF line endings
        "label,2,1\n-1,0.5,0.25\n",  # a single data row
        "label,1,2\n1,0.5,0.25\n-1,1,2\n\n\n  \n",  # trailing blank lines
    ],
)
def test_csv_one_call_parse_reads_like_the_per_line_parse(tmp_path, monkeypatch, text):
    path = tmp_path / "x.csv"
    path.write_bytes(text.encode("utf-8"))
    dim, length = (int(v) for v in text.split("\n", 1)[0].strip().split(",")[1:])
    # these inputs must not need the per-line pass
    monkeypatch.setattr(datasets, "_parse_rows", None)
    assert_loads_like_per_line(path, text, length, dim)


def test_csv_per_line_pass_reads_what_float_reads(tmp_path):
    # float() accepts '1_0', np.loadtxt does not: the per-line pass reads it
    text = "label,1,2\n1,1_0,0.5\n-1,1,2\n"
    path = tmp_path / "x.csv"
    path.write_text(text, encoding="utf-8")
    assert_loads_like_per_line(path, text, 2, 1)
    assert load_csv(path).X[0, 0, 0] == 10.0


@pytest.mark.parametrize(
    "row, message",
    [
        ("1.0,0.5,0.5", ":3: invalid literal for int() with base 10: '1.0'"),
        ("-1,nan,0.5", ":3: signal values must be finite"),
        ("-1,0.5,-inf", ":3: signal values must be finite"),
        ("-1,0.5", ":3: expected 3 fields, got 2"),
        ("-1,0.5,0.5,", ":3: expected 3 fields, got 4"),
    ],
)
def test_csv_errors_keep_their_text(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,1,2\n1,0.5,0.5\n{row}\n1,0.5,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}{message}"


# ---------------------------------------------------------------------------
# chunked reading and writing

CSV_ROWS = datasets._CSV_ROWS


@pytest.mark.parametrize("n", [1, CSV_ROWS - 1, CSV_ROWS, CSV_ROWS + 1, 2 * CSV_ROWS + 3])
def test_chunked_save_writes_the_whole_text_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    data = LabeledDataset(rng.normal(size=(n, 7, 2)), np.where(rng.random(n) < 0.5, 1, -1))
    save_csv(data, tmp_path / "chunked.csv")
    save_csv_oracle(data, tmp_path / "whole.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    back = load_parsed(tmp_path / "chunked.csv")
    assert back.X.tobytes() == data.X.tobytes() and back.y.tolist() == data.y.tolist()


def csv_lines(path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


GOOD_ROW = "1,0.5,0.5"


@pytest.mark.parametrize(
    "row, message",
    [
        ("-1,0.5", "expected 3 fields, got 2"),
        ("-1,0.5,0.5,", "expected 3 fields, got 4"),
        ("3,0.5,0.5", "label must be +1 or -1, got 3"),
        ("1.0,0.5,0.5", "invalid literal for int() with base 10: '1.0'"),
        ("-1,nan,0.5", "signal values must be finite"),
        ("-1,0.5,oops", "could not convert string to float: 'oops'"),
    ],
)
@pytest.mark.parametrize("at", [0, 1, CSV_ROWS - 1])
def test_csv_errors_in_a_later_chunk_name_their_line(tmp_path, row, message, at):
    # `at` places the bad row in the second chunk: first, second or last
    lines = ["label,1,2"] + [GOOD_ROW] * (CSV_ROWS + at) + [row, GOOD_ROW, row]
    path = tmp_path / "bad.csv"
    csv_lines(path, lines)
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}:{lines.index(row) + 1}: {message}"


def test_csv_per_line_pass_of_a_later_chunk_reads_and_names_like_the_whole_file(tmp_path):
    lines = ["label,1,2"] + [GOOD_ROW] * (CSV_ROWS + 2) + ["-1,1_0,0.5", GOOD_ROW]
    path = tmp_path / "x.csv"
    csv_lines(path, lines)
    text = path.read_text(encoding="utf-8")
    assert_loads_like_per_line(path, text, 2, 1)
    assert load_csv(path).X[CSV_ROWS + 2, 0, 0] == 10.0
    # an error after the `1_0` row in its chunk still names its own line
    csv_lines(path, lines + [GOOD_ROW, "-1,0.5"])
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}:{len(lines) + 2}: expected 3 fields, got 2"


@pytest.mark.parametrize("blanks", [1, 3, CSV_ROWS + 1])
def test_csv_blank_lines_across_a_chunk_boundary_are_counted(tmp_path, blanks):
    # blank lines before and after the last row of the first chunk
    gap = [""] * blanks
    body = [GOOD_ROW] * (CSV_ROWS - 1) + gap + ["-1,0.25,0.75"] + gap + ["  "]
    lines = ["label,1,2"] + body + ["-1,0.5", GOOD_ROW]
    path = tmp_path / "bad.csv"
    csv_lines(path, lines)
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}:{len(lines) - 1}: expected 3 fields, got 2"
    csv_lines(path, lines[:-2] + [GOOD_ROW])
    data = load_csv(path)
    assert len(data) == CSV_ROWS + 1 and data.y[CSV_ROWS - 1] == -1
    assert data.X[CSV_ROWS - 1].ravel().tolist() == [0.25, 0.75]


@pytest.mark.parametrize("rows", [CSV_ROWS, 2 * CSV_ROWS])
def test_csv_last_chunk_of_only_blank_lines_loads(tmp_path, rows):
    # np.loadtxt warns on an empty input, and warnings are errors here
    path = tmp_path / "x.csv"
    csv_lines(path, ["label,1,2"] + [GOOD_ROW] * rows + [""] * (CSV_ROWS + 2))
    data = load_csv(path)
    assert data.X.shape == (rows, 2, 1)
    csv_lines(path, ["", "label,1,2"] + [" "] * (2 * CSV_ROWS))
    with pytest.raises(ValueError) as err:
        load_csv(path)
    assert str(err.value) == f"{path}: no data rows"


def test_csv_memory_does_not_grow_with_the_file_text(tmp_path):
    data = gen_naval(4800, seed=5)
    path = tmp_path / "big.csv"
    saved = traced_peak(lambda: save_csv(data, path))
    assert path.stat().st_size >= 10 * 2**20
    assert saved < 2**20, f"save_csv allocated {saved} bytes"
    # the twin holds X once; the parse allocates its chunks, then their concatenation
    back = []
    loaded = traced_peak(lambda: back.append(load_csv(path)))
    assert loaded < data.X.nbytes + 2**20, f"load_csv allocated {loaded} bytes from the twin"
    twin_of(path).unlink()
    loaded = traced_peak(lambda: back.append(load_csv(path)))
    assert loaded < 2 * data.X.nbytes + 2**20, f"load_csv allocated {loaded} bytes"
    assert back[0].X.tobytes() == back[1].X.tobytes() == data.X.tobytes()


# ---------------------------------------------------------------------------
# the binary twin save_csv writes beside the CSV


def count_parses(monkeypatch) -> list:
    """A list that grows by one per chunk load_csv parses from here on."""
    calls = []
    read_chunk = datasets._read_chunk

    def counted(*args):
        calls.append(1)
        return read_chunk(*args)

    monkeypatch.setattr(datasets, "_read_chunk", counted)
    return calls


def assert_same(a: LabeledDataset, b: LabeledDataset) -> None:
    assert a.X.dtype == b.X.dtype == np.float64 and a.y.dtype == b.y.dtype == np.int64
    assert a.X.shape == b.X.shape and a.X.tobytes() == b.X.tobytes()
    assert a.y.tolist() == b.y.tolist()


@pytest.mark.parametrize("kind", ["naval", "driving", "bits"])
def test_twin_and_parse_read_the_same_bits(tmp_path, monkeypatch, kind):
    data = {
        "naval": lambda: gen_naval(300, seed=4),
        "driving": lambda: gen_driving_pair(
            DrivingBehavior.SWITCH_LANE, DrivingBehavior.STOP_AND_GO, 150, seed=4
        ),
        "bits": bit_pattern_set,
    }[kind]()
    path = tmp_path / "x.csv"
    save_csv(data, path)
    parses = count_parses(monkeypatch)
    twin = load_csv(path)
    assert parses == []
    parsed = load_parsed(path)
    assert parses
    assert_same(twin, parsed)
    assert_same(twin, data)


def test_an_edited_csv_loads_its_edit(tmp_path, tiny_naval):
    path = tmp_path / "x.csv"
    save_csv(tiny_naval, path)
    lines = path.read_text(encoding="utf-8").split("\n")
    fields = lines[3].split(",")  # sample 2: its label, then its values
    fields[1 + 3] = "12.5"
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    back = load_csv(path)
    assert back.X[2].ravel()[3] == 12.5
    expected = tiny_naval.X.copy()
    expected[2].reshape(-1)[3] = 12.5
    assert back.X.tobytes() == expected.tobytes()


def failing_replace(src, dst):
    raise OSError(28, "No space left on device")


def test_a_csv_saved_over_loads_the_new_data(tmp_path, monkeypatch, tiny_naval):
    path = tmp_path / "x.csv"
    save_csv(tiny_naval, path)
    other = gen_naval(len(tiny_naval), seed=9)
    save_csv(other, path)
    assert_same(load_csv(path), other)
    # the stale twin left when a new twin cannot be written is not read
    save_csv(tiny_naval, path)
    monkeypatch.setattr(datasets.os, "replace", failing_replace)
    save_csv(other, path)
    parses = count_parses(monkeypatch)
    assert_same(load_csv(path), other)
    assert parses


@pytest.mark.parametrize("cut", [0, 40, 200, -8])
def test_a_truncated_twin_is_parsed(tmp_path, monkeypatch, tiny_naval, cut):
    # cut inside the digest's header, after the digest, inside X, inside y
    path = tmp_path / "x.csv"
    save_csv(tiny_naval, path)
    twin = twin_of(path)
    twin.write_bytes(twin.read_bytes()[:cut])
    parses = count_parses(monkeypatch)
    assert_same(load_csv(path), tiny_naval)
    assert parses


@pytest.mark.parametrize("garbage", ["random", "magic", "pickle", "labels"])
def test_a_garbage_twin_is_parsed(tmp_path, monkeypatch, tiny_naval, garbage):
    path = tmp_path / "x.csv"
    save_csv(tiny_naval, path)
    twin = twin_of(path)
    good = twin.read_bytes()
    rng = np.random.default_rng(3)
    if garbage == "random":
        twin.write_bytes(rng.bytes(len(good)))
    elif garbage == "magic":
        twin.write_bytes(good[:8] + rng.bytes(len(good) - 8))
    elif garbage == "pickle":
        with open(twin, "wb") as f:
            np.save(f, np.array([b"x"], dtype=object), allow_pickle=True)
    else:
        # the CSV's digest, then arrays LabeledDataset refuses
        with open(twin, "rb") as f:
            digest = np.load(f)
        with open(twin, "wb") as f:
            for array in (digest, tiny_naval.X, np.full(len(tiny_naval), 3)):
                np.save(f, array)
    parses = count_parses(monkeypatch)
    assert_same(load_csv(path), tiny_naval)
    assert parses


def test_a_directory_in_the_twins_place_leaves_the_csv_to_the_parse(tmp_path, monkeypatch, tiny_naval):
    path = tmp_path / "x.csv"
    twin_of(path).mkdir()
    save_csv(tiny_naval, path)
    assert sorted(os.listdir(tmp_path)) == ["x.csv", "x.csv.npy"]
    assert twin_of(path).is_dir()
    parses = count_parses(monkeypatch)
    assert_same(load_csv(path), tiny_naval)
    assert parses


def test_a_failed_twin_write_leaves_no_file(tmp_path, monkeypatch, tiny_naval):
    def failing_save(f, array, **kwargs):
        f.write(b"\x93NUMPY")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(datasets.np, "save", failing_save)
    path = tmp_path / "x.csv"
    save_csv(tiny_naval, path)
    assert os.listdir(tmp_path) == ["x.csv"]
    monkeypatch.undo()
    assert_same(load_csv(path), tiny_naval)


@pytest.mark.parametrize("twin", ["fresh", "stale", "none"])
def test_load_csv_writes_no_file(tmp_path, tiny_naval, twin):
    path = tmp_path / "x.csv"
    save_csv(tiny_naval, path)
    if twin == "stale":
        path.write_bytes(path.read_bytes() + b"\n")
    elif twin == "none":
        twin_of(path).unlink()
    listing = sorted((p.name, p.stat().st_mtime_ns) for p in tmp_path.iterdir())
    load_csv(path)
    assert sorted((p.name, p.stat().st_mtime_ns) for p in tmp_path.iterdir()) == listing


# ---------------------------------------------------------------------------
# dense layout


@pytest.mark.parametrize("scenario", ["naval", "driving"])
def test_csv_round_trip_keeps_the_dense_arrays(tmp_path, scenario):
    if scenario == "naval":
        data = gen_naval(40, seed=3)
    else:
        data = gen_driving_pair(DrivingBehavior.GO_FORWARD, DrivingBehavior.STOP_AND_GO, 20, seed=3)
    path = tmp_path / "x.csv"
    save_csv(data, path)
    for back in (load_csv(path), load_parsed(path)):
        assert back.X.dtype == np.float64 and back.X.shape == data.X.shape
        assert back.X.tobytes() == data.X.tobytes()
        assert back.y.dtype == np.int64 and back.y.tolist() == data.y.tolist()


def test_iteration_yields_signals_and_int_labels(tiny_naval):
    pairs = list(tiny_naval)
    assert len(pairs) == len(tiny_naval) == tiny_naval.X.shape[0]
    for i, (sig, label) in enumerate(pairs):
        assert isinstance(sig, Signal) and type(label) is int
        assert sig.values.tobytes() == tiny_naval.X[i].tobytes()
        assert label == tiny_naval.y[i]
    again = dataset_from_samples(pairs)
    assert again.X.tobytes() == tiny_naval.X.tobytes()
    assert again.y.tolist() == tiny_naval.y.tolist()


def test_dense_dataset_checks_its_arrays():
    with pytest.raises(ValueError, match=r"expected X \(N, L, D\) and y \(N,\)"):
        LabeledDataset(np.zeros((3, 4)), np.ones(3))
    with pytest.raises(ValueError, match=r"expected X \(N, L, D\) and y \(N,\)"):
        LabeledDataset(np.zeros((3, 4, 1)), np.ones(2))
    with pytest.raises(ValueError, match="sample 1: label must be"):
        LabeledDataset(np.zeros((3, 4, 1)), np.array([1, 2, -1]))
    X = np.zeros((3, 4, 1))
    X[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset(X, np.ones(3))


def _loaded(tmp_path, monkeypatch, twin: bool) -> LabeledDataset:
    path = tmp_path / "x.csv"
    save_csv(gen_naval(20, seed=3), path)
    if not twin:
        twin_of(path).unlink()
    parses = count_parses(monkeypatch)
    data = load_csv(path)
    assert bool(parses) is not twin
    return data


DATASET_SOURCES = {
    "gen_driving": lambda *_: gen_driving(DrivingBehavior.OVERTAKE, 5, 10, seed=1),
    "gen_driving_pair": lambda *_: gen_driving_pair(
        DrivingBehavior.GO_FORWARD, DrivingBehavior.STOP_AND_GO, 3, 10, seed=1
    ),
    "gen_naval": lambda *_: gen_naval(6, seed=1),
    "load_csv-twin": lambda *args: _loaded(*args, twin=True),
    "load_csv-text": lambda *args: _loaded(*args, twin=False),
    "LabeledDataset": lambda *_: LabeledDataset(np.zeros((3, 4, 2)), [1, -1, 1]),
}


@pytest.mark.parametrize("source", sorted(DATASET_SOURCES))
def test_a_dataset_is_read_only(tmp_path, monkeypatch, source):
    data = DATASET_SOURCES[source](tmp_path, monkeypatch)
    with pytest.raises(ValueError, match="read-only"):
        data.X[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        data.y[0] = -data.y[0]
    with pytest.raises(AttributeError):
        data.X = data.X.copy()
    with pytest.raises(AttributeError):
        data.y = data.y.copy()


def test_a_float64_c_contiguous_x_is_kept_without_a_copy():
    X, y = np.zeros((3, 4, 2)), np.array([1, -1, 1])
    data = LabeledDataset(X, y)
    assert data.X is X and not X.flags.writeable
    assert data.y is not y and y.flags.writeable
    for other in (np.zeros((3, 4, 2), dtype=np.float32), np.zeros((3, 2, 4)).transpose(0, 2, 1)):
        data = LabeledDataset(other, y)
        assert not np.shares_memory(data.X, other) and other.flags.writeable


def test_empty_dataset_errors_keep_their_messages(tmp_path):
    from stlinfer.network import NetworkShape, ModelParams
    from stlinfer.trainer import TrainConfig, simplify, train

    empty = dataset_from_samples([])
    assert len(empty) == 0
    with pytest.raises(ValueError) as err:
        save_csv(empty, tmp_path / "x.csv")
    assert str(err.value) == "refusing to save an empty dataset"
    with pytest.raises(ValueError) as err:
        train(empty, TrainConfig(epochs=1))
    assert str(err.value) == "cannot train on an empty dataset"
    shape = NetworkShape.cycled(1, m=1)
    params = ModelParams(np.zeros(4), np.zeros(4), np.ones(4), np.ones((1, 4)))
    with pytest.raises(ValueError) as err:
        simplify(params, shape, empty)
    assert str(err.value) == "cannot simplify against an empty dataset"
