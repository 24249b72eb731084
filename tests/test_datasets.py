"""Generator tests pin the behavioral geometry each scenario promises:
which reference formulas separate which behaviors, where the stop line
sits, and that the CSV round trip is lossless."""

import numpy as np
import pytest

from stlinfer.datasets import (
    DrivingBehavior,
    DrivingConfig,
    LabeledDataset,
    gen_driving,
    gen_driving_pair,
    gen_naval,
    load_csv,
    save_csv,
)
from stlinfer.stl import Signal, mcr, parse_formula, satisfies

LANE_REF = parse_formula("G[0,39](x0 > -1.97)")


def test_go_forward_keeps_lane_overtake_leaves_it():
    gf = gen_driving(DrivingBehavior.GO_FORWARD, 200, 40, seed=5)
    ot = gen_driving(DrivingBehavior.OVERTAKE, 200, 40, seed=5)
    assert all(satisfies(sig, LANE_REF) for sig, _ in gf)
    assert not any(satisfies(sig, LANE_REF) for sig, _ in ot)


def test_go_forward_always_advances():
    gf = gen_driving(DrivingBehavior.GO_FORWARD, 100, 40, seed=5)
    for sig, _ in gf:
        assert np.all(np.diff(sig.values[:, 1]) > 0)
        assert np.all(np.abs(sig.values[:, 0]) < 2.0)


def test_stop_and_go_holds_exactly_at_the_line():
    cfg = DrivingConfig()
    stop_line = cfg.stop_fraction * (cfg.y0_max + cfg.v_max * 39)
    sg = gen_driving(DrivingBehavior.STOP_AND_GO, 100, 40, seed=5, cfg=cfg)
    for sig, _ in sg:
        hits = np.flatnonzero(sig.values[:, 1] == stop_line)
        assert len(hits) == cfg.stop_hold
        assert np.all(np.diff(hits) == 1)


def test_turns_leave_the_road_and_switch_settles_in_lane_two():
    for behavior in (DrivingBehavior.LEFT_TURN_LANE1, DrivingBehavior.LEFT_TURN_LANE2):
        turns = gen_driving(behavior, 100, 40, seed=5)
        assert all(sig.values[-1, 0] < -6.0 for sig, _ in turns)
    switch = gen_driving(DrivingBehavior.SWITCH_LANE, 100, 40, seed=5)
    assert all(-6.0 < sig.values[-1, 0] < -2.0 for sig, _ in switch)


def test_overtake_returns_to_its_lane():
    ot = gen_driving(DrivingBehavior.OVERTAKE, 100, 40, seed=5)
    for sig, _ in ot:
        assert sig.values[:, 0].min() < -2.0
        assert sig.values[-1, 0] > -2.0


def test_gen_driving_shapes_and_determinism():
    data = gen_driving(DrivingBehavior.GO_FORWARD, 2000, 40, seed=0)
    assert len(data) == 2000
    assert data.length == 40 and data.dim == 2
    again = gen_driving(DrivingBehavior.GO_FORWARD, 2000, 40, seed=0)
    for (a, _), (b, _) in zip(data, again):
        assert np.array_equal(a.values, b.values)
    other = gen_driving(DrivingBehavior.GO_FORWARD, 1, 40, seed=1)
    assert not np.array_equal(other.samples[0][0].values, data.samples[0][0].values)


def test_gen_driving_pair_layout():
    data = gen_driving_pair(DrivingBehavior.GO_FORWARD, DrivingBehavior.OVERTAKE, 30, seed=2)
    labels = data.labels()
    assert labels[:30].tolist() == [1] * 30
    assert labels[30:].tolist() == [-1] * 30
    assert data.metadata["behaviors"] == ["GoForward", "Overtake"]
    assert data.metadata["count"] == 60


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
    labels = data.labels()
    assert (labels == 1).sum() == 30 and (labels == -1).sum() == 30
    assert data.length == 61 and data.dim == 2
    negatives = [sig for sig, label in data if label == -1]
    island = [s for s in negatives if s.values[8:17, 1].min() < 23.0]
    abort = [s for s in negatives if s.values[-1, 0] > 50.0]
    assert len(island) + len(abort) == len(negatives)
    assert len(island) == 15 and len(abort) == 15


def test_naval_determinism_and_validation():
    a = gen_naval(10, seed=4)
    b = gen_naval(10, seed=4)
    for (x, _), (y, _) in zip(a, b):
        assert np.array_equal(x.values, y.values)
    with pytest.raises(ValueError, match="even"):
        gen_naval(7)
    with pytest.raises(ValueError, match="even"):
        gen_naval(0)


# ---------------------------------------------------------------------------
# dataset container


def test_labeled_dataset_validation():
    sig = Signal(np.zeros((4, 1)))
    with pytest.raises(ValueError, match="label"):
        LabeledDataset([(sig, 0)])
    mixed = LabeledDataset([(sig, 1), (Signal(np.zeros((5, 1))), -1)])
    with pytest.raises(ValueError, match="disagree on length"):
        mixed.length
    widened = LabeledDataset([(sig, 1), (Signal(np.zeros((4, 2))), -1)])
    with pytest.raises(ValueError, match="disagree on dimension"):
        widened.dim


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip_is_lossless(tmp_path, tiny_naval):
    path = tmp_path / "naval.csv"
    save_csv(tiny_naval, path)
    head = path.read_text(encoding="utf-8").split("\n", 1)[0]
    assert head == "label,2,61"
    back = load_csv(path)
    assert back.labels().tolist() == tiny_naval.labels().tolist()
    for (a, _), (b, _) in zip(tiny_naval, back):
        assert np.array_equal(a.values, b.values)


def test_csv_save_refuses_empty(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        save_csv(LabeledDataset([]), tmp_path / "x.csv")


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
