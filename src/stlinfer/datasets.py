"""Synthetic labeled time-series datasets and CSV persistence.

Two scenario families ship with the package:

* Driving: 2-D trajectories (x lateral in lane units, y longitudinal) on a
  two-lane road.  Lane 1 spans x in [-2, 2], lane 2 spans x in [-6, -2].
  Six behaviors cover straight driving, stop-and-go, both left turns, a
  lane switch, and an overtake.  Lateral motion follows a mean-reverting
  pull toward the current target lane with Gaussian per-step noise;
  longitudinal motion integrates a per-sample random velocity.

* Naval: 2-D vessel tracks of length 61 approaching a harbor past an
  island.  Normal tracks keep their northing above the island band early
  on and finish inside the harbor; anomaly A dips toward the island and
  then continues to the harbor, anomaly B aborts the approach and returns
  to open sea.  The classes are separable by construction with wide
  margins.

The geometry of both scenarios is fixed: module constants hold it.

A dataset is dense: an (N, L, D) float64 array of signals, which the
generators fill directly, and an (N,) vector of labels in {-1, +1}.

CSV files carry a header line `label,<dim>,<len>` followed by one row per
sample: the integer label, then len*dim values in time-major order.  The
round trip through save_csv/load_csv is lossless for float64 values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Tuple, Union

import numpy as np

from .stl import Signal

__all__ = [
    "DrivingBehavior",
    "LabeledDataset",
    "gen_driving",
    "gen_driving_pair",
    "gen_naval",
    "save_csv",
    "load_csv",
]


class DrivingBehavior(enum.Enum):
    GO_FORWARD = "GoForward"
    STOP_AND_GO = "StopAndGo"
    LEFT_TURN_LANE1 = "LeftTurnLane1"
    LEFT_TURN_LANE2 = "LeftTurnLane2"
    SWITCH_LANE = "SwitchLane"
    OVERTAKE = "Overtake"

    @classmethod
    def from_name(cls, name: str) -> "DrivingBehavior":
        for b in cls:
            if b.value.lower() == name.lower():
                return b
        known = ", ".join(b.value for b in cls)
        raise ValueError(f"unknown driving behavior '{name}' (known: {known})")


@dataclass(eq=False)
class LabeledDataset:
    """Signals X (N, L, D) float64, time-major, with labels y (N,) int64
    in {-1, +1}.  Iterating yields (Signal, label) pairs built lazily
    from the rows of X.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.ascontiguousarray(self.X, dtype=np.float64)
        y = np.asarray(self.y)
        if self.X.ndim != 3 or y.shape != self.X.shape[:1]:
            raise ValueError(f"expected X (N, L, D) and y (N,), got {self.X.shape} and {y.shape}")
        bad = np.flatnonzero((y != 1) & (y != -1))
        if bad.size:
            raise ValueError(f"sample {bad[0]}: label must be +1 or -1, got {y[bad[0]]}")
        if not np.isfinite(self.X).all():
            raise ValueError("signal values must be finite")
        self.y = y.astype(np.int64)

    def __iter__(self) -> Iterator[Tuple[Signal, int]]:
        for x, label in zip(self.X, self.y.tolist()):
            yield Signal(x), label

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def length(self) -> int:
        return self.X.shape[1]

    @property
    def dim(self) -> int:
        return self.X.shape[2]


# ---------------------------------------------------------------------------
# Driving scenario
#
# Lane centers sit at 0 (lane 1) and -4 (lane 2).  _LATERAL_NOISE is the
# per-step Gaussian sigma in lane units; _FORWARD_NOISE perturbs the
# longitudinal velocity per step.  The stop line sits at _STOP_FRACTION of
# the longitudinal range reachable at maximum velocity, and a stopped
# vehicle holds for exactly _STOP_HOLD samples.

_LANE1_CENTER = 0.0
_LANE2_CENTER = -4.0
_LATERAL_NOISE = 0.1
_LATERAL_PULL = 0.5
_X0_HALF_RANGE = 1.0
_V_MIN = 1.0
_V_MAX = 1.01
_Y0_MAX = 0.5
_FORWARD_NOISE = 0.02
_STOP_FRACTION = 0.4
_STOP_HOLD = 3
_TURN_Y_LANE1 = 24.0
_TURN_Y_LANE2 = 28.0


def _drive_one(
    behavior: DrivingBehavior,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
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


def gen_driving(
    behavior: DrivingBehavior,
    count: int,
    length: int = 40,
    seed: int = 0,
    *,
    label: int = 1,
) -> LabeledDataset:
    """Generate `count` trajectories of one behavior, all with `label`."""
    if count < 1:
        raise ValueError("count must be positive")
    if length < 2:
        raise ValueError("length must be at least 2")
    rng = np.random.default_rng([seed, list(DrivingBehavior).index(behavior)])
    X = np.empty((count, length, 2))
    for i in range(count):
        X[i] = _drive_one(behavior, length, rng)
    return LabeledDataset(X, np.full(count, label))


def gen_driving_pair(
    positive: DrivingBehavior,
    negative: DrivingBehavior,
    count_per_class: int,
    length: int = 40,
    seed: int = 0,
) -> LabeledDataset:
    """Two-behavior classification set: `positive` labeled +1, `negative` -1."""
    pos = gen_driving(positive, count_per_class, length, seed, label=1)
    neg = gen_driving(negative, count_per_class, length, seed, label=-1)
    return LabeledDataset(np.concatenate([pos.X, neg.X]), np.concatenate([pos.y, neg.y]))


# ---------------------------------------------------------------------------
# Naval scenario
#
# Geometry of the harbor-approach facsimile (eastings x, northings y).
# Tracks start in open sea (large x), and normal traffic reaches the
# harbor while staying north of the island band.  The margins between the
# three track families are several noise sigmas wide, so the classes are
# separable by construction.

_NAVAL_LENGTH = 61
_START_X = (48.0, 55.0)
_START_Y = (28.0, 36.0)
_HARBOR = (22.0, 30.0)
_HARBOR_TIME = 45
_ISLAND_Y = 21.0
_ISLAND_X = 40.0
_ISLAND_ARRIVE = 8
_ISLAND_LEAVE = 16
_ABORT_X = 42.0
_ABORT_TURN = 22
_OPEN_SEA = (58.0, 33.0)
_ABORT_HOME = 40
_NAVAL_NOISE = 0.3


def _interp_path(times, xs, ys, length, rng, sigma):
    t = np.arange(length, dtype=np.float64)
    px = np.interp(t, times, xs)
    py = np.interp(t, times, ys)
    path = np.stack([px, py], axis=1)
    path += rng.normal(0.0, sigma, size=path.shape)
    return path


def _naval_one(kind: str, rng: np.random.Generator) -> np.ndarray:
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
    return _interp_path(times, xs, ys, _NAVAL_LENGTH, rng, _NAVAL_NOISE)


def gen_naval(count: int, seed: int = 0) -> LabeledDataset:
    """Balanced harbor-approach set: count/2 normal (+1) and count/2
    anomalous (-1, alternating island dips and aborted approaches)."""
    if count < 2 or count % 2 != 0:
        raise ValueError("count must be an even number of samples >= 2")
    rng = np.random.default_rng([seed, 97])
    half = count // 2
    kinds = ["normal"] * half + ["island" if i % 2 == 0 else "abort" for i in range(half)]
    X = np.empty((count, _NAVAL_LENGTH, 2))
    for i, kind in enumerate(kinds):
        X[i] = _naval_one(kind, rng)
    return LabeledDataset(X, np.repeat([1, -1], half))


# ---------------------------------------------------------------------------
# CSV persistence


def save_csv(dataset: LabeledDataset, path: Union[str, Path]) -> None:
    """Write `label,<dim>,<len>` header plus one time-major row per sample."""
    if not len(dataset):
        raise ValueError("refusing to save an empty dataset")
    n, length, dim = dataset.X.shape
    lines = [f"label,{dim},{length}"]
    # time-major: all axes of t=0 first; repr keeps every float64 bit
    for row, label in zip(dataset.X.reshape(n, -1), dataset.y.tolist()):
        lines.append(str(label) + "," + ",".join(map(repr, row.tolist())))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_csv(path: Union[str, Path]) -> LabeledDataset:
    """Read a dataset saved by save_csv; errors carry 1-based line numbers
    (blank lines are skipped but counted).

    One np.loadtxt call parses the body; LabeledDataset checks its labels
    and values.  If that fails, a per-line pass with int() and float()
    names the bad line, or reads what float() reads and np.loadtxt does
    not (such as `1_0`).  Both give the same bits for every value.
    """
    numbered = enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1)
    lines = [(n, ln) for n, ln in numbered if ln.strip() != ""]
    if not lines:
        raise ValueError(f"{path}: empty file")
    head_no, head_line = lines[0]
    head = head_line.split(",")
    if len(head) != 3 or head[0].strip() != "label":
        raise ValueError(
            f"{path}:{head_no}: expected header 'label,<dim>,<len>', got '{head_line}'"
        )
    try:
        dim, length = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(
            f"{path}:{head_no}: header dim and len must be integers, got '{head_line}'"
        ) from None
    if dim < 1 or length < 1:
        raise ValueError(f"{path}:{head_no}: dim and len must be positive")
    rows = lines[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    body = [ln for _, ln in rows]
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] == 1 + dim * length:
            labels = [int(ln.partition(",")[0]) for ln in body]
            return LabeledDataset(table[:, 1:].reshape(-1, length, dim), labels)
    except (ValueError, OverflowError):
        pass
    labels, values = _parse_rows(path, rows, 1 + dim * length)
    return LabeledDataset(np.array(values).reshape(-1, length, dim), labels)


def _parse_rows(path, rows, width: int):
    """(labels, values) of numbered lines, or a ValueError at the first bad one."""
    labels, values = [], []
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
        try:
            labels.append(int(fields[0]))
            values.append([float(f) for f in fields[1:]])
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        if labels[-1] not in (-1, 1):
            raise ValueError(f"{path}:{lineno}: label must be +1 or -1, got {labels[-1]}")
        if not np.isfinite(values[-1]).all():
            raise ValueError(f"{path}:{lineno}: signal values must be finite")
    return labels, values
