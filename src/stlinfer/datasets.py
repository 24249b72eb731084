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

A dataset is dense: an (N, L, D) float64 array of signals, which the
generators fill directly, and an (N,) vector of labels in {-1, +1}.

CSV files carry a header line `label,<dim>,<len>` followed by one row per
sample: the integer label, then len*dim values in time-major order.  The
round trip through save_csv/load_csv is lossless for float64 values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterable, Iterator, Tuple, Union

import numpy as np

from .stl import Signal

__all__ = [
    "DrivingBehavior",
    "DrivingConfig",
    "NavalConfig",
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
    in {-1, +1}, plus generation metadata.  Iterating yields (Signal,
    label) pairs built lazily from the rows of X.
    """

    X: np.ndarray
    y: np.ndarray
    metadata: dict = field(default_factory=dict)

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

    @classmethod
    def from_samples(cls, samples: Iterable[Tuple[Signal, int]], metadata=None) -> "LabeledDataset":
        """Stack (Signal, label) pairs of one length and one dimension."""
        samples = list(samples)
        for name, axis in (("length", 0), ("dimension", 1)):
            sizes = sorted({sig.values.shape[axis] for sig, _ in samples})
            if len(sizes) > 1:
                raise ValueError(f"signals disagree on {name}: {sizes}")
        X = np.stack([sig.values for sig, _ in samples]) if samples else np.empty((0, 0, 0))
        return cls(X, [label for _, label in samples], metadata or {})

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


@dataclass(frozen=True)
class DrivingConfig:
    """Generator knobs for the driving scenario.

    lane centers sit at 0 (lane 1) and -4 (lane 2).  lateral_noise is the
    per-step Gaussian sigma in lane units; forward_noise perturbs the
    longitudinal velocity per step.  The stop line sits at stop_fraction
    of the longitudinal range reachable at maximum velocity, and a
    stopped vehicle holds for exactly stop_hold samples.
    """

    lane1_center: float = 0.0
    lane2_center: float = -4.0
    lateral_noise: float = 0.1
    lateral_pull: float = 0.5
    x0_half_range: float = 1.0
    v_min: float = 1.0
    v_max: float = 1.01
    y0_max: float = 0.5
    forward_noise: float = 0.02
    stop_fraction: float = 0.4
    stop_hold: int = 3
    turn_y_lane1: float = 24.0
    turn_y_lane2: float = 28.0


def _drive_one(
    behavior: DrivingBehavior,
    length: int,
    rng: np.random.Generator,
    cfg: DrivingConfig,
) -> np.ndarray:
    x0 = cfg.lane1_center + rng.uniform(-cfg.x0_half_range, cfg.x0_half_range)
    y0 = rng.uniform(0.0, cfg.y0_max)
    v = rng.uniform(cfg.v_min, cfg.v_max)
    stop_line = cfg.stop_fraction * (cfg.y0_max + cfg.v_max * (length - 1))

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
            target = cfg.lane2_center if t >= t_switch else x0
        elif behavior is DrivingBehavior.OVERTAKE:
            target = cfg.lane2_center if t_out <= t < t_back else x0
        else:
            target = x0

        if behavior in (DrivingBehavior.LEFT_TURN_LANE1, DrivingBehavior.LEFT_TURN_LANE2):
            y_turn = (
                cfg.turn_y_lane1
                if behavior is DrivingBehavior.LEFT_TURN_LANE1
                else cfg.turn_y_lane2
            )
            if not turned and y + v >= y_turn:
                turned = True
            if turned:
                # heading left along the cross street: x runs, y is pinned
                x = x - v + rng.normal(0.0, cfg.lateral_noise)
                y = y_turn + rng.normal(0.0, cfg.forward_noise)
                continue

        x = x + cfg.lateral_pull * (target - x) + rng.normal(0.0, cfg.lateral_noise)

        if behavior is DrivingBehavior.STOP_AND_GO and not stopped_already:
            if hold_left > 0:
                hold_left -= 1
                if hold_left == 0:
                    stopped_already = True
                continue  # y unchanged while holding at the line
            if y + v >= stop_line:
                y = stop_line
                hold_left = cfg.stop_hold - 1  # the arrival sample counts
                if hold_left == 0:
                    stopped_already = True
                continue

        y = y + v + rng.normal(0.0, cfg.forward_noise)
    return out


def gen_driving(
    behavior: DrivingBehavior,
    count: int,
    length: int = 40,
    seed: int = 0,
    *,
    label: int = 1,
    cfg: DrivingConfig = DrivingConfig(),
) -> LabeledDataset:
    """Generate `count` trajectories of one behavior, all with `label`."""
    if count < 1:
        raise ValueError("count must be positive")
    if length < 2:
        raise ValueError("length must be at least 2")
    rng = np.random.default_rng([seed, list(DrivingBehavior).index(behavior)])
    X = np.empty((count, length, 2))
    for i in range(count):
        X[i] = _drive_one(behavior, length, rng, cfg)
    meta = dict(scenario="driving", behaviors=[behavior.value], count=count, length=length,
                seed=seed, config=asdict(cfg))
    return LabeledDataset(X, np.full(count, label), meta)


def gen_driving_pair(
    positive: DrivingBehavior,
    negative: DrivingBehavior,
    count_per_class: int,
    length: int = 40,
    seed: int = 0,
    *,
    cfg: DrivingConfig = DrivingConfig(),
) -> LabeledDataset:
    """Two-behavior classification set: `positive` labeled +1, `negative` -1."""
    pos = gen_driving(positive, count_per_class, length, seed, label=1, cfg=cfg)
    neg = gen_driving(negative, count_per_class, length, seed, label=-1, cfg=cfg)
    meta = dict(pos.metadata, behaviors=[positive.value, negative.value], count=2 * count_per_class)
    return LabeledDataset(np.concatenate([pos.X, neg.X]), np.concatenate([pos.y, neg.y]), meta)


# ---------------------------------------------------------------------------
# Naval scenario


@dataclass(frozen=True)
class NavalConfig:
    """Geometry of the harbor-approach facsimile (eastings x, northings y).

    Tracks start in open sea (large x), and normal traffic reaches the
    harbor while staying north of the island band.  The margins between
    the three track families are several noise sigmas wide, so the classes
    are separable by construction.
    """

    length: int = 61
    start_x: Tuple[float, float] = (48.0, 55.0)
    start_y: Tuple[float, float] = (28.0, 36.0)
    harbor: Tuple[float, float] = (22.0, 30.0)
    harbor_time: int = 45
    island_y: float = 21.0
    island_x: float = 40.0
    island_arrive: int = 8
    island_leave: int = 16
    abort_x: float = 42.0
    abort_turn: int = 22
    open_sea: Tuple[float, float] = (58.0, 33.0)
    abort_home: int = 40
    noise: float = 0.3


def _interp_path(times, xs, ys, length, rng, sigma):
    t = np.arange(length, dtype=np.float64)
    px = np.interp(t, times, xs)
    py = np.interp(t, times, ys)
    path = np.stack([px, py], axis=1)
    path += rng.normal(0.0, sigma, size=path.shape)
    return path


def _naval_one(kind: str, rng: np.random.Generator, cfg: NavalConfig) -> np.ndarray:
    x0 = rng.uniform(*cfg.start_x)
    y0 = rng.uniform(*cfg.start_y)
    hx, hy = cfg.harbor
    last = cfg.length - 1
    if kind == "normal":
        times = [0, cfg.harbor_time, last]
        xs = [x0, hx, hx]
        ys = [y0, hy, hy]
    elif kind == "island":
        # dip into the island band early, recover, still make the harbor
        times = [0, cfg.island_arrive, cfg.island_leave, cfg.harbor_time + 5, last]
        xs = [x0, cfg.island_x, cfg.island_x - 4.0, hx, hx]
        ys = [y0, cfg.island_y, cfg.island_y, hy, hy]
    elif kind == "abort":
        # turn back to open sea; never enters the harbor
        ox, oy = cfg.open_sea
        times = [0, cfg.abort_turn, cfg.abort_home, last]
        xs = [x0, cfg.abort_x, ox, ox]
        ys = [y0, y0 + rng.uniform(-1.0, 2.0), oy, oy]
    else:
        raise ValueError(f"unknown naval track kind '{kind}'")
    return _interp_path(times, xs, ys, cfg.length, rng, cfg.noise)


def gen_naval(count: int, seed: int = 0, *, cfg: NavalConfig = NavalConfig()) -> LabeledDataset:
    """Balanced harbor-approach set: count/2 normal (+1) and count/2
    anomalous (-1, alternating island dips and aborted approaches)."""
    if count < 2 or count % 2 != 0:
        raise ValueError("count must be an even number of samples >= 2")
    rng = np.random.default_rng([seed, 97])
    half = count // 2
    kinds = ["normal"] * half + ["island" if i % 2 == 0 else "abort" for i in range(half)]
    X = np.empty((count, cfg.length, 2))
    for i, kind in enumerate(kinds):
        X[i] = _naval_one(kind, rng, cfg)
    meta = dict(scenario="naval", count=count, length=cfg.length, seed=seed, config=asdict(cfg))
    return LabeledDataset(X, np.repeat([1, -1], half), meta)


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
    meta = {"scenario": "csv", "source": str(path)}
    body = [ln for _, ln in rows]
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if table.shape[1] == 1 + dim * length:
            labels = [int(ln.partition(",")[0]) for ln in body]
            return LabeledDataset(table[:, 1:].reshape(-1, length, dim), labels, meta)
    except (ValueError, OverflowError):
        pass
    labels, values = _parse_rows(path, rows, 1 + dim * length)
    return LabeledDataset(np.array(values).reshape(-1, length, dim), labels, meta)


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
