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

CSV files carry a header line `label,<dim>,<len>` followed by one row per
sample: the integer label, then len*dim values in time-major order.  The
round trip through save_csv/load_csv is lossless for float64 values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Iterator, List, Tuple, Union

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


@dataclass
class LabeledDataset:
    """Samples with labels in {-1, +1} plus generation metadata.

    All signals share one length and one dimension; properties check it.
    """

    samples: List[Tuple[Signal, int]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for i, (sig, label) in enumerate(self.samples):
            if label not in (-1, 1):
                raise ValueError(f"sample {i}: label must be +1 or -1, got {label}")

    def __iter__(self) -> Iterator[Tuple[Signal, int]]:
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def length(self) -> int:
        ls = {sig.length for sig, _ in self.samples}
        if len(ls) != 1:
            raise ValueError(f"signals disagree on length: {sorted(ls)}")
        return ls.pop()

    @property
    def dim(self) -> int:
        ds = {sig.dim for sig, _ in self.samples}
        if len(ds) != 1:
            raise ValueError(f"signals disagree on dimension: {sorted(ds)}")
        return ds.pop()

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.samples], dtype=np.int64)


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
    rng = np.random.default_rng([seed, _behavior_tag(behavior)])
    samples = [(Signal(_drive_one(behavior, length, rng, cfg)), label) for _ in range(count)]
    meta = {
        "scenario": "driving",
        "behaviors": [behavior.value],
        "count": count,
        "length": length,
        "seed": seed,
        "config": asdict(cfg),
    }
    return LabeledDataset(samples, meta)


def _behavior_tag(behavior: DrivingBehavior) -> int:
    return list(DrivingBehavior).index(behavior)


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
    meta = {
        "scenario": "driving",
        "behaviors": [positive.value, negative.value],
        "count": 2 * count_per_class,
        "length": length,
        "seed": seed,
        "config": asdict(cfg),
    }
    return LabeledDataset(pos.samples + neg.samples, meta)


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
    samples: List[Tuple[Signal, int]] = []
    for _ in range(count // 2):
        samples.append((Signal(_naval_one("normal", rng, cfg)), 1))
    for i in range(count // 2):
        kind = "island" if i % 2 == 0 else "abort"
        samples.append((Signal(_naval_one(kind, rng, cfg)), -1))
    meta = {
        "scenario": "naval",
        "count": count,
        "length": cfg.length,
        "seed": seed,
        "config": asdict(cfg),
    }
    return LabeledDataset(samples, meta)


# ---------------------------------------------------------------------------
# CSV persistence


def save_csv(dataset: LabeledDataset, path: Union[str, Path]) -> None:
    """Write `label,<dim>,<len>` header plus one time-major row per sample."""
    if not dataset.samples:
        raise ValueError("refusing to save an empty dataset")
    dim, length = dataset.dim, dataset.length
    lines = [f"label,{dim},{length}"]
    for sig, label in dataset.samples:
        flat = sig.values.reshape(-1)  # time-major: all axes of t=0 first
        lines.append(str(label) + "," + ",".join(repr(float(v)) for v in flat))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_csv(path: Union[str, Path]) -> LabeledDataset:
    """Read a dataset saved by save_csv; errors carry 1-based line numbers."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln.strip() != ""]
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0].split(",")
    if len(head) != 3 or head[0].strip() != "label":
        raise ValueError(f"{path}:1: expected header 'label,<dim>,<len>', got '{lines[0]}'")
    try:
        dim, length = int(head[1]), int(head[2])
    except ValueError:
        raise ValueError(f"{path}:1: header dim and len must be integers, got '{lines[0]}'") from None
    if dim < 1 or length < 1:
        raise ValueError(f"{path}:1: dim and len must be positive")
    samples: List[Tuple[Signal, int]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 1 + dim * length:
            raise ValueError(
                f"{path}:{lineno}: expected {1 + dim * length} fields, got {len(fields)}"
            )
        try:
            label = int(fields[0])
            values = np.array([float(f) for f in fields[1:]], dtype=np.float64)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
        if label not in (-1, 1):
            raise ValueError(f"{path}:{lineno}: label must be +1 or -1, got {label}")
        if not np.isfinite(values).all():
            raise ValueError(f"{path}:{lineno}: signal values must be finite")
        samples.append((Signal(values.reshape(length, dim)), label))
    if not samples:
        raise ValueError(f"{path}: no data rows")
    return LabeledDataset(samples, {"scenario": "csv", "source": str(path)})
