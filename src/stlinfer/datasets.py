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
generators fill directly, and an (N,) vector of labels in {-1, +1}.  It
is a read-only value: neither array can be written or rebound.

CSV files carry a header line `label,<dim>,<len>` followed by one row per
sample: the integer label, then len*dim values in time-major order.  The
round trip through save_csv/load_csv is lossless for float64 values.
Both take _CSV_ROWS rows at a time through one file handle, so the text
they hold does not grow with the file.  On a 10.8 MB naval CSV (4800
tracks) save_csv allocates 0.6 MB at its peak, and load_csv twice the
4.7 MB array it returns (the chunks, then their concatenation).

Parsing the decimal text is most of load_csv's time, so save_csv also
writes a binary twin beside the CSV: `data.csv` gets `data.csv.npy`,
which holds the sha256 of the CSV bytes just written, then X and y, as
three consecutive .npy arrays.  load_csv reads the twin instead of the
text only when the twin reads cleanly and its digest equals the sha256 of
the CSV's current bytes; a missing, stale, truncated or unreadable twin,
or a CSV that save_csv did not write, is parsed.  Both paths give the
same bits, so deleting a twin is always safe: it costs one parse.
load_csv never writes a file.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import itertools
import os
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

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
    "read_text",
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


class LabeledDataset:
    """Signals X (N, L, D) float64, time-major, with labels y (N,) int64
    in {-1, +1}.  Iterating yields (Signal, label) pairs built lazily
    from the rows of X.

    A dataset is a read-only value: X and y cannot be rebound, and their
    arrays are not writeable.  An X that is already float64 and
    C-contiguous is kept without a copy, so the caller's array becomes
    read-only too; pass a copy to keep writing yours.
    """

    __slots__ = ("_X", "_y", "_signs")

    def __init__(self, X, y):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 3 or y.shape != X.shape[:1]:
            raise ValueError(f"expected X (N, L, D) and y (N,), got {X.shape} and {y.shape}")
        # no sample is read, so an empty set may have any length and dim
        if len(y) and 0 in X.shape[1:]:
            raise ValueError(f"signals need length and dim of at least 1, got X of shape {X.shape}")
        bad = np.flatnonzero((y != 1) & (y != -1))
        if bad.size:
            raise ValueError(f"sample {bad[0]}: label must be +1 or -1, got {y[bad[0]]}")
        if not np.isfinite(X).all():
            raise ValueError("signal values must be finite")
        y = y.astype(np.int64)
        X.flags.writeable = y.flags.writeable = False
        self._X, self._y = X, y
        # the last network sign vector evaluate computed on X, with its key
        self._signs = None

    X = property(lambda self: self._X, doc="signals, shape (N, L, D), read-only")
    y = property(lambda self: self._y, doc="labels in {-1, +1}, shape (N,), read-only")

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


def _int_arg(name: str, value) -> int:
    """`value` as an int; a bool, a float or anything else is refused with
    the argument named."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    return int(value)


def _seed_arg(seed) -> int:
    """`seed` as an int >= 0, refused by name otherwise."""
    seed = _int_arg("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


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


def _stop_line(length: int) -> float:
    return _STOP_FRACTION * (_Y0_MAX + _V_MAX * (length - 1))


def _stop_and_go_noise(z: np.ndarray, y0: float, v: float, stop_line: float, rng) -> int:
    """Draw one StopAndGo sample's per-step noise into the front of z
    (2L slots) and return its arrival step at the stop line (L if none).

    x and y draws alternate until the arrival step, whose y draw and the
    next _STOP_HOLD - 1 are skipped.  The first call draws the fewest any
    arrival leaves, which fixes y up to step L - 2 and so every earlier
    arrival; a later arrival or none tops up by at most _STOP_HOLD draws.
    """
    length = z.size // 2
    drawn = 2 * length - min(_STOP_HOLD, length)
    rng.standard_normal(out=z[:drawn])
    while True:
        steps = drawn // 2  # y draws known for steps [0, steps)
        # y0, v, n0, v, n1, ... summed left to right: y_t + v at odd places
        path = np.empty(2 * steps + 2)
        path[0] = y0
        path[1::2] = v
        path[2::2] = 0.0 + _FORWARD_NOISE * z[1 : 2 * steps : 2]
        reached = np.add.accumulate(path)[1::2] >= stop_line
        arrive = int(reached.argmax())
        if reached[arrive] or steps == length - 1:
            arrive = arrive if reached[arrive] else length
            total = 2 * length - min(_STOP_HOLD, length - arrive)
            rng.standard_normal(out=z[drawn:total])
            return arrive
        rng.standard_normal(out=z[drawn : drawn + 1])  # the y draw of step `steps`
        drawn += 1


def _driving_draws(behavior: DrivingBehavior, count: int, length: int, seed: int):
    """Each sample's random numbers, drawn sample after sample in the
    order the step loop of one trajectory consumes them.

    Returns per sample: x0 - lane 1 center, y0 and v (count, 3); the steps
    [from, to) steered to lane 2 (count, 2); the arrival step at the stop
    line, L if none (count,); and the standard normals its steps use,
    x and y alternating (count, 2L).
    """
    start = np.empty((count, 3))
    lane2 = np.full((count, 2), length)
    arrive = np.full(count, length)
    z = np.zeros((count, 2 * length))
    rng = np.random.default_rng([seed, list(DrivingBehavior).index(behavior)])
    stop_line = _stop_line(length)
    for i in range(count):
        # scalar calls: with array bounds, uniform and integers cost twice as much
        start[i] = (
            rng.uniform(-_X0_HALF_RANGE, _X0_HALF_RANGE),
            rng.uniform(0.0, _Y0_MAX),
            rng.uniform(_V_MIN, _V_MAX),
        )
        if behavior is DrivingBehavior.SWITCH_LANE:
            lane2[i, 0] = rng.integers(12, 21)
        elif behavior is DrivingBehavior.OVERTAKE:
            t_out = rng.integers(8, 13)
            lane2[i] = t_out, t_out + rng.integers(10, 15)
        if behavior is DrivingBehavior.STOP_AND_GO:
            arrive[i] = _stop_and_go_noise(z[i], start[i, 1], start[i, 2], stop_line, rng)
        else:
            rng.standard_normal(out=z[i])
    return start, lane2, arrive, z


def gen_driving(
    behavior: DrivingBehavior,
    count: int,
    length: int = 40,
    seed: int = 0,
    *,
    label: int = 1,
) -> LabeledDataset:
    """Generate `count` trajectories of one behavior, all with `label`.

    Each sample draws its start point and velocity, its lane change steps
    (SwitchLane, Overtake) and one x and one y noise per step; then all
    samples step through time together, with per-sample masks for lane
    changes, turns and holds at the stop line.
    """
    count, length = _int_arg("count", count), _int_arg("length", length)
    seed = _seed_arg(seed)
    if count < 1:
        raise ValueError("count must be positive")
    if length < 2:
        raise ValueError("length must be at least 2")
    start, lane2, arrive, z = _driving_draws(behavior, count, length, seed)

    # step-major (L, N) masks and noise; the y draws skipped while held
    # at the stop line shift a sample's later draws forward
    step = np.arange(length)[:, None]
    at_x = 2 * step - np.clip(step - arrive, 0, _STOP_HOLD)
    noise_x = 0.0 + _LATERAL_NOISE * np.take_along_axis(z.T, at_x, 0)
    noise_y = 0.0 + _FORWARD_NOISE * np.take_along_axis(z.T, at_x + 1, 0)
    moving = (step < arrive) | (step >= arrive + _STOP_HOLD)
    at_line = step == arrive
    stop_line = _stop_line(length)
    x0 = _LANE1_CENTER + start[:, 0]
    steer = (lane2[:, 0] <= step) & (step < lane2[:, 1])
    target = np.where(steer, _LANE2_CENTER, x0)
    y_turn = {
        DrivingBehavior.LEFT_TURN_LANE1: _TURN_Y_LANE1,
        DrivingBehavior.LEFT_TURN_LANE2: _TURN_Y_LANE2,
    }.get(behavior, np.inf)

    v = start[:, 2]
    xs = np.empty((length, count))
    ys = np.empty((length, count))
    xs[0], ys[0] = x0, start[:, 1]
    turned = np.zeros(count, dtype=bool)
    for t in range(length - 1):
        x, y = xs[t], ys[t]
        # a turned vehicle heads left along the cross street: x runs, y is pinned
        turned |= y + v >= y_turn
        xs[t + 1] = np.where(
            turned,
            x - v + noise_x[t],
            x + _LATERAL_PULL * (target[t] - x) + noise_x[t],
        )
        held_y = np.where(at_line[t], stop_line, y)
        ys[t + 1] = np.where(
            turned, y_turn + noise_y[t], np.where(moving[t], y + v + noise_y[t], held_y)
        )
    X = np.empty((count, length, 2))
    X[:, :, 0] = xs.T
    X[:, :, 1] = ys.T
    return LabeledDataset(X, np.full(count, label))


def gen_driving_pair(
    positive: DrivingBehavior,
    negative: DrivingBehavior,
    count_per_class: int,
    length: int = 40,
    seed: int = 0,
) -> LabeledDataset:
    """Two-behavior classification set: `positive` labeled +1, `negative` -1.

    The behaviors must differ: both classes draw from the same seed, so a
    behavior paired with itself gives two identical halves."""
    count_per_class = _int_arg("count_per_class", count_per_class)
    if positive is negative:
        raise ValueError(f"positive and negative behaviors must differ, got {positive.value} twice")
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


def _naval_knots(kind: str, x0: float, y0: float, rng: np.random.Generator):
    """Times and (x, y) positions a track of `kind` interpolates."""
    hx, hy = _HARBOR
    last = _NAVAL_LENGTH - 1
    if kind == "normal":
        return [0, _HARBOR_TIME, last], [x0, hx, hx], [y0, hy, hy]
    if kind == "island":
        # dip into the island band early, recover, still make the harbor
        times = [0, _ISLAND_ARRIVE, _ISLAND_LEAVE, _HARBOR_TIME + 5, last]
        return times, [x0, _ISLAND_X, _ISLAND_X - 4.0, hx, hx], [y0, _ISLAND_Y, _ISLAND_Y, hy, hy]
    # abort: turn back to open sea; never enters the harbor
    ox, oy = _OPEN_SEA
    times = [0, _ABORT_TURN, _ABORT_HOME, last]
    return times, [x0, _ABORT_X, ox, ox], [y0, y0 + rng.uniform(-1.0, 2.0), oy, oy]


def gen_naval(count: int, seed: int = 0) -> LabeledDataset:
    """Balanced harbor-approach set: count/2 normal (+1) and count/2
    anomalous (-1, alternating island dips and aborted approaches).

    Each track draws its start point, an abort its turn northing, then
    one x and one y noise per step."""
    count, seed = _int_arg("count", count), _seed_arg(seed)
    if count < 2 or count % 2 != 0:
        raise ValueError("count must be an even number of samples >= 2")
    rng = np.random.default_rng([seed, 97])
    half = count // 2
    kinds = ["normal"] * half + ["island" if i % 2 == 0 else "abort" for i in range(half)]
    t = np.arange(_NAVAL_LENGTH, dtype=np.float64)
    X = np.empty((count, _NAVAL_LENGTH, 2))
    for i, kind in enumerate(kinds):
        x0 = rng.uniform(*_START_X)  # two scalar calls beat one with array bounds
        y0 = rng.uniform(*_START_Y)
        times, xs, ys = _naval_knots(kind, x0, y0, rng)
        X[i, :, 0] = np.interp(t, times, xs)
        X[i, :, 1] = np.interp(t, times, ys)
        X[i] += rng.normal(0.0, _NAVAL_NOISE, size=(_NAVAL_LENGTH, 2))
    return LabeledDataset(X, np.repeat([1, -1], half))


# ---------------------------------------------------------------------------
# CSV persistence


# rows per write and per parse: the CSV text in memory at any time is a
# few hundred kB (128 naval rows hold 0.3 MB), whatever the file size
_CSV_ROWS = 128
# bytes per read when load_csv hashes a CSV to check its twin
_HASH_BLOCK = 2**16


def save_csv(dataset: LabeledDataset, path: Union[str, Path]) -> None:
    """Write `label,<dim>,<len>` header plus one time-major row per sample,
    _CSV_ROWS rows at a time, then the binary twin of the bytes written."""
    if not len(dataset):
        raise ValueError("refusing to save an empty dataset")
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for text in _csv_text(dataset):
            data = text.encode("utf-8")
            f.write(data)
            digest.update(data)
            del text, data  # freed before the next piece is built
    _write_twin(path, digest.digest(), dataset)


def _csv_text(dataset: LabeledDataset) -> Iterator[str]:
    """The CSV text in pieces: the header, then _CSV_ROWS rows at a time."""
    n, length, dim = dataset.X.shape
    rows, labels = dataset.X.reshape(n, -1), dataset.y.tolist()
    yield f"label,{dim},{length}\n"
    for lo in range(0, n, _CSV_ROWS):
        # time-major: all axes of t=0 first; repr keeps every float64 bit
        yield "".join(
            str(label) + "," + ",".join(map(repr, row.tolist())) + "\n"
            for row, label in zip(rows[lo : lo + _CSV_ROWS], labels[lo : lo + _CSV_ROWS])
        )


def _twin_path(path: Union[str, Path]) -> str:
    return os.fspath(path) + ".npy"


def _write_twin(path, digest: bytes, dataset: LabeledDataset) -> None:
    """The twin of the CSV at `path`, written under a temporary name and
    renamed into place.  A twin is only a cache: if writing it fails, no
    twin and no temporary file is left, and load_csv parses the text."""
    twin = _twin_path(path)
    tmp = f"{twin}.{os.getpid()}.tmp"
    try:
        # np.save on a real file writes each array without a copy
        with open(tmp, "wb") as f:
            np.save(f, np.frombuffer(digest, dtype=np.uint8))
            np.save(f, dataset.X)
            np.save(f, dataset.y)
        os.replace(tmp, twin)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _read_twin(path) -> Optional[LabeledDataset]:
    """The dataset in the twin of `path` if the twin reads cleanly, its
    digest is that of the CSV's current bytes and LabeledDataset accepts
    its arrays, else None."""
    try:
        with open(_twin_path(path), "rb") as f:
            digest = np.load(f, allow_pickle=False)
            if digest.tobytes() != _file_sha256(path):
                return None
            X = np.load(f, allow_pickle=False)
            y = np.load(f, allow_pickle=False)
        return LabeledDataset(X, y)
    except (OSError, ValueError, EOFError):
        return None


def _file_sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while block := f.read(_HASH_BLOCK):
            digest.update(block)
    return digest.digest()


def load_csv(path: Union[str, Path]) -> LabeledDataset:
    """Read a dataset saved by save_csv; errors carry 1-based line numbers
    (blank lines are skipped but counted).

    The body is read _CSV_ROWS non-blank lines at a time.  One np.loadtxt
    call parses each chunk, and its labels and values are checked.  If that
    fails, a per-line pass with int() and float() names the bad line, or
    reads what float() reads and np.loadtxt does not (such as `1_0`).  Both
    give the same bits for every value.  The text is streamed by the rule
    of `read_text`, which names the line of a byte that is not UTF-8.

    The twin that save_csv wrote is read instead when its digest matches
    the CSV's bytes; it holds the same bits the parse gives.
    """
    twin = _read_twin(path)
    if twin is not None:
        return twin
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as f:
            numbered = enumerate((ln.rstrip("\n") for ln in f), start=1)
            lines = ((n, ln) for n, ln in numbered if ln.strip() != "")
            head_no, head_line = next(lines, (0, None))
            if head_line is None:
                raise ValueError(f"{path}: empty file")
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
            chunks = []
            while rows := list(itertools.islice(lines, _CSV_ROWS)):
                chunks.append(_read_chunk(path, rows, length, dim))
    except UnicodeDecodeError:
        read_text(path)  # raises naming the line, unless the file changed since
        raise ValueError(f"{path}: not UTF-8 text") from None
    if not chunks:
        raise ValueError(f"{path}: no data rows")
    X = np.concatenate([chunk.X for chunk in chunks])
    y = np.concatenate([chunk.y for chunk in chunks])
    del chunks  # freed before LabeledDataset checks X
    return LabeledDataset(X, y)


def read_text(path: Union[str, Path]) -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped.  A byte
    that does not decode is refused as `<path>:<line>: not UTF-8 text
    (byte 0x..)`; no newline is translated."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}:{line}: not UTF-8 text (byte 0x{data[e.start]:02x})") from None


def _read_chunk(path, rows, length: int, dim: int) -> LabeledDataset:
    """A chunk of numbered lines: one np.loadtxt call, whose labels and
    values LabeledDataset checks, else `_parse_rows`."""
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
