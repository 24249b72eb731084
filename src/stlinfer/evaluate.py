"""Model and formula evaluation plus report emission.

The evaluators take a LabeledDataset and read its X and y.  The network
predicts the positive class when its output is strictly positive; an
output of exactly 0 counts as a negative prediction, the same convention
exact robustness uses for satisfaction.  The formula's verdicts come from
`stl.satisfied`, the one exact evaluator.

`network_mcr` and `sign_agreement` read the network's signs through one
helper that keeps the last sign vector on the dataset, so `eval` with a
model and a formula runs the network once per model and dataset rather
than once per score.  The kept entry lives and dies with the dataset
object.  A dataset is read-only, so its key is the model alone: another
model recomputes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple, Union

import numpy as np

from .datasets import LabeledDataset, read_text
from .network import ActivationParams, ModelParams, NetworkShape, SlotSpec, network_outputs
from .stl import Formula, TemporalOp, satisfied
from .trainer import TrainReport

__all__ = [
    "network_mcr",
    "sign_agreement",
    "emit_report",
    "load_model",
]


def _check_windows(params: ModelParams, data: LabeledDataset) -> None:
    """Refuse a window that ends past the data's last step: the network
    would pool a truncated window, and the formula cannot be evaluated."""
    ends = np.ceil(params.t2)
    late = np.flatnonzero(ends > data.length - 1)
    if late.size:
        j = int(late[0])
        raise ValueError(
            f"slot {j}: window end ceil(t2) = {ends[j]:g} lies past the last step "
            f"{data.length - 1} of data of length {data.length}"
        )


def _network_signs(
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    data: LabeledDataset,
) -> np.ndarray:
    """The network's output sign (> 0) on every signal of `data`.

    The result is kept on the dataset, one entry, keyed on the parameter
    bytes, gate shape, network shape and activation; the dataset cannot
    change, so the key holds nothing of it.  A later call with an equal
    key returns it; any other recomputes.  The windows are checked on every
    call, and only a finished pass is kept, so an error is raised again on
    every call.
    """
    _check_windows(params, data)
    key = (params.flat.tobytes(), params.M.shape, shape, p)
    kept = data._signs
    if kept is not None and kept[0] == key:
        return kept[1]
    signs = network_outputs(data.X, params, shape, p) > 0.0
    signs.flags.writeable = False
    data._signs = (key, signs)
    return signs


def network_mcr(
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    data: LabeledDataset,
) -> float:
    """Misclassification rate of the network's output sign.  Raises
    ValueError for a window that ends past the data's last step."""
    if not len(data):
        raise ValueError("cannot compute a misclassification rate on an empty dataset")
    net = _network_signs(params, shape, p, data)
    return int(np.count_nonzero(net != (data.y == 1))) / len(data)


def sign_agreement(
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    formula: Formula,
    data: LabeledDataset,
) -> float:
    """Fraction of samples where the network's output sign matches the
    formula's exact robustness sign.

    With snapped parameters (integral windows, binary gates, slope <= 1)
    and activation parameters passing the soundness bound this is 1.0.
    Raises ValueError for a window that ends past the data's last step.
    """
    if not len(data):
        raise ValueError("cannot compute sign agreement on an empty dataset")
    net = _network_signs(params, shape, p, data)
    return int(np.count_nonzero(net == satisfied(data.X, formula))) / len(data)


def emit_report(report: TrainReport, outdir: Union[str, Path]) -> dict:
    """Write report.json (deterministic), curves.csv (with wall-clock
    seconds) and formula.txt (the pruned formula) into `outdir`."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

    report_path = out / "report.json"
    report_path.write_text(
        json.dumps(report.canonical_dict(), indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )

    curves_path = out / "curves.csv"
    rows = ["epoch,loss,mcr,seconds"]
    for e, (l, m, s) in enumerate(zip(report.losses, report.train_mcr, report.epoch_seconds)):
        rows.append(f"{e},{l!r},{m!r},{s:.6f}")
    curves_path.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")

    formula_path = out / "formula.txt"
    formula_path.write_text(report.simplified_text + "\n", encoding="utf-8", newline="\n")

    return {"report": report_path, "curves": curves_path, "formula": formula_path}


def _integer(path, field: str, value) -> int:
    """A JSON integer, or an integral float, as an int; anything else is
    refused with the field named."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{path}: {field} must be an integer, got {value!r}")


def load_model(path: Union[str, Path]) -> Tuple[ModelParams, NetworkShape, ActivationParams]:
    """Read back the parameters, shape and activation from a report.json.

    Read by `read_text`; text that is not JSON is refused with its path
    named.  A shape field that is not an integer (int() would truncate
    0.9 to 0), a parameter whose shape disagrees with the network shape,
    a non-finite parameter or activation value (JSON as Python reads it
    admits NaN and Infinity), and a window outside 0 <= t1 <= t2 (which
    training never leaves) are refused with the field named.
    """
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: not a valid model report: {e}") from None
    try:
        slots = [(a, s, TemporalOp(op)) for a, s, op in payload["shape"]["slots"]]
        m = payload["shape"]["m"]
        arrays = {
            name: np.array(payload["params"][name], dtype=np.float64)
            for name in ("b", "t1", "t2", "M")
        }
        act = {name: float(payload["activation"][name]) for name in ("beta", "h", "eps", "slope")}
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: not a valid model report: {e}") from None
    slots = [
        (_integer(path, f"shape.slots[{j}]: axis", a), _integer(path, f"shape.slots[{j}]: sign", s), op)
        for j, (a, s, op) in enumerate(slots)
    ]
    m = _integer(path, "shape.m", m)
    try:
        shape = NetworkShape(slots=tuple(SlotSpec(*slot) for slot in slots), m=m)
    except ValueError as e:
        raise ValueError(f"{path}: not a valid model report: {e}") from None
    k = shape.k
    want = {"b": (k,), "t1": (k,), "t2": (k,), "M": (m, k)}
    for name, array in arrays.items():
        if array.shape != want[name]:
            raise ValueError(
                f"{path}: params.{name}: shape {array.shape} does not match the "
                f"network shape's {want[name]} (k={k} slots, m={m} rows)"
            )
        if not np.isfinite(array).all():
            raise ValueError(f"{path}: params.{name}: values must be finite")
    t1, t2 = arrays["t1"], arrays["t2"]
    bad = np.flatnonzero((t1 < 0.0) | (t1 > t2))
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"{path}: params.t1[{j}]: window [{t1[j]:g}, {t2[j]:g}] must satisfy 0 <= t1 <= t2"
        )
    try:
        p = ActivationParams(**act)
    except ValueError as e:
        raise ValueError(f"{path}: not a valid model report: {e}") from None
    return ModelParams(**arrays), shape, p
