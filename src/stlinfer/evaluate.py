"""Model and formula evaluation plus report emission.

The network predicts the positive class when its output is strictly
positive; an output of exactly 0 counts as a negative prediction, the
same convention exact robustness uses for satisfaction.  Signals of
any other iterable than a LabeledDataset may differ in length.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Tuple, Union

import numpy as np

from .datasets import LabeledDataset
from .network import ActivationParams, ModelParams, NetworkShape, SlotSpec, network_outputs
from .stl import Formula, Signal, TemporalOp, batch_robustness, satisfies
from .trainer import TrainReport

__all__ = [
    "network_mcr",
    "sign_agreement",
    "emit_report",
    "load_model",
]


def _predictions(params, shape, p, samples, formula=None):
    """Labels, the network's verdicts (output > 0) and, given a formula,
    its verdicts (robustness > 0): batched over the X of a LabeledDataset,
    one signal at a time for any other iterable of (Signal, label)."""
    if isinstance(samples, LabeledDataset):
        if not len(samples):
            return samples.y, None, None
        net = network_outputs(samples.X, params, shape, p) > 0.0
        sat = None if formula is None else batch_robustness(samples.X, formula) > 0.0
        return samples.y, net, sat
    pairs = list(samples)
    y = np.array([label for _, label in pairs])
    net = np.array([network_outputs(s.values[None], params, shape, p)[0] > 0.0 for s, _ in pairs])
    sat = None if formula is None else np.array([satisfies(s, formula) for s, _ in pairs])
    return y, net, sat


def network_mcr(
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    samples: Iterable[Tuple[Signal, int]],
) -> float:
    """Misclassification rate of the network's output sign."""
    y, net, _ = _predictions(params, shape, p, samples)
    if not len(y):
        raise ValueError("cannot compute a misclassification rate on an empty dataset")
    return int(np.count_nonzero(net != (y == 1))) / len(y)


def sign_agreement(
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    formula: Formula,
    samples: Iterable[Tuple[Signal, int]],
) -> float:
    """Fraction of samples where the network's output sign matches the
    formula's exact robustness sign.

    With snapped parameters (integral windows, binary gates, slope <= 1)
    and activation parameters passing the soundness bound this is 1.0.
    """
    y, net, sat = _predictions(params, shape, p, samples, formula)
    if not len(y):
        raise ValueError("cannot compute sign agreement on an empty dataset")
    return int(np.count_nonzero(net == sat)) / len(y)


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


def load_model(path: Union[str, Path]) -> Tuple[ModelParams, NetworkShape, ActivationParams]:
    """Read back the parameters, shape and activation from a report.json.

    JSON as Python reads it admits NaN and Infinity; a non-finite
    parameter or activation value is refused with its field named.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        shape = NetworkShape(
            slots=tuple(
                SlotSpec(int(a), int(s), TemporalOp(op)) for a, s, op in payload["shape"]["slots"]
            ),
            m=int(payload["shape"]["m"]),
        )
        params = ModelParams(
            np.array(payload["params"]["b"], dtype=np.float64),
            np.array(payload["params"]["t1"], dtype=np.float64),
            np.array(payload["params"]["t2"], dtype=np.float64),
            np.array(payload["params"]["M"], dtype=np.float64),
        )
        act = {name: float(payload["activation"][name]) for name in ("beta", "h", "eps", "slope")}
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: not a valid model report: {e}") from None
    for name in ("b", "t1", "t2", "M"):
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"{path}: params.{name}: values must be finite")
    for name, value in act.items():
        if not math.isfinite(value):
            raise ValueError(f"{path}: activation.{name}: value must be finite")
    try:
        p = ActivationParams(**act)
    except ValueError as e:
        raise ValueError(f"{path}: not a valid model report: {e}") from None
    return params, shape, p
