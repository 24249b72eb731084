"""Model and formula evaluation plus report emission.

The network predicts the positive class when its output is strictly
positive; an output of exactly 0 counts as a negative prediction, the
same convention exact robustness uses for satisfaction.  Both the
network and the formula are evaluated batched, CHUNK samples at a time.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Tuple, Union

import numpy as np

from .network import ActivationParams, ModelParams, NetworkShape, SlotSpec, network_outputs
from .stl import Formula, Signal, TemporalOp, batch_robustness, signal_chunks
from .trainer import TrainReport

__all__ = [
    "network_mcr",
    "sign_agreement",
    "emit_report",
    "load_model",
]


def network_mcr(
    params: ModelParams,
    shape: NetworkShape,
    p: ActivationParams,
    samples: Iterable[Tuple[Signal, int]],
) -> float:
    """Misclassification rate of the network's output sign."""
    n = 0
    wrong = 0
    for X, y in signal_chunks(samples):
        out = network_outputs(X, params, shape, p)
        wrong += int(np.count_nonzero((out > 0.0) != (y == 1)))
        n += len(y)
    if n == 0:
        raise ValueError("cannot compute a misclassification rate on an empty dataset")
    return wrong / n


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
    n = 0
    agree = 0
    for X, _ in signal_chunks(samples):
        out = network_outputs(X, params, shape, p)
        rob = batch_robustness(X, formula)
        agree += int(np.count_nonzero((out > 0.0) == (rob > 0.0)))
        n += len(out)
    if n == 0:
        raise ValueError("cannot compute sign agreement on an empty dataset")
    return agree / n


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
        act = payload["activation"]
        p = ActivationParams(
            beta=float(act["beta"]),
            h=float(act["h"]),
            eps=float(act["eps"]),
            slope=float(act["slope"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: not a valid model report: {e}") from None
    for name in ("b", "t1", "t2", "M"):
        if not np.isfinite(getattr(params, name)).all():
            raise ValueError(f"{path}: params.{name}: values must be finite")
    for name in ("beta", "h", "eps", "slope"):
        if not math.isfinite(getattr(p, name)):
            raise ValueError(f"{path}: activation.{name}: value must be finite")
    return params, shape, p
