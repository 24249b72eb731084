"""stlinfer benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload train-naval --seed 0 --seconds 25 --trace 0

Workloads (see workloads.py): train-stopgo, train-naval, score-naval.
With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
holds the per-layer split from the outside-in tracer (layers.py), with
traced and untraced operations alternating so that the tracing overhead
is measured in the same run.  The line before the result is a JSON object
with provenance, workload shape and check details.  The exit code is 0
when a result was printed, also when an output check failed (that shows
as "correct": false).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# One process, no extra threads: pin BLAS before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from calibrate import Bracket  # noqa: E402
from layers import TARGETS, layer_metrics, op_layer_sum  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up runs this many times per run and reports the median.
SETUP_REPS = 5


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _fresh_import():
    """Import stlinfer as a first-time user would (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "stlinfer" or n.startswith("stlinfer.")]:
        del sys.modules[name]
    return importlib.import_module("stlinfer")


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args, workload):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **workload.describe(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "stlinfer" / "__init__.py").is_file():
        print(f"error: no stlinfer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        workload = WORKLOADS[args.workload](args.workload, args.seed, workdir)
        tracer = Tracer() if args.trace else None
        result = _run(args, workload, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result["details"], sort_keys=True))
    print(json.dumps(result["line"]))
    return 0


def _run(args, workload, tracer):
    setup_cal = Bracket()
    setup_raw = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        if tracer is None:
            st = _fresh_import()
            workload.setup(st)
        else:
            with tracer.root("setup"):
                st = _fresh_import()
                tracer.install(TARGETS)
                workload.setup(st)
        setup_raw.append(perf_counter() - t0)
        setup_cal.add(setup_raw[-1])
    setup_cal.close()
    setup_s = [raw * f for raw, f in zip(setup_raw, setup_cal.factors)]
    workload.prepare(st)

    attempted = failed = 0
    ops = []  # (traced, raw seconds, interval index, samples, work seconds) per good operation
    errors = []
    spent = 0.0  # seconds inside operations, the measured time
    op_cal = Bracket()
    while spent < args.seconds:
        traced = tracer is not None and attempted % 2 == 0
        attempted += 1
        t0 = perf_counter()
        try:
            if traced:
                with tracer.root("op"):
                    out = workload.op(st)
            else:
                out = workload.op(st)
            problems = None
        except Exception:  # an operation that raises counts as failed
            problems = [traceback.format_exc()]
        wall = perf_counter() - t0
        spent += wall
        index = op_cal.add(wall)
        if problems is None:
            try:
                problems = workload.check(st, out)
            except Exception:
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            errors.extend(problems)
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            continue
        ops.append((traced, wall, index, *workload.work(out, wall)))
    op_cal.close()

    walls = {True: [], False: []}  # traced? -> scaled operation seconds
    rates = []  # samples per scaled work second, per untraced operation
    for traced, wall, index, n, work_s in ops:
        walls[traced].append(wall * op_cal.factors[index])
        if not traced:
            rates.append(n / (work_s * op_cal.factors[index]))
    details = {
        "provenance": _provenance(args, workload),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": errors[:5],
        "setup_s_all": setup_s,
        "setup_s_raw": setup_raw,
        "op_s_all": walls[False] + walls[True],
        "op_s_raw": [wall for _, wall, _, _, _ in ops],
        "samples_per_s_all": rates,
        "micro_pass_s": {"setup": setup_cal.speeds, "ops": op_cal.speeds},
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_s": (_median(walls[False]), "s"),
            "samples_per_s": (_median(rates), "samples/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        values, absent = layer_metrics(tracer, workload.samples_per_op())
        ratio = _median(walls[True]) / _median(walls[False]) if walls[False] else 0.0
        values["trace_overhead_ratio"] = (ratio, "ratio")
        metrics = values
        details["absent"] = absent
        traced_raw = [wall for traced, wall, _, _, _ in ops if traced]
        details["trace_check"] = {
            "op_layers_self_s": op_layer_sum(values),
            "op_glue_s": tracer.self_s[("op", "op")] / max(tracer.roots["op"], 1),
            "traced_op_mean_raw_s": statistics.fmean(traced_raw) if traced_raw else None,
        }
    line = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return {"details": details, "line": line}


def _median(values):
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(main())
