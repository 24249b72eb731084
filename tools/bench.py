"""Write BENCH_<TAG>.json: perfbench's end-to-end and per-layer metrics
of the working tree, and the machine they were measured on, in one file.

    python3 tools/bench.py TAG

For each workload BENCHMARK.json lists, `perfbench/run.py` runs as it
is, RUNS times (seeds 1..RUNS) with `--trace 0` and RUNS times with
`--trace 1`, each for BENCHMARK.json's `run_seconds`.  The lines of each
workload's runs at each trace go to one file in a temporary directory,
which perfbench/summarize.py's `summarize` reads.  BENCH_<TAG>.json, at
the repository root, then holds per workload:

- `end_to_end`: summarize's statistics (unit, n, median, quartiles,
  spread) of each end-to-end metric over the untraced runs, with the run
  values;
- `per_layer`: summarize's statistics of each per-layer metric over the
  traced runs, or, for a metric that a traced run's details line lists
  under `absent`, `{"absent": [the functions it misses]}`, not the 0.0
  its result line reports;
- `operations`: the runs and the operations attempted and failed,
  untraced and traced;

and under `machine` numpy's version, its baseline SIMD targets and the
dispatch targets this CPU runs (report bytes depend on them, through
`np.exp`), the CPU count and Python's version.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import _spec, _values, run_perfbench  # noqa: E402
from summarize import summarize  # noqa: E402

TRACES = (0, 1)
RUNS = 3


def machine() -> dict:
    """numpy's version and SIMD targets, the CPU count and Python's version."""
    import numpy
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    return {
        "numpy": numpy.__version__,
        "simd_baseline": list(__cpu_baseline__),
        "simd_dispatched": [name for name in __cpu_dispatch__ if __cpu_features__.get(name)],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def run_all(workloads: list, runs: int, seconds: float, out: Path, runner=run_perfbench) -> dict:
    """Run each workload untraced and traced at seeds 1..`runs`; write the
    details and result lines of each (workload, trace) to a file in `out`.
    {workload: {trace: that file}}."""
    paths = {}
    for workload in workloads:
        paths[workload] = {}
        for trace in TRACES:
            lines = []
            for seed in range(1, runs + 1):
                lines += runner(ROOT, workload, seed, seconds, trace)
            path = paths[workload][trace] = out / f"{workload}-trace{trace}.jsonl"
            path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return paths


def record(paths: dict, seconds: float, spec: dict, host: dict) -> dict:
    """The BENCH file's content from `run_all`'s files."""
    workloads = {}
    for workload, by_trace in paths.items():
        entry = {"operations": {}}
        for trace, kind in zip(TRACES, ("end_to_end", "per_layer")):
            path = by_trace[trace]
            group = summarize([path])[f"{workload} trace={trace}"]
            details = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[0::2]]
            absent = {name: missing for d in details for name, missing in d.get("absent", {}).items()}
            entry[kind] = {}
            for name in (m["name"] for m in spec[kind]):
                if name in absent:
                    entry[kind][name] = {"absent": absent[name]}
                elif name in group["metrics"]:
                    entry[kind][name] = group["metrics"][name]
                    if trace == 0:
                        entry[kind][name]["values"] = _values(path, name)
            entry["operations"][f"trace {trace}"] = {k: group[k] for k in ("runs", "attempted", "failed")}
        workloads[workload] = entry
    return {"machine": host, "seconds": seconds, "workloads": workloads}


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tag")
    tag = ap.parse_args(argv).tag
    spec = _spec()
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        paths = run_all([w["name"] for w in spec["workloads"]], RUNS, seconds, Path(tmp))
        content = record(paths, seconds, spec, machine())
    path = ROOT / f"BENCH_{tag}.json"
    path.write_text(json.dumps(content, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
