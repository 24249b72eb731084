"""tools/bench.py, the writer of BENCH_<TAG>.json: which runs it asks
for and the file it makes of them, on canned result lines (no benchmark
runs)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = {
    "end_to_end": [{"name": "op_s", "unit": "s"}, {"name": "peak_rss_mb", "unit": "MB"}],
    "per_layer": [
        {"name": "stl.mcr_s", "unit": "s"},
        {"name": "network.temporal_s", "unit": "s"},
        {"name": "trace_overhead_ratio", "unit": "ratio"},
    ],
}


def canned_runner(calls: list):
    """Runs whose values are seed + trace / 10; a traced run reports
    network.temporal_s as 0.0 and lists it under absent, as run.py does
    for a function that no longer exists."""

    def runner(tree, workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        details = {"provenance": {"workload": workload, "trace": trace, "seed": seed}}
        kind = SPEC["per_layer" if trace else "end_to_end"]
        metrics = {m["name"]: {"value": seed + trace / 10, "unit": m["unit"]} for m in kind}
        if trace:
            details["absent"] = {"network.temporal_s": ["stlinfer.network.temporal_layer"]}
            metrics["network.temporal_s"]["value"] = 0.0
        result = {"correct": True, "attempted": 4, "failed": int(seed == 2), "metrics": metrics}
        return [json.dumps(details), json.dumps(result)]

    return runner


def test_every_workload_runs_untraced_and_traced_at_each_seed(tmp_path):
    calls = []
    paths = bench.run_all(["score-naval", "train-naval"], 2, 5.0, tmp_path, runner=canned_runner(calls))
    assert calls == [
        (workload, seed, 5.0, trace)
        for workload in ("score-naval", "train-naval")
        for trace in (0, 1)
        for seed in (1, 2)
    ]
    assert list(paths) == ["score-naval", "train-naval"]
    lines = [paths["score-naval"][trace].read_text(encoding="utf-8").splitlines() for trace in (0, 1)]
    assert [len(trace_lines) for trace_lines in lines] == [4, 4]
    assert [json.loads(line)["provenance"]["trace"] for line in lines[1][0::2]] == [1, 1]


def test_the_file_holds_medians_and_marks_absent_metrics_absent(tmp_path):
    paths = bench.run_all(["score-naval"], 3, 5.0, tmp_path, runner=canned_runner([]))
    host = {"numpy": "x", "simd_dispatched": ["X86_V4"]}
    out = bench.record(paths, 5.0, SPEC, host)
    assert out["machine"] == host and out["seconds"] == 5.0
    entry = out["workloads"]["score-naval"]

    def stats(unit, values):
        return {"unit": unit, "n": 3, "median": values[1], "q1": values[0], "q3": values[2],
                "spread": (values[2] - values[0]) / values[1]}

    assert entry["end_to_end"] == {
        "op_s": {**stats("s", [1.0, 2.0, 3.0]), "values": [1.0, 2.0, 3.0]},
        "peak_rss_mb": {**stats("MB", [1.0, 2.0, 3.0]), "values": [1.0, 2.0, 3.0]},
    }
    assert entry["per_layer"] == {
        "stl.mcr_s": stats("s", [1.1, 2.1, 3.1]),
        "network.temporal_s": {"absent": ["stlinfer.network.temporal_layer"]},
        "trace_overhead_ratio": stats("ratio", [1.1, 2.1, 3.1]),
    }
    assert entry["operations"] == {
        "trace 0": {"runs": 3, "attempted": 12, "failed": 1},
        "trace 1": {"runs": 3, "attempted": 12, "failed": 1},
    }
    json.dumps(out)


def test_the_machine_names_numpy_and_its_simd_targets():
    import numpy
    from numpy._core._multiarray_umath import __cpu_dispatch__

    host = bench.machine()
    assert host["numpy"] == numpy.__version__
    assert host["simd_baseline"] and set(host["simd_dispatched"]) <= set(__cpu_dispatch__)
    assert isinstance(host["nproc"], int)
