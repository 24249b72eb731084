"""Summarize saved benchmark runs: median, quartiles and spread per metric.

Each input file holds the last two stdout lines of runs of run.py (the
details line, then the result line), appended one run after another:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload train-naval --seed $s --seconds 25 --trace 0 | tail -2 >> runs.jsonl
    done
    python3 perfbench/summarize.py runs.jsonl

The spread is (q3 - q1) / median, with the quartiles from
statistics.quantiles(values, n=4), the figure each end-to-end bound in
BENCHMARK.json is compared with.

To compare two sets of runs, of one commit at two times or of two
commits, give the second set after --vs:

    python3 perfbench/summarize.py first.jsonl --vs second.jsonl

For each end-to-end metric this prints how much worse the second median
is than the first, as a share of the first, beside the metric's bound.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(paths):
    """{"<workload> trace=<t>": {"runs", "attempted", "failed", "metrics": {name: stats}}}"""
    groups = defaultdict(
        lambda: {"runs": 0, "attempted": 0, "failed": 0, "values": defaultdict(list), "units": {}}
    )
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        for details, result in zip(lines[0::2], lines[1::2]):
            prov = json.loads(details)["provenance"]
            res = json.loads(result)
            g = groups[(prov["workload"], prov["trace"])]
            g["runs"] += 1
            g["failed"] += res["failed"]
            g["attempted"] += res["attempted"]
            for name, m in res["metrics"].items():
                g["values"][name].append(m["value"])
                g["units"][name] = m["unit"]
    out = {}
    for (workload, trace), g in sorted(groups.items()):
        metrics = {}
        for name, values in g["values"].items():
            med = statistics.median(values)
            stats = {"unit": g["units"][name], "n": len(values), "median": med}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            metrics[name] = stats
        key = f"{workload} trace={trace}"
        out[key] = {k: g[k] for k in ("runs", "attempted", "failed")}
        out[key]["metrics"] = metrics
    return out


def compare(first, second):
    """Print the median shift of every end-to-end metric from first to second."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    a, b = summarize(first), summarize(second)
    for key in sorted(a.keys() & b.keys()):
        print(f"{key}: {a[key]['runs']} runs vs {b[key]['runs']} runs")
        for m in spec:
            if m["name"] not in a[key]["metrics"] or m["name"] not in b[key]["metrics"]:
                continue
            m1 = a[key]["metrics"][m["name"]]["median"]
            m2 = b[key]["metrics"][m["name"]]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            print(
                f"  {m['name']:16s} median {m1:<12.6g} -> {m2:<12.6g} "
                f"worse by {worse:+.3f} (bound {m['bound']}) {verdict}"
            )


def main(argv):
    if not argv or argv[0] == "--vs" or argv[-1] == "--vs":
        print(__doc__, file=sys.stderr)
        return 2
    if "--vs" in argv:
        i = argv.index("--vs")
        compare(argv[:i], argv[i + 1 :])
        return 0
    for key, g in summarize(argv).items():
        print(f"{key}: {g['runs']} runs, {g['failed']} of {g['attempted']} operations failed")
        for name, s in g["metrics"].items():
            spread = s.get("spread")
            spread_text = f"{spread:.3f}" if spread is not None else "-"
            q = f"q1 {s['q1']:.6g} q3 {s['q3']:.6g}" if "q1" in s else ""
            print(f"  {name:32s} median {s['median']:<12.6g} {q:30s} spread {spread_text} {s['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
