"""Compare perfbench's end-to-end metrics of REV and of the working tree
in alternating pairs of runs.

    python3 tools/bench_pairs.py [REV] [--workload NAME ...] [--pairs N]
                                 [--seconds S] [--out DIR]

REV (default HEAD) is the parent: its `src/`, `perfbench/` and
`BENCHMARK.json` are taken with `git archive` into a temporary directory,
as tools/same_bits.py does.  The working tree is the change.  For each
workload (default: every one BENCHMARK.json lists) and each seed 1..N
(default 10), `perfbench/run.py --trace 0` runs for S seconds (default
BENCHMARK.json's `run_seconds`) once in each tree; the parent runs first in odd pairs, the change in
even ones, so that a drift of the machine over time favours neither.

The two result lines of each run go to `<workload>-parent.jsonl` and
`<workload>-change.jsonl` in DIR (default: a temporary directory), the
format perfbench/summarize.py reads.  For each end-to-end metric this
prints both medians, the parent's interquartile range as a share of its
median, in how many pairs the change did better (ties count for
neither side), and whether that shows a gain: yes when the change wins at
least 9 in 10 of the pairs and its median beats the parent's by more than
the parent's interquartile range.  Then the bound verdict of
summarize.py's `compare`.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "tools"))

from same_bits import extract  # noqa: E402
from summarize import BENCHMARK, compare, summarize  # noqa: E402

SIDES = ("parent", "change")


def _spec() -> dict:
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> list:
    """The details and result lines of one untraced perfbench run in `tree`."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=tree, capture_output=True, text=True
    )
    if done.returncode:
        raise RuntimeError(f"perfbench/run.py {' '.join(args)} in {tree} failed:\n{done.stderr}")
    return done.stdout.splitlines()[-2:]


def run_pairs(trees: dict, workload: str, pairs: int, seconds: float, runner=run_perfbench) -> dict:
    """{side: the lines of its runs, seed by seed} over `pairs` alternating pairs."""
    lines = {side: [] for side in SIDES}
    for seed in range(1, pairs + 1):
        for side in SIDES if seed % 2 else SIDES[::-1]:
            lines[side] += runner(trees[side], workload, seed, seconds)
    return lines


def _values(path: Path, name: str) -> list:
    """The values of metric `name` in a file of runs, run by run."""
    results = path.read_text(encoding="utf-8").splitlines()[1::2]
    return [json.loads(line)["metrics"][name]["value"] for line in results]


def report(parent: Path, change: Path) -> None:
    """Print the per-metric table of two files of paired runs, then the
    bound verdicts."""
    (key, a), = summarize([parent]).items()
    (_, b), = summarize([change]).items()
    print(f"{key}: {a['runs']} pairs; failed operations {a['failed']}/{a['attempted']} "
          f"parent, {b['failed']}/{b['attempted']} change")
    print(f"  {'metric':16s} {'parent':>12s} {'change':>12s} {'parent IQR':>11s} {'change wins':>12s} "
          f"{'gain shown':>11s}")
    for m in _spec()["end_to_end"]:
        name = m["name"]
        if name not in a["metrics"] or name not in b["metrics"]:
            continue
        pa, pb = _values(parent, name), _values(change, name)
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(pa, pb))
        stats = a["metrics"][name]
        iqr = f"{stats['spread']:.1%}" if stats.get("spread") is not None else "-"
        gain = sign * (stats["median"] - b["metrics"][name]["median"])
        shown = 10 * wins >= 9 * len(pa) and "q1" in stats and gain > stats["q3"] - stats["q1"]
        print(f"  {name:16s} {stats['median']:>12.6g} {b['metrics'][name]['median']:>12.6g} "
              f"{iqr:>11s} {f'{wins}/{len(pa)}':>12s} {'yes' if shown else 'no':>11s}")
    compare([parent], [change])


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", default="HEAD")
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", action="append", choices=workloads)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if not extract(args.rev, ["src", "perfbench", "BENCHMARK.json"], tmp / "rev"):
            return 2
        out = args.out or tmp / "runs"
        out.mkdir(parents=True, exist_ok=True)
        trees = {"parent": tmp / "rev", "change": ROOT}
        for workload in args.workload or workloads:
            lines = run_pairs(trees, workload, args.pairs, args.seconds)
            paths = {side: out / f"{workload}-{side}.jsonl" for side in SIDES}
            for side, path in paths.items():
                path.write_text("".join(f"{line}\n" for line in lines[side]), encoding="utf-8")
            report(paths["parent"], paths["change"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
