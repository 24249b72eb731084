"""tools/bench_pairs.py, the parent-against-change benchmark comparison:
the order its pairs run in and the table it prints, on canned result
lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# op_s (lower is better) and samples_per_s (higher is better) per seed 1..4;
# the change wins pairs 1 and 4 of each, ties pair 2 and loses pair 3
CANNED = {
    "parent": {"op_s": [1.0, 2.0, 3.0, 4.0], "samples_per_s": [10.0, 10.0, 10.0, 10.0]},
    "change": {"op_s": [0.5, 2.0, 3.5, 3.0], "samples_per_s": [11.0, 10.0, 9.0, 12.0]},
}


def canned_runner(calls: list, canned: dict = CANNED):
    def runner(tree, workload, seed, seconds):
        side = tree.name
        calls.append((side, seed))
        details = {"provenance": {"workload": workload, "trace": 0, "seed": seed}}
        metrics = {
            name: {"value": values[seed - 1], "unit": "u"} for name, values in canned[side].items()
        }
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        return [json.dumps(details), json.dumps(result)]

    return runner


def test_pairs_alternate_which_side_runs_first(tmp_path):
    calls = []
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    lines = bench_pairs.run_pairs(trees, "score-naval", 4, 1.0, runner=canned_runner(calls))
    assert calls == [
        ("parent", 1), ("change", 1),
        ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3),
        ("change", 4), ("parent", 4),
    ]
    for side in bench_pairs.SIDES:
        seeds = [json.loads(line)["provenance"]["seed"] for line in lines[side][0::2]]
        assert seeds == [1, 2, 3, 4]


def canned_report(tmp_path, capsys, pairs: int, canned: dict = CANNED) -> list:
    """The lines `report` prints for canned runs of `pairs` seeds."""
    trees = {side: tmp_path / side for side in bench_pairs.SIDES}
    lines = bench_pairs.run_pairs(trees, "score-naval", pairs, 1.0, runner=canned_runner([], canned))
    paths = {}
    for side in bench_pairs.SIDES:
        paths[side] = tmp_path / f"{side}.jsonl"
        paths[side].write_text("".join(f"{line}\n" for line in lines[side]), encoding="utf-8")
    bench_pairs.report(paths["parent"], paths["change"])
    return capsys.readouterr().out.splitlines()


def test_the_table_counts_wins_and_the_parents_spread(tmp_path, capsys):
    out = canned_report(tmp_path, capsys, 4)
    assert out[0] == "score-naval trace=0: 4 pairs; failed operations 0/12 parent, 0/12 change"
    rows = {line.split()[0]: line.split()[1:] for line in out[2:4]}
    # medians; quartiles of 1, 2, 3, 4 are 1.25 and 3.75, so the spread is 2.5 / 2.5
    assert rows["op_s"] == ["2.5", "2.5", "100.0%", "2/4", "no"]
    assert rows["samples_per_s"] == ["10", "10.5", "0.0%", "2/4", "no"]
    # then summarize.py's verdicts
    assert out[4] == "score-naval trace=0: 4 runs vs 4 runs"
    assert out[5].split()[0] == "op_s" and out[5].endswith(" ok")


def test_a_gain_is_shown_by_nine_wins_in_ten_and_a_gap_past_the_spread(tmp_path, capsys):
    ten = [float(i) for i in range(10)]
    canned = {
        # quartiles of 1.00..1.09 are 1.0175 and 1.0725: the change wins
        # every pair, by 0.1 > 0.055
        "parent": {"op_s": [1.0 + i / 100 for i in ten], "samples_per_s": [100.0] * 10,
                   "peak_rss_mb": [40.0 + i for i in ten], "setup_s": [1.0] * 10},
        "change": {"op_s": [0.9 + i / 100 for i in ten], "samples_per_s": [120.0] * 8 + [90.0] * 2,
                   "peak_rss_mb": [39.0 + i for i in ten], "setup_s": [0.5] * 9 + [1.0]},
    }
    out = canned_report(tmp_path, capsys, 10, canned)
    assert out[1].split()[-2:] == ["gain", "shown"]
    rows = {line.split()[0]: line.split()[4:] for line in out[2:6]}
    assert rows == {
        "op_s": ["10/10", "yes"],
        # 8 wins in 10, however wide the gap
        "samples_per_s": ["8/10", "no"],
        # 10 wins in 10, but by 1 where the parent's quartiles lie 5.5 apart
        "peak_rss_mb": ["10/10", "no"],
        # 9 wins and a tie, by 0.5 past a spread of 0
        "setup_s": ["9/10", "yes"],
    }
