"""Rebuild the score-naval model fixture.

Trains the naval acceptance configuration (40 epochs) on gen_naval(1000,
seed=0), keeps the resulting report.json and formula.txt under
perfbench/fixture/, and records in fixture.json how they were made, the
pruned formula as a clause list, and the pruned formula's
exact misclassification rate on the score set of every seed in
0..EXPECTED_SEEDS-1.  Run from the repository root:

    python3 perfbench/make_fixture.py

The fixture is kept fixed so that a trainer change never alters the
inputs of the score-naval workload; rebuild it only on purpose.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import stlinfer as st  # noqa: E402

from workloads import NAVAL_TRAIN, SCORE_COUNT, score_data_seed  # noqa: E402

FIXTURE = HERE / "fixture"
TRAIN_SEED = 0
EXPECTED_SEEDS = 256


def _clauses(text):
    """[[op, t1, t2, axis, sign, offset], ...] per clause of a DNF formula."""
    return [
        [[a.op.value, a.t1, a.t2, a.child.axis, a.child.sign, a.child.offset] for a in clause]
        for clause in st.dnf_clauses(st.parse_formula(text))
    ]


def main():
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    report = st.train(st.gen_naval(1000, seed=TRAIN_SEED), st.TrainConfig(epochs=40, **NAVAL_TRAIN))
    paths = st.emit_report(report, FIXTURE)
    paths["curves"].unlink()  # wall-clock seconds; not a fixture
    pruned = st.parse_formula(report.simplified_text)
    expected = {
        str(seed): st.mcr(st.gen_naval(SCORE_COUNT, seed=score_data_seed(seed)), pruned)
        for seed in range(EXPECTED_SEEDS)
    }
    meta = {
        "command": "python3 perfbench/make_fixture.py",
        "commit": commit,
        "train_data": f"gen_naval(1000, seed={TRAIN_SEED})",
        "score_data": f"gen_naval({SCORE_COUNT}, seed=101 + <--seed>)",
        "pruned_clauses": _clauses(report.simplified_text),
        "formula_mcr": expected,
    }
    (FIXTURE / "fixture.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
    print(f"pruned formula: {report.simplified_text}")
    print(f"formula_mcr at seed 0: {expected['0']!r}")


if __name__ == "__main__":
    main()
