"""Workload definitions: inputs, the timed operation and its output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  An operation does what one CLI call
does through stlinfer's public API:

- train-*: `stlinfer train` = load_csv, train, emit_report;
- score-naval: `stlinfer eval --formula --model` = load_csv,
  parse_formula, mcr, load_model, network_mcr, sign_agreement.

The program sees only the CSV the set-up writes from --seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixture"

# Acceptance configs (tests/test_acceptance.py) minus the epoch count.
STOPGO_TRAIN = dict(batch_size=25, seed=0, lr=0.25, beta_start=3.0, beta_hold=0.5)
NAVAL_TRAIN = dict(batch_size=50, seed=0, lr=0.25, beta_start=3.0, beta_hold=0.5)
# A train operation runs a fixed, short epoch count so that it stays a
# repeatable unit of work however fast training becomes; the full-length
# trainings remain the acceptance tests' gates.
TRAIN_EPOCHS = 1
# 1.5 times the training set: whole-set (N, k, L) float64 arrays take
# 5.9 MB, beyond a 4 MiB L2, while one training batch (50 x 8 x 61) takes
# 195 kB.  Larger sets would not fit two eval operations into one run.
SCORE_COUNT = 1500


def score_data_seed(seed: int) -> int:
    # 101 is the acceptance held-out seed; the offset keeps the score set
    # apart from the fixture's training data (seed 0) for every --seed >= 0
    return 101 + seed


class TrainWorkload:
    """Repeated train operations on one generated training set."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed = name, seed
        self.csv = workdir / "train.csv"
        self.out = workdir / "run"
        self.first_bytes = None
        self.first_problems: list = []
        self.info: dict = {}

    def generate(self, st):
        if self.name == "train-stopgo":
            b = st.DrivingBehavior
            return st.gen_driving_pair(b.GO_FORWARD, b.STOP_AND_GO, 500, length=40, seed=self.seed)
        return st.gen_naval(1000, seed=self.seed)

    def config(self, st):
        base = STOPGO_TRAIN if self.name == "train-stopgo" else NAVAL_TRAIN
        return st.TrainConfig(epochs=TRAIN_EPOCHS, **base)

    def setup(self, st) -> None:
        data = self.generate(st)
        st.save_csv(data, self.csv)
        self.n, self.length, self.dim = len(data), data.length, data.dim

    def prepare(self, st) -> None:
        self.cfg = self.config(st)

    def samples_per_op(self) -> int:
        return self.n * self.cfg.epochs

    def op(self, st):
        data = st.load_csv(self.csv)
        report = st.train(data, self.cfg)
        st.emit_report(report, self.out)
        return data, report

    def work(self, result, wall_s: float):
        """(samples, seconds) of gradient steps, leaving out pruning."""
        _, report = result
        return self.samples_per_op(), sum(report.epoch_seconds)

    def check(self, st, result) -> list:
        data, report = result
        found = (self.out / "report.json").read_bytes()
        if self.first_bytes is None:
            self.first_bytes = found
            self.first_problems = self._check_guarantee(st, data, report)
        # The agreement check is a pure function of the report and the data,
        # so identical bytes carry the first operation's verdict over.
        elif found != self.first_bytes:
            return ["report.json bytes differ from the first operation's"]
        return list(self.first_problems)

    def _check_guarantee(self, st, data, report) -> list:
        snapped = report.params.snapped()
        extracted = st.parse_formula(report.formula_text)
        agree = st.sign_agreement(snapped, report.shape, report.config.activation(), extracted, data)
        params, shape, p = st.load_model(self.out / "report.json")
        pruned = st.parse_formula((self.out / "formula.txt").read_text(encoding="utf-8").strip())
        self.info = {
            "snapped_sign_agreement": agree,
            "eval_sign_agreement": st.sign_agreement(params, shape, p, pruned, data),
            "formula": report.simplified_text,
            "k": shape.k,
            "m": shape.m,
        }
        if agree != 1.0:
            return [f"snapped network and extracted formula agree on {agree!r}, not 1.0"]
        return []

    def describe(self) -> dict:
        return {
            "N": self.n,
            "L": self.length,
            "D": self.dim,
            "batch_size": self.cfg.batch_size,
            "epochs": self.cfg.epochs,
            "train_seed": self.cfg.seed,
            "data_seed": self.seed,
            **self.info,
        }


class ScoreWorkload:
    """Repeated eval operations of the fixed fixture model on a held-out set."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "score.csv"
        self.first = None
        self.errors: list = []
        self.info: dict = {}

    def setup(self, st) -> None:
        data = st.gen_naval(SCORE_COUNT, seed=score_data_seed(self.seed))
        st.save_csv(data, self.csv)
        self.fixture = json.loads((FIXTURE / "fixture.json").read_text(encoding="utf-8"))
        self.report = json.loads((FIXTURE / "report.json").read_text(encoding="utf-8"))
        self.n, self.length, self.dim = len(data), data.length, data.dim

    def prepare(self, st) -> None:
        """Reference values for the checks; the inputs are fixed per run."""
        data = st.load_csv(self.csv)
        params, shape, p = st.load_model(FIXTURE / "report.json")
        extracted = st.parse_formula(self.report["formula"])
        agree = st.sign_agreement(params.snapped(), shape, p, extracted, data)
        if agree != 1.0:
            self.errors.append(f"snapped network and extracted formula agree on {agree!r}, not 1.0")
        X = np.stack([sig.values for sig, _ in data])
        y = np.array([label for _, label in data])
        self.expected_mcr = reference_mcr(self.fixture["pruned_clauses"], X, y)
        recorded = self.fixture["formula_mcr"].get(str(self.seed))
        if recorded is not None and recorded != self.expected_mcr:
            self.errors.append(
                f"reference formula_mcr {self.expected_mcr!r} differs from the "
                f"fixture's recorded {recorded!r}"
            )
        self.info = {
            "snapped_sign_agreement": agree,
            "expected_formula_mcr": self.expected_mcr,
            "recorded_formula_mcr": recorded,
            "k": shape.k,
            "m": shape.m,
            "fixture_commit": self.fixture["commit"],
        }

    def samples_per_op(self) -> int:
        return 0

    def op(self, st):
        data = st.load_csv(self.csv)
        text = (FIXTURE / "formula.txt").read_text(encoding="utf-8").strip()
        formula = st.parse_formula(text)
        formula_mcr = st.mcr(data, formula)
        params, shape, p = st.load_model(FIXTURE / "report.json")
        network_mcr = st.network_mcr(params, shape, p, data)
        agreement = st.sign_agreement(params, shape, p, formula, data)
        return formula_mcr, network_mcr, agreement

    def work(self, result, wall_s: float):
        """(samples, seconds) of one eval operation."""
        return self.n, wall_s

    def check(self, st, result) -> list:
        errors = list(self.errors)
        if result[0] != self.expected_mcr:
            errors.append(f"formula_mcr {result[0]!r} != reference {self.expected_mcr!r}")
        if self.first is None:
            self.first = result
            self.info.update(formula_mcr=result[0], network_mcr=result[1], eval_sign_agreement=result[2])
        elif result != self.first:
            errors.append(f"outputs {result!r} differ from the first operation's {self.first!r}")
        return errors

    def describe(self) -> dict:
        return {
            "N": self.n,
            "L": self.length,
            "D": self.dim,
            "batch_size": None,
            "epochs": None,
            "data_seed": score_data_seed(self.seed),
            **self.info,
        }


def reference_mcr(clauses, X: np.ndarray, y: np.ndarray) -> float:
    """Exact misclassification rate of a DNF over windowed atoms, written
    independently of stlinfer.  Each atom is [op, t1, t2, axis, sign,
    offset]; robustness uses the same arithmetic as stl.robustness (sign *
    x - offset, then min or max), so the result must match bit for bit."""
    formula = None
    for clause in clauses:
        conj = None
        for op, t1, t2, axis, sign, offset in clause:
            row = sign * X[:, t1 : t2 + 1, axis] - offset
            atom = row.min(axis=1) if op == "G" else row.max(axis=1)
            conj = atom if conj is None else np.minimum(conj, atom)
        formula = conj if formula is None else np.maximum(formula, conj)
    wrong = (formula > 0.0) != (y == 1)
    return int(wrong.sum()) / len(y)


WORKLOADS = {
    "train-stopgo": TrainWorkload,
    "train-naval": TrainWorkload,
    "score-naval": ScoreWorkload,
}
