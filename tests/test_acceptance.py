"""Acceptance gate: every guarantee the package advertises, checked at
full scale with one printed pass/fail line per property.

Run with `pytest tests/test_acceptance.py -s` to see the lines; this is
the slow part of the suite (about 15 s on a 2-vCPU machine, most of it
the robustness identities, the benchmark trainings and the sign-soundness
sweep).
"""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import stlinfer
from stlinfer.cli import main
from stlinfer.datasets import DrivingBehavior, gen_driving_pair, gen_naval
from stlinfer.evaluate import emit_report, sign_agreement
from stlinfer.network import (
    ActivationParams,
    ModelParams,
    NetworkShape,
    _softmax_rows,
    network_outputs,
    network_pass,
    soundness_bound_check,
)
from stlinfer.stl import (
    And,
    Or,
    Predicate,
    Signal,
    TemporalAtom,
    TemporalOp,
    format_formula,
    mcr,
    parse_formula,
    robustness,
)
from stlinfer.trainer import TrainConfig, train

from util import (
    count_atoms,
    random_dnf,
    random_signal,
    time_indicator_values,
)


def _announce(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# benchmark fixtures (trained once, shared by several checks)

DRIVING_SETUPS = {
    "GoForward-vs-Overtake": (
        DrivingBehavior.OVERTAKE,
        TrainConfig(epochs=40, batch_size=50, seed=0, lr=0.3, beta_start=3.0, beta_hold=0.5),
        0.02,
    ),
    "GoForward-vs-StopAndGo": (
        DrivingBehavior.STOP_AND_GO,
        TrainConfig(epochs=60, batch_size=25, seed=0, lr=0.25, beta_start=3.0, beta_hold=0.5),
        0.05,
    ),
}


@pytest.fixture(scope="module")
def driving_runs():
    runs = {}
    for name, (neg, cfg, _) in DRIVING_SETUPS.items():
        data = gen_driving_pair(DrivingBehavior.GO_FORWARD, neg, 500, seed=0)
        held = gen_driving_pair(DrivingBehavior.GO_FORWARD, neg, 200, seed=101)
        t0 = perf_counter()
        report = train(data, cfg)
        runs[name] = (report, data, held, perf_counter() - t0)
    return runs


NAVAL_CONFIG = TrainConfig(epochs=40, batch_size=50, seed=0, lr=0.25, beta_start=3.0, beta_hold=0.5)


@pytest.fixture(scope="module")
def naval_run():
    data = gen_naval(1000, seed=0)
    held = gen_naval(400, seed=101)
    t0 = perf_counter()
    report = train(data, NAVAL_CONFIG)
    return report, data, held, perf_counter() - t0


# ---------------------------------------------------------------------------
# 1. sign soundness of the sparse activations


def test_sign_soundness_sweep():
    rng = np.random.default_rng(11)
    n = 100_000
    # bound-passing activation configs; sound at length 100 covers all
    # shorter vectors because the bound's right side grows with length
    configs = []
    while len(configs) < 64:
        p = ActivationParams(
            beta=float(rng.uniform(3.0, 40.0)), h=float(rng.uniform(0.5, 2.0))
        )
        if soundness_bound_check(p, 100):
            configs.append(p)
    lengths = rng.integers(2, 101, size=n)
    t0 = perf_counter()
    # vector i uses config i % 64; vectors sharing a config and a length
    # go through the batched softmax together, one row each
    groups: dict = {}
    for i in range(n):
        l = int(lengths[i])
        if i % 4 == 3:
            # adversarial: near-zero magnitudes of mixed sign, some exact zeros
            r = rng.uniform(-1e-3, 1e-3, l)
            r[rng.random(l) < 0.3] = 0.0
        else:
            r = rng.uniform(-10.0, 10.0, l)
        w = (rng.random(l) < 0.5).astype(np.float64)
        if not w.any():
            w[int(rng.integers(l))] = 1.0
        groups.setdefault((i % len(configs), l), []).append((r, w))
    fails = 0
    checked = 0
    for (c, _), vectors in groups.items():
        r, w = (np.array(rows) for rows in zip(*vectors))
        p = configs[c]
        hi = r.max(axis=1, where=w > 0.0, initial=-np.inf)
        lo = r.min(axis=1, where=w > 0.0, initial=np.inf)
        # softmin(r) = -softmax(-r)
        for out, extremum in ((_softmax_rows(r, w, p, {}, "temporal")[0], hi), (-_softmax_rows(-r, w, p, {}, "temporal")[0], lo)):
            nonzero = extremum != 0.0
            checked += int(np.count_nonzero(nonzero))
            fails += int(np.count_nonzero(((out > 0.0) != (extremum > 0.0)) & nonzero))
    elapsed = perf_counter() - t0
    _announce(
        "sparse max/min keep the exact extremum's sign",
        fails == 0 and elapsed < 30.0,
        f"{n} vectors, {checked} nonzero-extremum checks, {fails} failures, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. forward gradients match finite differences at smooth points


def _fd_output(values, params, shape, p, group, j, delta):
    q = ModelParams(params.b, params.t1, params.t2, params.M)
    getattr(q, group)[j] += delta
    return network_outputs(values[None], q, shape, p)[0]


def test_forward_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    p = ActivationParams(beta=10.0, slope=1.0)
    step = 1e-5
    worst = 0.0
    t0 = perf_counter()
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        length = int(rng.integers(6, 11))
        shape = NetworkShape.cycled(dim, m=int(rng.integers(1, 3)))
        # windows fractional so the trapezoid shoulders are locally linear;
        # gates far from 0.5 so thresholding cannot flip under perturbation
        a = rng.integers(0, length - 2, shape.k)
        t1 = a + rng.uniform(0.25, 0.75, shape.k)
        tb = np.array([rng.integers(int(x) + 1, length - 1) for x in a])
        t2 = tb + rng.uniform(0.25, 0.75, shape.k)
        M = np.where(rng.random((shape.m, shape.k)) < 0.5, 0.1, 0.9)
        M[0, 0] = 0.9
        params = ModelParams(rng.uniform(-2.0, 2.0, shape.k), t1, t2, M)
        values = rng.uniform(-4.0, 4.0, (length, dim))

        grads = network_pass(values[None], params, shape, p).vjp(np.ones(1))
        for group in ("b", "t1", "t2"):
            for j in range(shape.k):
                an = float(getattr(grads, group)[j])
                hi = _fd_output(values, params, shape, p, group, j, step)
                lo = _fd_output(values, params, shape, p, group, j, -step)
                fd = (hi - lo) / (2.0 * step)
                rel = abs(fd - an) / max(1.0, abs(an), abs(fd))
                worst = max(worst, rel)
    elapsed = perf_counter() - t0
    _announce(
        "window and offset gradients match central differences",
        worst <= 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.2e} over 100 points, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. the time indicator is exactly binary on integral windows


def test_time_indicator_is_exact():
    got = time_indicator_values(4.0, 8.0, 1.0, 12)
    want = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 0, 0, 0], dtype=np.float64)
    _announce(
        "trapezoid window indicator is exactly binary on integer bounds",
        np.array_equal(got, want),
        f"window [4,8] over 12 steps -> {got.astype(int).tolist()}",
    )


# ---------------------------------------------------------------------------
# 4. driving benchmarks learn accurate formulas


def test_driving_benchmarks_learn_accurate_formulas(driving_runs):
    details = []
    ok = True
    total = 0.0
    for name, (_, cfg, limit) in DRIVING_SETUPS.items():
        report, data, _, secs = driving_runs[name]
        simplified = parse_formula(report.simplified_text)
        rate = mcr(data, simplified)
        ok = ok and rate <= limit
        total += secs
        details.append(f"{name}: mcr {rate:.3f} (limit {limit}), {secs:.0f}s")
    ok = ok and total < 300.0
    _announce(
        "driving pairs classified by the pruned formulas",
        ok,
        "; ".join(details) + f"; total {total:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. naval benchmark learns a compact formula


def test_naval_benchmark_learns_compact_formula(naval_run):
    report, data, _, secs = naval_run
    simplified = parse_formula(report.simplified_text)
    rate = mcr(data, simplified)
    atoms = count_atoms(simplified)
    _announce(
        "naval anomalies separated by at most two atoms",
        rate <= 0.02 and atoms <= 2 and secs < 300.0,
        f"mcr {rate:.3f}, {atoms} atoms, {secs:.0f}s, formula {report.simplified_text!r}",
    )


# ---------------------------------------------------------------------------
# 6. the snapped network and the extracted formula agree in sign


def test_network_and_formula_signs_agree_everywhere(driving_runs, naval_run):
    cases = [(name, driving_runs[name]) for name in DRIVING_SETUPS]
    cases.append(("naval", naval_run))
    worst = 1.0
    for _, (report, data, held, _) in cases:
        snapped = report.params.snapped()
        p = report.config.activation()
        formula = parse_formula(report.formula_text)
        for samples in (data, held):
            worst = min(worst, sign_agreement(snapped, report.shape, p, formula, samples))
    _announce(
        "snapped network sign equals exact robustness sign",
        worst == 1.0,
        f"agreement {worst} across 3 models, train and held-out",
    )


# ---------------------------------------------------------------------------
# 7. pruning never hurts training accuracy


def test_pruning_never_hurts_training_accuracy(driving_runs, naval_run):
    cases = [(name, driving_runs[name]) for name in DRIVING_SETUPS]
    cases.append(("naval", naval_run))
    details = []
    ok = True
    for name, (report, data, _, _) in cases:
        before = mcr(data, parse_formula(report.formula_text))
        after = mcr(data, parse_formula(report.simplified_text))
        ok = ok and after <= before
        details.append(f"{name}: {before:.3f} -> {after:.3f}")
    _announce("pruning keeps or lowers the training error", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 8. robustness identities hold exactly


def test_robustness_identities_hold_exactly():
    rng = np.random.default_rng(13)
    fails = 0
    for _ in range(10_000):
        dim = int(rng.integers(1, 4))
        length = int(rng.integers(2, 16))
        sig = random_signal(rng, length, dim)

        f = random_dnf(rng, dim, length)
        negated = parse_formula(f"!({format_formula(f)})")
        if robustness(sig, negated, 0) != -robustness(sig, f, 0):
            fails += 1

        t1 = int(rng.integers(0, length))
        t2 = int(rng.integers(t1, length))
        pa = Predicate(int(rng.integers(dim)), 1, float(rng.uniform(-2, 2)))
        pb = Predicate(int(rng.integers(dim)), -1, float(rng.uniform(-2, 2)))
        ev_joined = TemporalAtom(TemporalOp.EVENTUALLY, t1, t2, Or((pa, pb)))
        ev_split = Or((
            TemporalAtom(TemporalOp.EVENTUALLY, t1, t2, pa),
            TemporalAtom(TemporalOp.EVENTUALLY, t1, t2, pb),
        ))
        if robustness(sig, ev_joined, 0) != robustness(sig, ev_split, 0):
            fails += 1
        al_joined = TemporalAtom(TemporalOp.ALWAYS, t1, t2, And((pa, pb)))
        al_split = And((
            TemporalAtom(TemporalOp.ALWAYS, t1, t2, pa),
            TemporalAtom(TemporalOp.ALWAYS, t1, t2, pb),
        ))
        if robustness(sig, al_joined, 0) != robustness(sig, al_split, 0):
            fails += 1
    _announce(
        "negation flips robustness and temporal operators distribute exactly",
        fails == 0,
        f"10000 random formula/signal pairs, {fails} mismatches",
    )


# ---------------------------------------------------------------------------
# 9. training runs are byte-reproducible


def _repro_inputs(root):
    """The data and the 6-epoch config the reproducibility tests train."""
    csv = root / "pair.csv"
    rc = main([
        "generate", "--scenario", "driving", "--behaviors", "GoForward,Overtake",
        "--count", "60", "--seed", "3", "--out", str(csv),
    ])
    assert rc == 0
    cfg = root / "train.cfg"
    cfg.write_text(
        "epochs = 6\nbatch_size = 20\nlr = 0.3\nbeta_start = 3.0\nseed = 4\n",
        encoding="utf-8",
    )
    return csv, cfg


def test_training_is_byte_reproducible(tmp_path_factory):
    root = tmp_path_factory.mktemp("repro")
    csv, cfg = _repro_inputs(root)
    outs = []
    for sub in ("first", "second"):
        out = root / sub
        rc = main(["train", "--data", str(csv), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    same_report = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    same_formula = (outs[0] / "formula.txt").read_bytes() == (outs[1] / "formula.txt").read_bytes()
    _announce(
        "identical seed and config reproduce the report byte for byte",
        same_report and same_formula,
        "report.json and formula.txt compared",
    )


# ---------------------------------------------------------------------------
# 10. golden digests: the three models' bytes do not move unnoticed
#
# numpy's float64 exp differs by 1 ulp between its SIMD kernels, and
# training turns that into another model, so the digests hold at one
# dispatch level.  A change that moves these bytes on purpose records the
# new digests here and in CHANGES.md.

GOLDEN_LEVEL = "X86_V4"
GOLDEN = {
    "GoForward-vs-Overtake": {
        "report.json": "e6b7e7116b0a0f5d17b3d9fcdfa1df5d75b284d1c995af7e87df76e4d1eadd17",
        "formula.txt": "373abf4c30c3fedbf50d6219eca9447a80273676d3b0f585a7f12ee0df5a1348",
        "formula_text": "1aa520d7f19ae079f66108c7df246f6d602c3e2cd69cb0d4bb68ec2da439c807",
    },
    "GoForward-vs-StopAndGo": {
        "report.json": "a4775d49e674c037f8f1ec27eff6d261c24adf54e03be0444e4b90c473d9675f",
        "formula.txt": "fc6a01a885346cadf1e06ecdc2e42443a08541b82da64b3b7f3863e833866d89",
        "formula_text": "fdaeef5278499a16e450c63c0ea23f0939ee3b4a59c4621ba117f0bac318b3fd",
    },
    "naval": {
        "report.json": "574b7c821f54ed388f7ed41e61c8e239ae0f5a955cc2e60544ff86728a910bd7",
        "formula.txt": "48899e7875b77c5704ca1db0474395a14a783a4cad6ea40404212fa3f0fc843e",
        "formula_text": "7095b623b143d40f3444ba64308ca44de8fa8283cc8c5a7a4504e8b585e95bb3",
    },
}


def _simd_level() -> str:
    """The highest x86-64 level (X86_V2, X86_V3, X86_V4) numpy dispatches
    to in this process, or "none"."""
    from numpy._core._multiarray_umath import __cpu_features__

    levels = sorted(name for name, on in __cpu_features__.items() if name.startswith("X86_V") and on)
    return levels[-1] if levels else "none"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_models_match_their_golden_digests(driving_runs, naval_run, tmp_path):
    level = _simd_level()
    if level != GOLDEN_LEVEL:
        pytest.skip(
            f"golden digests were taken at numpy SIMD level {GOLDEN_LEVEL}, "
            f"this process runs at {level}, whose exp bits differ"
        )
    reports = {name: run[0] for name, run in driving_runs.items()}
    reports["naval"] = naval_run[0]
    digests = {}
    for name, report in reports.items():
        files = emit_report(report, tmp_path / name)
        digests[name] = {
            "report.json": _sha256(files["report"].read_bytes()),
            "formula.txt": _sha256(files["formula"].read_bytes()),
            "formula_text": _sha256(report.formula_text.encode("utf-8")),
        }
    _announce(
        "report.json and formula texts of the three models match their golden digests",
        digests == GOLDEN,
        f"numpy SIMD level {level}",
    )


# ---------------------------------------------------------------------------
# 11. the same bytes with numpy's AVX-512 kernels off, as on a CPU without them

AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.xfail(
    _simd_level() == GOLDEN_LEVEL,
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 8: numpy's AVX-512 exp differs from its AVX2 exp by 1 ulp, "
    "and training turns that into other report bytes",
)
def test_training_is_byte_reproducible_without_avx512(tmp_path):
    level = _simd_level()
    if level != GOLDEN_LEVEL:
        pytest.skip(
            f"this process runs at numpy SIMD level {level}, not {GOLDEN_LEVEL}: "
            "with AVX-512 off a run takes the same kernels, so the comparison shows nothing"
        )
    csv, cfg = _repro_inputs(tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(stlinfer.__file__).resolve().parents[1])
    reports = []
    for name, extra in (("native", {}), ("avx2", {"NPY_DISABLE_CPU_FEATURES": AVX512_OFF})):
        # a run that fails raises CalledProcessError, which the xfail does not take
        subprocess.run(
            [sys.executable, "-m", "stlinfer", "train", "--data", str(csv), "--config", str(cfg),
             "--out", str(tmp_path / name)],
            capture_output=True, env={**env, **extra}, timeout=120, check=True,
        )
        reports.append((tmp_path / name / "report.json").read_text(encoding="utf-8").splitlines())
    # pytest names the first line (index) at which they differ
    assert reports[0] == reports[1]
