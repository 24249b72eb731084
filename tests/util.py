"""Shared test helpers.

`selected_softmax_oracle` is a deliberately naive transcription of the
selected-softmax definition, with none of the numerical safeguards the
library version carries.  Tests compare the two so the stable rewrite
stays algebraically honest.  `simplify_oracle` is the per-sample pruning
loop the batched `simplify` replaced, kept as its reference.  The random
builders produce formulas whose connectives alternate, so printing and
reparsing reproduces the tree node for node.
"""

from __future__ import annotations

import numpy as np

from stlinfer.stl import And, Or, Predicate, Signal, TemporalAtom, TemporalOp, dnf, satisfies
from stlinfer.trainer import formula_from_gates


def selected_softmax_oracle(r, w, beta: float, h: float, eps: float = 1e-8) -> float:
    """May return nan where the unshifted exponentials underflow; callers
    skip those draws (the library version is tested separately there)."""
    r = np.asarray(r, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        r1 = r * w
        r2 = h * r1 / (abs(r1.max()) + eps)
        e = np.exp(beta * r2)
        q = e / e.sum()
        return float((r * w * q).sum() / (w * q).sum())


def selected_softmin_oracle(r, w, beta: float, h: float, eps: float = 1e-8) -> float:
    return -selected_softmax_oracle(-np.asarray(r, dtype=np.float64), w, beta, h, eps)


def random_signal(rng: np.random.Generator, length: int, dim: int, scale: float = 5.0) -> Signal:
    return Signal(rng.uniform(-scale, scale, size=(length, dim)))


def random_predicate(rng: np.random.Generator, dim: int, scale: float = 5.0) -> Predicate:
    return Predicate(
        int(rng.integers(dim)),
        int(rng.choice([-1, 1])),
        float(rng.uniform(-scale, scale)),
    )


def random_propositional(rng: np.random.Generator, dim: int, depth: int = 2, outer=None):
    if depth == 0 or rng.random() < 0.4:
        return random_predicate(rng, dim)
    if outer is And:
        kind = Or
    elif outer is Or:
        kind = And
    else:
        kind = And if rng.random() < 0.5 else Or
    items = tuple(
        random_propositional(rng, dim, depth - 1, outer=kind)
        for _ in range(int(rng.integers(2, 4)))
    )
    return kind(items)


def random_window(rng: np.random.Generator, length: int) -> tuple[int, int]:
    t1 = int(rng.integers(0, length))
    t2 = int(rng.integers(t1, length))
    return t1, t2


def random_atom(rng: np.random.Generator, dim: int, length: int, depth: int = 1) -> TemporalAtom:
    """depth 0 gives a predicate child, depth 1 maybe a boolean one."""
    t1, t2 = random_window(rng, length)
    op = TemporalOp.ALWAYS if rng.random() < 0.5 else TemporalOp.EVENTUALLY
    return TemporalAtom(op, t1, t2, random_propositional(rng, dim, depth=depth, outer=And))


def random_dnf(rng: np.random.Generator, dim: int, length: int, depth: int = 1):
    clauses = [
        [random_atom(rng, dim, length, depth) for _ in range(int(rng.integers(1, 4)))]
        for _ in range(int(rng.integers(1, 4)))
    ]
    return dnf(clauses)


def simplify_oracle(params, shape, data) -> np.ndarray:
    """Greedy pruning as one satisfies() call per sample and trial."""
    samples = list(data)

    def wrong_count(gates):
        formula = formula_from_gates(params, shape, gates)
        return sum(satisfies(sig, formula) != (label == 1) for sig, label in samples)

    gates = (params.M >= 0.5).astype(np.float64)
    baseline = wrong_count(gates)

    def try_zero(mask):
        nonlocal gates
        trial = gates.copy()
        trial[mask] = 0.0
        if trial.any() and not np.array_equal(trial, gates) and wrong_count(trial) == baseline:
            gates = trial

    for i in range(gates.shape[0]):
        for j in range(gates.shape[1]):
            if gates[i, j] != 0.0:
                single = np.zeros_like(gates, dtype=bool)
                single[i, j] = True
                try_zero(single)
    for i in range(gates.shape[0]):
        row = np.zeros_like(gates, dtype=bool)
        row[i, :] = True
        try_zero(row)
    return gates
