"""Signal temporal logic over discrete-time signals: syntax trees, exact
quantitative semantics, and a text grammar for reading and writing formulas.

A signal is a finite sequence of real vectors sampled on the integer grid
0..l-1.  Formulas are built from axis-aligned predicates, boolean
connectives, and the bounded temporal operators "always" and "eventually".
Temporal operators never nest: a temporal atom wraps a propositional
formula over predicates only.  The learned formulas produced elsewhere in
this package are disjunctions of conjunctions of temporal atoms, but the
evaluator accepts any tree in that fragment, including explicit negation.

Quantitative semantics (robustness) follows the usual recursive
definition: predicates measure signed margin, negation flips sign,
conjunction takes the minimum, disjunction the maximum, and the temporal
operators take the extremum of the child robustness over the shifted
window.  A signal satisfies a formula iff its robustness at time 0 is
strictly positive; robustness exactly 0 counts as a violation.

`robustness` is the recursive reference on one signal.  `satisfied` is
the batched verdict (robustness > 0) on signals (n, length, dim): a DNF
over windowed predicate atoms holds iff some clause has all its atoms
positive (`atom_matrix` > 0 fed into `clauses_hold`); any other tree goes
through `satisfies` one signal at a time.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "Signal",
    "Predicate",
    "Not",
    "And",
    "Or",
    "TemporalOp",
    "TemporalAtom",
    "Formula",
    "IntervalError",
    "ParseError",
    "robustness",
    "satisfies",
    "atom_matrix",
    "clauses_hold",
    "satisfied",
    "mcr",
    "format_formula",
    "parse_formula",
    "dnf",
    "dnf_clauses",
    "count_atoms",
]


class IntervalError(ValueError):
    """A temporal window falls outside the signal, or an index is invalid."""


class ParseError(ValueError):
    """Formula text could not be parsed; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(eq=False)
class Signal:
    """A finite multivariate time series, shape (length, dim), time-major."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"signal values must be 2-D (length, dim), got shape {v.shape}")
        if v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"signal must have at least one sample and one axis, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal values must be finite")
        self.values = v


@dataclass(frozen=True)
class Predicate:
    """Axis-aligned half-space predicate: sign * s[axis] >= offset.

    Robustness at time t is sign * s[t, axis] - offset.  A negated
    predicate is represented by flipping sign and negating offset, so
    negation never needs its own node at the predicate level.
    """

    axis: int
    sign: int
    offset: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"predicate sign must be +1 or -1, got {self.sign}")
        if self.axis < 0:
            raise ValueError(f"predicate axis must be nonnegative, got {self.axis}")

    def negate(self) -> "Predicate":
        return Predicate(self.axis, -self.sign, -self.offset)


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    items: Tuple["Formula", ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("conjunction needs at least two operands")


@dataclass(frozen=True)
class Or:
    items: Tuple["Formula", ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("disjunction needs at least two operands")


class TemporalOp(enum.Enum):
    ALWAYS = "G"
    EVENTUALLY = "F"


@dataclass(frozen=True)
class TemporalAtom:
    """A single bounded temporal operator applied to a propositional child.

    The child must not contain another temporal operator.  Window bounds
    are inclusive integers with 0 <= t1 <= t2, interpreted relative to the
    evaluation time.
    """

    op: TemporalOp
    t1: int
    t2: int
    child: "Formula"

    def __post_init__(self):
        if not (isinstance(self.t1, int) and isinstance(self.t2, int)):
            raise ValueError("temporal window bounds must be integers")
        if self.t1 < 0 or self.t2 < self.t1:
            raise ValueError(f"temporal window must satisfy 0 <= t1 <= t2, got [{self.t1},{self.t2}]")
        if _has_temporal(self.child):
            raise ValueError("temporal operators must not nest")


Formula = Union[Predicate, Not, And, Or, TemporalAtom]


def _has_temporal(f: Formula) -> bool:
    if isinstance(f, TemporalAtom):
        return True
    if isinstance(f, Not):
        return _has_temporal(f.child)
    if isinstance(f, (And, Or)):
        return any(_has_temporal(i) for i in f.items)
    return False


def robustness(signal: Signal, formula: Formula, t: int = 0) -> float:
    """Exact robustness of `formula` on `signal` at time `t`.

    Uses true min/max throughout, so it serves as the reference semantics
    for everything the trained network approximates.  Raises IntervalError
    when a temporal window reaches outside 0..length-1 or a predicate reads
    an axis the signal lacks.
    """
    v = signal.values
    l, dim = v.shape
    if isinstance(formula, Predicate):
        if not (0 <= t < l):
            raise IntervalError(f"evaluation time {t} outside signal of length {l}")
        if formula.axis >= dim:
            raise IntervalError(_axis_outside(formula, formula.axis, dim))
        return float(formula.sign * v[t, formula.axis] - formula.offset)
    if isinstance(formula, Not):
        return -robustness(signal, formula.child, t)
    if isinstance(formula, And):
        return min(robustness(signal, i, t) for i in formula.items)
    if isinstance(formula, Or):
        return max(robustness(signal, i, t) for i in formula.items)
    if isinstance(formula, TemporalAtom):
        lo, hi = t + formula.t1, t + formula.t2
        if lo < 0 or hi > l - 1:
            raise IntervalError(_window_outside(formula, t, l))
        child = formula.child
        if isinstance(child, Predicate):
            # common case, worth vectorizing
            if child.axis >= dim:
                raise IntervalError(_axis_outside(child, child.axis, dim))
            row = child.sign * v[lo : hi + 1, child.axis] - child.offset
            ext = row.min() if formula.op is TemporalOp.ALWAYS else row.max()
            return float(ext)
        vals = [robustness(signal, child, tau) for tau in range(lo, hi + 1)]
        return min(vals) if formula.op is TemporalOp.ALWAYS else max(vals)
    raise TypeError(f"not a formula node: {formula!r}")


def _window_outside(atom: TemporalAtom, t: int, length: int) -> str:
    return (
        f"window of {format_formula(atom)} evaluated at t={t} "
        f"reaches outside signal of length {length}"
    )


def _axis_outside(f: Formula, axis: int, dim: int) -> str:
    return f"{format_formula(f)} reads axis {axis}, but the data has dim {dim}"


def satisfies(signal: Signal, formula: Formula) -> bool:
    """Strict satisfaction: robustness at time 0 must be positive."""
    return robustness(signal, formula, 0) > 0.0


def atom_matrix(X: np.ndarray, atoms: Sequence[TemporalAtom]) -> np.ndarray:
    """Exact robustness at time 0 of windowed predicate atoms on a batch.

    X has shape (n, length, dim); column j of the (n, len(atoms)) result
    holds atom j, whose child must be a Predicate.  The arithmetic is
    robustness()'s own, so every entry equals it bit for bit.  All windows
    and axes are checked before any atom is evaluated.
    """
    _, length, dim = X.shape
    for atom in atoms:
        if atom.t2 > length - 1:
            raise IntervalError(_window_outside(atom, 0, length))
        if atom.child.axis >= dim:
            raise IntervalError(_axis_outside(atom, atom.child.axis, dim))
    A = np.empty((X.shape[0], len(atoms)), dtype=np.float64)
    for j, atom in enumerate(atoms):
        pred = atom.child
        row = pred.sign * X[:, atom.t1 : atom.t2 + 1, pred.axis] - pred.offset
        A[:, j] = row.min(axis=1) if atom.op is TemporalOp.ALWAYS else row.max(axis=1)
    return A


def clauses_hold(holds: np.ndarray, use: np.ndarray) -> np.ndarray:
    """Verdict of a DNF on each sample, from which atoms hold.

    holds (n, atoms) marks the atoms with positive robustness on each
    sample; use (clauses, atoms) marks the atoms each clause conjoins.
    Sample i satisfies the DNF iff some non-empty clause has every atom it
    uses holding.  Robustness 0 of either sign does not hold, so no tie
    rule is needed.
    """
    return ((holds[:, None, :] | ~use).all(axis=2) & use.any(axis=1)).any(axis=1)


def satisfied(X: np.ndarray, formula: Formula) -> np.ndarray:
    """Strict satisfaction of `formula` by every signal of X (n, length,
    dim); equals satisfies() on each signal.

    A DNF over windowed predicate atoms, which is what training extracts
    and the text grammar prints, runs on the atom matrix.  Any other tree,
    such as G[0,5](x0 > 1 & x1 < 2), falls back to satisfies() on each
    signal.
    """
    try:
        clauses = dnf_clauses(formula)
    except ValueError:
        clauses = ()
    atoms = [atom for clause in clauses for atom in clause]
    if not atoms or not all(isinstance(atom.child, Predicate) for atom in atoms):
        return np.array([satisfies(Signal(x), formula) for x in X], dtype=bool)
    # use[c, j]: atom j belongs to clause c
    owner = np.repeat(np.arange(len(clauses)), [len(clause) for clause in clauses])
    use = owner == np.arange(len(clauses))[:, None]
    return clauses_hold(atom_matrix(X, atoms) > 0.0, use)


def mcr(data, formula: Formula) -> float:
    """Misclassification rate of a formula used as a binary classifier on
    the X and y of a LabeledDataset.

    A sample (x, y) with y in {-1, +1} is misclassified when y = +1 and x
    does not satisfy the formula, or y = -1 and x does.
    """
    if not len(data.y):
        raise ValueError("cannot compute a misclassification rate on an empty dataset")
    return int(np.count_nonzero(satisfied(data.X, formula) != (data.y == 1))) / len(data.y)


# ---------------------------------------------------------------------------
# DNF helpers


def dnf(clauses: Iterable[Iterable[TemporalAtom]]) -> Formula:
    """Build a disjunction of conjunctions of temporal atoms.

    Single-atom conjunctions and single-clause disjunctions collapse to
    their only member, so the tree never holds degenerate one-child nodes.
    """
    built = []
    for clause in clauses:
        atoms = tuple(clause)
        if not atoms:
            raise ValueError("empty conjunction clause")
        built.append(atoms[0] if len(atoms) == 1 else And(atoms))
    if not built:
        raise ValueError("empty formula: no clauses")
    return built[0] if len(built) == 1 else Or(tuple(built))


def dnf_clauses(f: Formula) -> Tuple[Tuple[TemporalAtom, ...], ...]:
    """Inverse of dnf() for formulas in clause form."""

    def as_clause(node):
        if isinstance(node, TemporalAtom):
            return (node,)
        if isinstance(node, And) and all(isinstance(i, TemporalAtom) for i in node.items):
            return tuple(node.items)
        raise ValueError(f"not a conjunction of temporal atoms: {format_formula(node)}")

    if isinstance(f, Or):
        return tuple(as_clause(i) for i in f.items)
    return (as_clause(f),)


def count_atoms(f: Formula) -> int:
    if isinstance(f, TemporalAtom):
        return 1
    if isinstance(f, Not):
        return count_atoms(f.child)
    if isinstance(f, (And, Or)):
        return sum(count_atoms(i) for i in f.items)
    return 0


# ---------------------------------------------------------------------------
# Printing


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _fmt_predicate(p: Predicate) -> str:
    if p.sign == 1:
        return f"x{p.axis} > {_fmt_number(p.offset)}"
    return f"x{p.axis} < {_fmt_number(-p.offset)}"


def format_formula(f: Formula) -> str:
    """Render a formula in the text grammar accepted by parse_formula.

    `G[a,b](p)` is always, `F[a,b](p)` is eventually, `&` binds tighter
    than `|`, and each clause of a multi-clause disjunction is
    parenthesized.  The output round-trips through parse_formula.
    """
    if isinstance(f, Predicate):
        return _fmt_predicate(f)
    if isinstance(f, Not):
        return f"!({format_formula(f.child)})"
    if isinstance(f, And):
        return " & ".join(_wrap_in_and(i) for i in f.items)
    if isinstance(f, Or):
        return " | ".join(f"({format_formula(i)})" for i in f.items)
    if isinstance(f, TemporalAtom):
        return f"{f.op.value}[{f.t1},{f.t2}]({format_formula(f.child)})"
    raise TypeError(f"not a formula node: {f!r}")


def _wrap_in_and(f: Formula) -> str:
    # disjunctions under a conjunction need parentheses
    if isinstance(f, Or):
        return f"({format_formula(f)})"
    return format_formula(f)


# ---------------------------------------------------------------------------
# Parsing

class _Parser:
    """Recursive-descent parser for the formula grammar.

    formula  := term ('|' term)*
    term     := factor ('&' factor)*
    factor   := '!' factor | temporal | '(' formula ')' | predicate
    temporal := ('G'|'F') '[' int ',' int ']' '(' formula ')'
    predicate:= 'x' INT ('>'|'<') NUMBER

    Negation is folded away during parsing: over predicates it flips the
    comparison, over temporal atoms it dualizes the operator, and over
    boolean nodes it distributes.  Parsed trees therefore contain no Not
    nodes.  Temporal operators inside a temporal body are rejected.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> Formula:
        f = self.formula(inside_temporal=False)
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input")
        return f

    def formula(self, inside_temporal: bool) -> Formula:
        items = [self.term(inside_temporal)]
        while self.peek() == "|":
            self.pos += 1
            items.append(self.term(inside_temporal))
        return items[0] if len(items) == 1 else Or(tuple(items))

    def term(self, inside_temporal: bool) -> Formula:
        items = [self.factor(inside_temporal)]
        while self.peek() == "&":
            self.pos += 1
            items.append(self.factor(inside_temporal))
        return items[0] if len(items) == 1 else And(tuple(items))

    def factor(self, inside_temporal: bool) -> Formula:
        ch = self.peek()
        if ch == "!":
            self.pos += 1
            return _negate(self.factor(inside_temporal))
        if ch in ("G", "F"):
            if inside_temporal:
                raise self.error("nested temporal operator")
            return self.temporal()
        if ch == "(":
            self.pos += 1
            f = self.formula(inside_temporal)
            self.expect(")")
            return f
        if ch == "x":
            return self.predicate()
        raise self.error("expected a predicate, temporal operator, '!' or '('")

    def temporal(self) -> TemporalAtom:
        op = TemporalOp.ALWAYS if self.text[self.pos] == "G" else TemporalOp.EVENTUALLY
        self.pos += 1
        self.expect("[")
        t1 = self.integer()
        self.expect(",")
        t2 = self.integer()
        self.expect("]")
        self.expect("(")
        body = self.formula(inside_temporal=True)
        self.expect(")")
        try:
            return TemporalAtom(op, t1, t2, body)
        except ValueError as e:
            raise self.error(str(e)) from None

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"-?\d+", self.text[self.pos :])
        if not m:
            raise self.error("expected an integer")
        self.pos += len(m.group(0))
        return int(m.group(0))

    def number(self) -> float:
        self.skip_ws()
        m = re.match(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?", self.text[self.pos :])
        if not m:
            raise self.error("expected a number")
        self.pos += len(m.group(0))
        return float(m.group(0))

    def predicate(self) -> Predicate:
        self.skip_ws()
        m = re.match(r"x(\d+)", self.text[self.pos :])
        if not m:
            raise self.error("expected a predicate like 'x0 > 1.5'")
        self.pos += len(m.group(0))
        axis = int(m.group(1))
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in "<>":
            raise self.error("expected '<' or '>'")
        cmp = self.text[self.pos]
        self.pos += 1
        c = self.number()
        if cmp == ">":
            return Predicate(axis, 1, c)
        return Predicate(axis, -1, -c)


def _negate(f: Formula) -> Formula:
    if isinstance(f, Predicate):
        return f.negate()
    if isinstance(f, Not):
        return f.child
    if isinstance(f, And):
        return Or(tuple(_negate(i) for i in f.items))
    if isinstance(f, Or):
        return And(tuple(_negate(i) for i in f.items))
    if isinstance(f, TemporalAtom):
        dual = TemporalOp.EVENTUALLY if f.op is TemporalOp.ALWAYS else TemporalOp.ALWAYS
        return TemporalAtom(dual, f.t1, f.t2, _negate(f.child))
    raise TypeError(f"not a formula node: {f!r}")


def parse_formula(text: str) -> Formula:
    """Parse formula text; raises ParseError with a character position."""
    return _Parser(text).parse()
