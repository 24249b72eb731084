"""Signal temporal logic over discrete-time signals: syntax trees, exact
quantitative semantics, and a text grammar for reading and writing formulas.

A signal is a finite sequence of real vectors sampled on the integer grid
0..l-1.  Formulas are built from axis-aligned predicates, boolean
connectives, and the bounded temporal operators "always" and "eventually".
Temporal operators never nest: a temporal atom wraps a propositional
formula over predicates only.  The learned formulas produced elsewhere in
this package are disjunctions of conjunctions of temporal atoms, but the
evaluator accepts any tree in that fragment.  The parser folds negation
into the predicates and temporal operators, so no tree holds a negation
node.

Quantitative semantics (robustness) follows the usual recursive
definition: predicates measure signed margin, conjunction takes the
minimum, disjunction the maximum, and the temporal operators take the
extremum of the child robustness over the shifted window.  A signal
satisfies a formula iff its robustness at time 0 is strictly positive;
robustness exactly 0 counts as a violation.

`robustness` is the recursive reference on one signal.  `satisfied` is
the batched verdict (robustness > 0) on signals (n, length, dim), for
every tree: since min > 0 means all > 0 and max > 0 means any > 0, it
evaluates the tree once over boolean (n, steps) arrays of where each
predicate holds.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Iterable, Tuple, Union

import numpy as np

__all__ = [
    "Signal",
    "Predicate",
    "And",
    "Or",
    "TemporalOp",
    "TemporalAtom",
    "Formula",
    "IntervalError",
    "ParseError",
    "robustness",
    "satisfied",
    "mcr",
    "format_formula",
    "parse_formula",
    "dnf",
    "dnf_clauses",
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
    negation never needs its own node.  The offset must be finite.
    """

    axis: int
    sign: int
    offset: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"predicate sign must be +1 or -1, got {self.sign}")
        if self.axis < 0:
            raise ValueError(f"predicate axis must be nonnegative, got {self.axis}")
        if not math.isfinite(self.offset):
            raise ValueError(f"predicate offset must be finite, got {self.offset}")

    def negate(self) -> "Predicate":
        return Predicate(self.axis, -self.sign, -self.offset)


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


Formula = Union[Predicate, And, Or, TemporalAtom]


def _has_temporal(f: Formula) -> bool:
    if isinstance(f, TemporalAtom):
        return True
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


def satisfied(X: np.ndarray, formula: Formula) -> np.ndarray:
    """Strict satisfaction of `formula` by every signal of X (n, length,
    dim); equals robustness(signal, formula) > 0 on each signal, and
    raises the IntervalError robustness() would raise first.
    """
    return _holds(X, formula, 0, 1)[:, 0]


def _holds(X: np.ndarray, f: Formula, lo: int, hi: int) -> np.ndarray:
    """Where f is strictly satisfied at steps lo..hi-1, as (n, hi - lo)
    booleans.  The walk is robustness()'s pre-order and checks each window
    and axis before it reads them, so it meets the reference's first
    error.  Temporal atoms never nest, so they only see lo = 0, hi = 1.
    """
    if isinstance(f, Predicate):
        if f.axis >= X.shape[2]:
            raise IntervalError(_axis_outside(f, f.axis, X.shape[2]))
        # sign * x - offset > 0 as one comparison, exact for all doubles: a
        # positive exact difference never rounds to 0, an overflow is +-inf,
        # NaN compares false both ways and negation is exact
        x = X[:, lo:hi, f.axis]
        return x > f.offset if f.sign > 0 else x < -f.offset
    if isinstance(f, TemporalAtom):
        if f.t2 > X.shape[1] - 1:
            raise IntervalError(_window_outside(f, 0, X.shape[1]))
        window = _holds(X, f.child, f.t1, f.t2 + 1)
        if f.op is TemporalOp.ALWAYS:
            return window.all(axis=1, keepdims=True)
        return window.any(axis=1, keepdims=True)
    if isinstance(f, (And, Or)):
        items = [_holds(X, i, lo, hi) for i in f.items]
        return (np.logical_and if isinstance(f, And) else np.logical_or).reduce(items)
    raise TypeError(f"not a formula node: {f!r}")


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
    boolean nodes it distributes.  A constant that overflows a float is
    refused at its position.  Temporal operators inside a temporal body
    are rejected.
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
        self.skip_ws()
        at = self.pos
        c = self.number()
        try:
            if cmp == ">":
                return Predicate(axis, 1, c)
            return Predicate(axis, -1, -c)
        except ValueError as e:
            raise ParseError(str(e), at) from None


def _negate(f: Formula) -> Formula:
    if isinstance(f, Predicate):
        return f.negate()
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
