"""Simple predicates over XML data trees.

The paper's predicate language (§3.1)::

    p := P θ value | φv(P) θ value | φb(P) | Q

where ``P`` is a terminal path expression, ``θ ∈ {=, <, >, ≠, ≤, ≥}``,
``φv`` is a function returning values in ``D`` (e.g. ``string-length``,
``number``, ``count``), ``φb`` is a boolean function (e.g. ``contains``,
``empty``, ``starts-with``), and ``Q`` is an arbitrary path used as an
existential test. Horizontal fragments are defined by *conjunctions* ``μ``
of simple predicates (Definition 2); we additionally provide ``not`` and
``or`` connectives because complements of predicates are how real
fragmentation schemas achieve completeness (e.g. Figure 2's
``σ/Item/Section≠"CD"``).

Comparison semantics are existential, as in XPath: ``P θ v`` holds when at
least one node selected by ``P`` has a (typed) value standing in relation
``θ`` to ``v``. Values compare numerically when both sides parse as
numbers, lexicographically otherwise.

Besides evaluation, this module provides the *symbolic* analysis PartiX
needs: complement detection and conjunction-unsatisfiability
(:func:`definitely_disjoint`), used both to verify fragmentation
disjointness (§3.3) and to prune fragments during query localization.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import Node
from repro.errors import PredicateError
from repro.paths.ast import PathExpr
from repro.paths.evaluator import evaluate_path
from repro.paths.parser import parse_path

#: What a predicate is evaluated over: a document, or a node standing for
#: its root — a DOM element or a handle over a stored node table (see
#: :func:`~repro.paths.evaluator.evaluate_path`).
Context = Union[XMLDocument, Node]

_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,  # type: ignore[operator]
    "<=": lambda a, b: a <= b,  # type: ignore[operator]
    ">": lambda a, b: a > b,  # type: ignore[operator]
    ">=": lambda a, b: a >= b,  # type: ignore[operator]
}

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


def as_number(value: object) -> Optional[float]:
    """The number a comparison operand parses as; None when it compares
    as a string. NaN is no number — it orders with nothing, so a value
    written ``nan`` compares as that string, which is also how the query
    evaluator treats it. The value index sorts stored values by this
    very function, so an index probe and a scan cannot disagree."""
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return None if number != number else number


def _compare(left: str, op: str, right: Union[str, int, float]) -> bool:
    """``left op right``, as numbers when both sides parse, else as strings."""
    try:
        fn = _OPS[op]
    except KeyError:
        raise PredicateError(f"unknown comparison operator {op!r}") from None
    a, b = as_number(left), as_number(right)
    if a is None or b is None:
        a, b = left, str(right)
    return fn(a, b)


class Predicate(abc.ABC):
    """Base class of the predicate language."""

    @abc.abstractmethod
    def evaluate(self, context: Context) -> bool:
        """Truth value of this predicate over a document (or subtree)."""

    @abc.abstractmethod
    def __str__(self) -> str:
        ...

    def negate(self) -> "Predicate":
        """The logical complement of this predicate."""
        return Not(self)

    def __and__(self, other: "Predicate") -> "And":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Or":
        return Or((self, other))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Predicate) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


def _as_path(path: Union[PathExpr, str]) -> PathExpr:
    return parse_path(path) if isinstance(path, str) else path


@dataclass(frozen=True, eq=False)
class Comparison(Predicate):
    """``P θ value`` — existential comparison on a terminal path."""

    path: PathExpr
    op: str
    value: Union[str, int, float]

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise PredicateError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, context: Context) -> bool:
        nodes = evaluate_path(self.path, context)
        return any(_compare(n.text_value(), self.op, self.value) for n in nodes)

    def negate(self) -> "Predicate":
        # The negation of an existential comparison over a *single-valued*
        # path is the complementary comparison; for multi-valued paths the
        # caller must keep the generic Not. We return the generic form and
        # let the symbolic layer exploit single-valuedness.
        return Not(self)

    def __str__(self) -> str:
        op = "≠" if self.op == "!=" else self.op
        return f"{self.path}{op}{self.value!r}"


_VALUE_FUNCTIONS: dict[str, Callable[[list[Node]], Optional[float]]] = {
    "count": lambda nodes: float(len(nodes)),
    "string-length": lambda nodes: float(len(nodes[0].text_value())) if nodes else None,
    "number": lambda nodes: as_number(nodes[0].text_value()) if nodes else None,
    "sum": lambda nodes: sum(
        filter(None, (as_number(n.text_value()) for n in nodes)), 0.0
    ),
}


@dataclass(frozen=True, eq=False)
class FunctionComparison(Predicate):
    """``φv(P) θ value`` — compare the result of a value function.

    Supported ``φv``: ``count``, ``string-length``, ``number``, ``sum``.
    """

    function: str
    path: PathExpr
    op: str
    value: Union[int, float]

    def __post_init__(self) -> None:
        if self.function not in _VALUE_FUNCTIONS:
            raise PredicateError(f"unknown value function {self.function!r}")
        if self.op not in _OPS:
            raise PredicateError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, context: Context) -> bool:
        nodes = evaluate_path(self.path, context)
        result = _VALUE_FUNCTIONS[self.function](nodes)
        if result is None:
            return False
        return _OPS[self.op](result, float(self.value))

    def __str__(self) -> str:
        return f"{self.function}({self.path}){self.op}{self.value}"


@dataclass(frozen=True, eq=False)
class Contains(Predicate):
    """``contains(P, needle)`` — substring text search (φb).

    This is the predicate class behind the paper's text-search queries
    (``contains(//Description, "good")``, Figure 2(b)).
    """

    path: PathExpr
    needle: str

    def evaluate(self, context: Context) -> bool:
        nodes = evaluate_path(self.path, context)
        return any(self.needle in n.text_value() for n in nodes)

    def __str__(self) -> str:
        return f"contains({self.path},{self.needle!r})"


@dataclass(frozen=True, eq=False)
class StartsWith(Predicate):
    """``starts-with(P, prefix)`` (φb)."""

    path: PathExpr
    prefix: str

    def evaluate(self, context: Context) -> bool:
        nodes = evaluate_path(self.path, context)
        return any(n.text_value().startswith(self.prefix) for n in nodes)

    def __str__(self) -> str:
        return f"starts-with({self.path},{self.prefix!r})"


@dataclass(frozen=True, eq=False)
class Exists(Predicate):
    """``Q`` — existential test: the path selects at least one node.

    Figure 2(c) uses this shape: ``σ/Item/PictureList``.
    """

    path: PathExpr

    def evaluate(self, context: Context) -> bool:
        return bool(evaluate_path(self.path, context))

    def negate(self) -> "Predicate":
        return Empty(self.path)

    def __str__(self) -> str:
        return f"exists({self.path})"


@dataclass(frozen=True, eq=False)
class Empty(Predicate):
    """``empty(P)`` (φb) — the path selects no node (Figure 2(c))."""

    path: PathExpr

    def evaluate(self, context: Context) -> bool:
        return not evaluate_path(self.path, context)

    def negate(self) -> "Predicate":
        return Exists(self.path)

    def __str__(self) -> str:
        return f"empty({self.path})"


@dataclass(frozen=True, eq=False)
class Not(Predicate):
    """Logical negation."""

    inner: Predicate

    def evaluate(self, context: Context) -> bool:
        return not self.inner.evaluate(context)

    def negate(self) -> "Predicate":
        return self.inner

    def __str__(self) -> str:
        return f"not({self.inner})"


@dataclass(frozen=True, eq=False)
class And(Predicate):
    """Conjunction ``μ`` of simple predicates (Definition 2)."""

    parts: tuple[Predicate, ...]

    def evaluate(self, context: Context) -> bool:
        return all(part.evaluate(context) for part in self.parts)

    def __str__(self) -> str:
        return " ∧ ".join(f"({part})" for part in self.parts)


@dataclass(frozen=True, eq=False)
class Or(Predicate):
    """Disjunction (used by query predicates and completeness checking)."""

    parts: tuple[Predicate, ...]

    def evaluate(self, context: Context) -> bool:
        return any(part.evaluate(context) for part in self.parts)

    def __str__(self) -> str:
        return " ∨ ".join(f"({part})" for part in self.parts)


def atoms(predicate: Optional[Predicate]) -> Iterator[Predicate]:
    """The leaves of a predicate tree under its ``And``/``Or`` nodes,
    left to right (a ``Not`` is a leaf: what it negates holds nowhere)."""
    if isinstance(predicate, (And, Or)):
        for part in predicate.parts:
            yield from atoms(part)
    elif predicate is not None:
        yield predicate


class TruePredicate(Predicate):
    """The always-true predicate (selects everything)."""

    def evaluate(self, context: Context) -> bool:
        return True

    def __str__(self) -> str:
        return "true()"


# ----------------------------------------------------------------------
# Convenience constructors (string paths accepted)
# ----------------------------------------------------------------------
def cmp(path: Union[PathExpr, str], op: str, value: Union[str, int, float]) -> Comparison:
    """Build ``P θ value``."""
    return Comparison(_as_path(path), op, value)


def eq(path: Union[PathExpr, str], value: Union[str, int, float]) -> Comparison:
    return cmp(path, "=", value)


def ne(path: Union[PathExpr, str], value: Union[str, int, float]) -> Comparison:
    return cmp(path, "!=", value)


def contains(path: Union[PathExpr, str], needle: str) -> Contains:
    return Contains(_as_path(path), needle)


def starts_with(path: Union[PathExpr, str], prefix: str) -> StartsWith:
    return StartsWith(_as_path(path), prefix)


def exists(path: Union[PathExpr, str]) -> Exists:
    return Exists(_as_path(path))


def empty(path: Union[PathExpr, str]) -> Empty:
    return Empty(_as_path(path))


def func_cmp(
    function: str,
    path: Union[PathExpr, str],
    op: str,
    value: Union[int, float],
) -> FunctionComparison:
    """Build ``φv(P) θ value``."""
    return FunctionComparison(function, _as_path(path), op, value)


# ----------------------------------------------------------------------
# Symbolic analysis
# ----------------------------------------------------------------------
def complements(p: Predicate, q: Predicate) -> bool:
    """Syntactic complement test: is ``p ≡ ¬q``?

    Recognizes ``Not(x)``/``x`` pairs, ``=``/``≠`` on the same path and
    value, order complements (``<`` vs ``≥`` etc.), and
    ``exists``/``empty`` on the same path.
    """
    if isinstance(p, Not) and str(p.inner) == str(q):
        return True
    if isinstance(q, Not) and str(q.inner) == str(p):
        return True
    if isinstance(p, Comparison) and isinstance(q, Comparison):
        if str(p.path) != str(q.path) or p.value != q.value:
            return False
        return _NEGATED_OP[p.op] == q.op
    if isinstance(p, Exists) and isinstance(q, Empty):
        return str(p.path) == str(q.path)
    if isinstance(p, Empty) and isinstance(q, Exists):
        return str(p.path) == str(q.path)
    return False


def _atom_interval(op: str, value: float) -> tuple[float, float, bool, bool]:
    """Interval (lo, hi, lo_open, hi_open) of a numeric comparison atom."""
    inf = float("inf")
    if op == "=":
        return (value, value, False, False)
    if op == "<":
        return (-inf, value, True, True)
    if op == "<=":
        return (-inf, value, True, False)
    if op == ">":
        return (value, inf, True, True)
    if op == ">=":
        return (value, inf, False, True)
    raise AssertionError(op)


def _comparisons_disjoint(p: Comparison, q: Comparison) -> bool:
    """Unsatisfiability of ``p ∧ q`` over a single value on the same path."""
    pv, qv = as_number(p.value), as_number(q.value)
    if pv is None or qv is None:
        # String reasoning: only equalities are decidable.
        if p.op == "=" and q.op == "=":
            return p.value != q.value
        if p.op == "=" and q.op == "!=":
            return p.value == q.value
        if p.op == "!=" and q.op == "=":
            return p.value == q.value
        return False
    if "!=" in (p.op, q.op):
        if p.op == "!=" and q.op == "=":
            return pv == qv
        if q.op == "!=" and p.op == "=":
            return pv == qv
        return False  # two ≠, or ≠ with an inequality, always satisfiable
    lo1, hi1, lo1_open, hi1_open = _atom_interval(p.op, pv)
    lo2, hi2, lo2_open, hi2_open = _atom_interval(q.op, qv)
    lo = max(lo1, lo2)
    hi = min(hi1, hi2)
    if lo < hi:
        return False
    if lo > hi:
        return True
    # lo == hi: the single point is in the intersection iff closed on the
    # touching side in both intervals.
    lo_open = lo1_open if lo1 > lo2 else lo2_open if lo2 > lo1 else (lo1_open or lo2_open)
    hi_open = hi1_open if hi1 < hi2 else hi2_open if hi2 < hi1 else (hi1_open or hi2_open)
    return lo_open or hi_open


def definitely_disjoint(
    p: Predicate, q: Predicate, single_valued_paths: bool = True
) -> bool:
    """Sound (never wrongly True) test that ``p ∧ q`` is unsatisfiable.

    ``single_valued_paths`` asserts that the terminal paths mentioned by
    the predicates select at most one node per document (the usual case for
    fragmentation attributes like ``/Item/Section``; the caller derives the
    guarantee from schema cardinalities). Without it, comparisons have
    existential semantics and two different equalities can both hold, so
    almost nothing is refutable.

    Conjunctions distribute: ``And(a, b)`` is disjoint from ``q`` when any
    conjunct is.
    """
    if isinstance(p, And):
        return any(
            definitely_disjoint(part, q, single_valued_paths) for part in p.parts
        )
    if isinstance(q, And):
        return any(
            definitely_disjoint(p, part, single_valued_paths) for part in q.parts
        )
    if isinstance(p, Or):
        return all(
            definitely_disjoint(part, q, single_valued_paths) for part in p.parts
        )
    if isinstance(q, Or):
        return all(
            definitely_disjoint(p, part, single_valued_paths) for part in q.parts
        )
    if complements(p, q):
        return True
    if isinstance(p, Comparison) and isinstance(q, Comparison):
        if str(p.path) != str(q.path) or not single_valued_paths:
            return False
        return _comparisons_disjoint(p, q)
    if isinstance(p, Not) and isinstance(p.inner, Comparison) and isinstance(q, Comparison):
        # not(P θ v) over a single-valued path equals P ¬θ v.
        if single_valued_paths:
            inner = p.inner
            flipped = Comparison(inner.path, _NEGATED_OP[inner.op], inner.value)
            return definitely_disjoint(flipped, q, single_valued_paths)
        return False
    if isinstance(q, Not):
        return definitely_disjoint(q, p, single_valued_paths) if not isinstance(p, Not) else False
    if isinstance(p, Exists) and isinstance(q, Empty):
        return str(p.path) == str(q.path)
    if isinstance(p, Empty) and isinstance(q, Exists):
        return str(p.path) == str(q.path)
    if isinstance(p, Contains) and isinstance(q, Not) and isinstance(q.inner, Contains):
        return str(p) == str(q.inner)
    return False


def covers_all(predicates: list[Predicate]) -> bool:
    """Syntactic completeness: does the disjunction cover every document?

    Recognizes the common complete designs: a complement pair among the
    predicates, an equality family ``{P=v1, ..., P=vk, P∉{v1..vk}}``
    expressed with a conjunction of ``≠`` atoms, or an explicit
    :class:`TruePredicate`. Returns False when coverage cannot be shown
    syntactically (an empirical check remains available in
    ``repro.partix.correctness``).
    """
    for p in predicates:
        if isinstance(p, TruePredicate):
            return True
    for i, p in enumerate(predicates):
        for q in predicates[i + 1 :]:
            if complements(p, q):
                return True
    # Equality family: fragments P=v1 ... P=vk plus a residual fragment
    # whose predicate entails P≠vi for every i.
    eq_values: dict[str, set[object]] = {}
    for p in predicates:
        if isinstance(p, Comparison) and p.op == "=":
            eq_values.setdefault(str(p.path), set()).add(p.value)
    for path_str, values in eq_values.items():
        for p in predicates:
            atoms = list(p.parts) if isinstance(p, And) else [p]
            ne_values = {
                a.value
                for a in atoms
                if isinstance(a, Comparison) and a.op == "!=" and str(a.path) == path_str
            }
            if ne_values and ne_values <= values and len(atoms) == len(ne_values):
                return True
    return False
