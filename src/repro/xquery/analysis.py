"""Static analysis of XQuery ASTs for distributed processing.

PartiX decomposes a query by confronting what the query *touches* with how
the collection is fragmented (§3: "when a query arrives, PartiX analyzes
the fragmentation schema to properly split it into sub-queries"). This
module extracts from an AST:

* the collections the query reads (``collection()`` calls);
* the absolute paths it navigates (entry paths of ``for`` variables plus
  relative continuations), used to match vertical fragments;
* a best-effort *selection predicate* in the simple-predicate language,
  used to prune horizontal fragments whose definition contradicts it;
* the top-level aggregation shape (``count``/``sum``/``min``/``max``/
  ``avg``), which tells the composer how to merge partial results;
* the *positional* filters (numeric, ``position()``, ``last()``
  predicates; ``for … at``) and what they count positions over — a
  fragmentation that spreads that sequence over several fragments cannot
  ship the query per fragment.

The analysis is conservative: whatever it cannot understand it reports as
"unknown", and the decomposer then ships the query to every fragment —
correct, merely less efficient. (The paper's prototype did not rewrite
automatically at all; see DESIGN.md.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.paths.ast import Axis, PathExpr, Step
from repro.paths.predicates import (
    And,
    Comparison,
    Contains,
    Empty,
    Exists,
    Not,
    Or,
    Predicate,
    StartsWith,
)
from repro.xquery.ast_nodes import (
    COLLECTION_FUNCTIONS,
    INPUT_FUNCTIONS,
    AttributeConstructor,
    AxisStep,
    BinaryOp,
    ContextItem,
    ElementConstructor,
    Expr,
    FLWOR,
    FilterExpr,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    Literal,
    PathApply,
    Quantified,
    RangeExpr,
    SequenceExpr,
    TextConstructor,
    UnaryOp,
    VarRef,
)
from repro.xquery.parser import parse_query
from repro.xquery.unparse import unparse

AGGREGATE_FUNCTIONS = frozenset({"count", "sum", "avg", "min", "max"})

#: Boolean quantifiers that decompose like aggregates: each fragment
#: ships one scalar (``true``/``false``) and the composer folds them with
#: any/all — the same O(1)-bytes-per-fragment pushdown as ``count``.
BOOLEAN_AGGREGATE_FUNCTIONS = frozenset({"exists", "empty"})

#: Everything :func:`_top_level_aggregate` recognizes for pushdown.
DECOMPOSABLE_AGGREGATES = AGGREGATE_FUNCTIONS | BOOLEAN_AGGREGATE_FUNCTIONS


@dataclass
class QueryAnalysis:
    """What the analyzer learned about one query."""

    collections: set[Optional[str]] = field(default_factory=set)
    documents: set[str] = field(default_factory=set)
    touched_paths: list[PathExpr] = field(default_factory=list)
    paths_exact: bool = True
    binding_paths: list[PathExpr] = field(default_factory=list)
    bindings_exact: bool = True
    predicate: Optional[Predicate] = None
    predicate_exact: bool = False
    aggregate: Optional[str] = None
    uses_text_search: bool = False
    #: Positional predicates on path steps, ``(focus, text)``: positions
    #: count among the nodes of absolute path ``focus`` (None: unknown)
    #: that one context node's step selects.
    positional_steps: list[tuple[Optional[PathExpr], str]] = field(
        default_factory=list
    )
    #: Positional filters over a sequence drawn from ``collection()``
    #: (``(collection("c")/a)[2]``, ``for $x at $p in collection("c")/a``):
    #: positions count across documents.
    positional_sequences: list[str] = field(default_factory=list)
    #: How many input-function calls (``collection()``, ``doc()``) the
    #: query makes.
    input_calls: int = 0

    def touched_path_strings(self) -> list[str]:
        return [str(p) for p in self.touched_paths]

    def selectivity_hint(self) -> float:
        """Crude fraction of a fragment's bytes the query's result keeps.

        Consumed by the planner's cost model
        (:class:`repro.plan.cost.CostModel`) to size estimated partial
        results. Deliberately coarse — three buckets, no statistics:
        aggregates ship a scalar (0.0), a selection predicate filters
        (0.25), everything else projects most of what it scans (0.75).
        """
        if self.aggregate is not None:
            return 0.0
        if self.predicate is not None:
            return 0.25
        return 0.75


def analyze_query(query: Union[str, Expr]) -> QueryAnalysis:
    """Analyze a query given as text or AST."""
    expr = parse_query(query) if isinstance(query, str) else query
    analysis = QueryAnalysis()
    analysis.aggregate = _top_level_aggregate(expr)
    walk_target = expr
    if analysis.aggregate == "count":
        # count() only needs cardinality: a counted FLWOR returning the
        # bare iteration variable touches nothing through that return.
        walk_target = _neutralize_counted_returns(expr)
    analyzer = _Analyzer(analysis)
    analyzer.walk(walk_target, {})
    predicate, exact = analyzer.selection_predicate(expr)
    analysis.input_calls = sum(
        isinstance(node, FunctionCall) and node.name in INPUT_FUNCTIONS
        for node in _descendants(expr)
    )
    if analysis.positional_sequences or analysis.input_calls > 1:
        # Pruning documents (or fragments) by the predicate would
        # renumber the very sequence such a filter counts over; and a
        # predicate extracted for one input call would narrow every
        # other input call of the query too.
        predicate, exact = None, False
    analysis.predicate = predicate
    analysis.predicate_exact = exact
    return analysis


def analyze_in_scope(
    exprs: list[Expr], var_paths: dict[str, Optional[PathExpr]]
) -> QueryAnalysis:
    """What part of a query reads: ``exprs`` (a ``where`` conjunct, the
    ``order by`` keys and the ``return``) walked with the variables of
    ``var_paths`` in scope. Only the path and binding fields are filled."""
    analysis = QueryAnalysis()
    analyzer = _Analyzer(analysis)
    for expr in exprs:
        analyzer.walk(expr, dict(var_paths))
    return analysis


def condition_predicate(
    expr: Expr, var_paths: dict[str, Optional[PathExpr]]
) -> Optional[Predicate]:
    """One boolean expression as a simple :class:`Predicate` (None when
    it is not expressible), with ``var_paths`` in scope."""
    return _Analyzer(QueryAnalysis()).convert_condition(expr, var_paths)


def _neutralize_counted_returns(expr: Expr) -> Expr:
    """Replace ``count(for ... return $v)``'s return with a literal.

    Only applied for path/binding analysis — never for execution — so the
    decomposer localizes such counts to the fragments the *filters* touch.
    """
    if isinstance(expr, FunctionCall) and expr.name == "count" and len(expr.args) == 1:
        inner = expr.args[0]
        if isinstance(inner, FLWOR) and isinstance(inner.return_expr, VarRef):
            neutral = FLWOR(
                inner.clauses, inner.where, inner.order_by, Literal(1)
            )
            return FunctionCall("count", (neutral,))
    if isinstance(expr, ElementConstructor) and len(expr.content) == 1:
        return ElementConstructor(
            expr.name, (_neutralize_counted_returns(expr.content[0]),)
        )
    if isinstance(expr, FLWOR) and all(
        isinstance(c, LetClause) for c in expr.clauses
    ):
        return FLWOR(
            expr.clauses,
            expr.where,
            expr.order_by,
            _neutralize_counted_returns(expr.return_expr),
        )
    return expr


def _top_level_aggregate(expr: Expr) -> Optional[str]:
    """Aggregate function applied at the outermost level, if any.

    Recognizes ``count(...)``, ``element r { count(...) }`` and
    ``let ... return count(...)`` shapes. ``avg`` is reported but the
    composer re-derives it from distributed sum/count. ``exists``/
    ``empty`` count as aggregates too: their partials are one boolean
    per fragment, folded by the composer with any/all.
    """
    if isinstance(expr, FunctionCall) and expr.name in DECOMPOSABLE_AGGREGATES:
        return expr.name
    if isinstance(expr, ElementConstructor) and len(expr.content) == 1:
        return _top_level_aggregate(expr.content[0])
    if isinstance(expr, FLWOR) and all(
        isinstance(c, LetClause) for c in expr.clauses
    ):
        return _top_level_aggregate(expr.return_expr)
    return None


def steps_to_path(
    steps: tuple[AxisStep, ...],
    prefix: Optional[PathExpr] = None,
    ignore_predicates: bool = True,
) -> Optional[PathExpr]:
    """Convert XQuery axis steps to a :class:`PathExpr` when possible.

    Step predicates only *filter* the selected node set, so for location
    analysis they are dropped by default (``ignore_predicates``); their
    inner conditions are analyzed separately. A trailing ``text()`` test
    (value access) is dropped; a non-trailing one cannot be expressed and
    makes the conversion give up (returns None).
    """
    converted: list[Step] = list(prefix.steps) if prefix is not None else []
    for index, step in enumerate(steps):
        if step.is_text:
            if index == len(steps) - 1:
                break  # trailing text() reads the value of the prior step
            return None
        if step.predicates and not ignore_predicates:
            return None
        axis = Axis.DESCENDANT if step.axis == "descendant-or-self" else Axis.CHILD
        converted.append(
            Step(axis=axis, name=step.name, is_attribute=step.is_attribute)
        )
    if not converted:
        return None
    try:
        return PathExpr(tuple(converted))
    except ValueError:
        return None


class _Analyzer:
    """Single-pass walker recording collections, documents and paths."""

    def __init__(self, analysis: QueryAnalysis):
        self.analysis = analysis
        self._let_vars: set[str] = set()
        #: ``let`` variables bound to a sequence drawn from collection().
        self._spanning_vars: set[str] = set()

    # ------------------------------------------------------------------
    def walk(self, expr: Expr, var_paths: dict[str, Optional[PathExpr]]) -> None:
        """Recursively record inputs and touched paths.

        ``var_paths`` maps in-scope variables to the absolute path their
        items were selected by (None when unknown).
        """
        if isinstance(expr, FunctionCall):
            self._record_input(expr)
            if expr.name in ("contains", "starts-with", "ends-with"):
                self.analysis.uses_text_search = True
            if expr.name in ("string", "number") and not expr.args:
                self._touch_context(var_paths)
            for arg in expr.args:
                self.walk(arg, var_paths)
            return
        if isinstance(expr, PathApply):
            path = self.resolve_path(expr, var_paths)
            if path is not None:
                self.analysis.touched_paths.append(path)
            else:
                self.analysis.paths_exact = False
            # Var/context primaries are consumed by path resolution; other
            # primaries (collection calls, nested expressions) are walked.
            if expr.primary is not None and not isinstance(
                expr.primary, (VarRef, ContextItem)
            ):
                self.walk(expr.primary, var_paths)
            self._walk_step_predicates(expr, var_paths)
            return
        if isinstance(expr, FilterExpr):
            if self._spans_documents(expr.primary) and any(
                _is_positional(predicate) for predicate in expr.predicates
            ):
                self.analysis.positional_sequences.append(unparse(expr))
            self.walk(expr.primary, var_paths)
            focus = dict(var_paths)
            focus["__context__"] = self._binding_path(expr.primary, var_paths)
            for predicate in expr.predicates:
                self.walk(predicate, focus)
            return
        if isinstance(expr, VarRef):
            # A variable used *bare* (not as a path primary) exposes its
            # whole binding: record the binding path as touched.
            binding = var_paths.get(expr.name)
            if binding is not None:
                self.analysis.touched_paths.append(binding)
            elif expr.name not in self._let_vars:
                self.analysis.paths_exact = False
            return
        if isinstance(expr, ContextItem):
            self._touch_context(var_paths)
            return
        if isinstance(expr, FLWOR):
            scope = dict(var_paths)
            for clause in expr.clauses:
                if isinstance(clause, ForClause):
                    self._walk_binding_seq(clause.seq, scope)
                    scope[clause.var] = self._iteration_path(clause.seq, scope)
                    if clause.position_var:
                        self._let_vars.add(clause.position_var)
                        if self._spans_documents(clause.seq):
                            self.analysis.positional_sequences.append(
                                f"for ${clause.var} at ${clause.position_var}"
                                f" in {unparse(clause.seq)}"
                            )
                else:
                    self._walk_binding_seq(clause.expr, scope)
                    scope[clause.var] = self._binding_path(clause.expr, scope)
                    if scope[clause.var] is None:
                        self._let_vars.add(clause.var)
                    if self._spans_documents(clause.expr):
                        self._spanning_vars.add(clause.var)
            if expr.where is not None:
                self.walk(expr.where, scope)
            for spec in expr.order_by:
                self.walk(spec.key, scope)
            self.walk(expr.return_expr, scope)
            return
        if isinstance(expr, Quantified):
            scope = dict(var_paths)
            self._walk_binding_seq(expr.seq, scope)
            scope[expr.var] = self._iteration_path(expr.seq, scope)
            self.walk(expr.condition, scope)
            return
        for child in _children(expr):
            self.walk(child, var_paths)

    def _walk_binding_seq(
        self, seq: Expr, var_paths: dict[str, Optional[PathExpr]]
    ) -> None:
        """Walk a for/let binding sequence without recording its own path.

        The binding path only *navigates to* the items; what the query
        touches is determined by how the variable is used. Inputs
        (collection calls) and step predicates are still recorded.
        """
        if isinstance(seq, PathApply):
            if seq.primary is not None:
                self.walk(seq.primary, var_paths)
            self._walk_step_predicates(seq, var_paths)
            if self.resolve_path(seq, var_paths) is None:
                self.analysis.paths_exact = False
            return
        self.walk(seq, var_paths)

    def _walk_step_predicates(
        self, expr: PathApply, var_paths: dict[str, Optional[PathExpr]]
    ) -> None:
        """Walk the predicates of every step with the step's own nodes as
        the focus: relative paths and ``.`` inside ``[...]`` resolve
        against the path up to and including that step."""
        for position, step in enumerate(expr.steps):
            if not step.predicates:
                continue
            focus = dict(var_paths)
            focus["__context__"] = self.focus_path(expr, position, var_paths)
            for predicate in step.predicates:
                if _is_positional(predicate):
                    text = f"{step.name}[{unparse(predicate)}]"
                    self.analysis.positional_steps.append(
                        (focus["__context__"], text)
                    )
                self.walk(predicate, focus)

    def _spans_documents(self, expr: Expr) -> bool:
        """Does ``expr``'s sequence draw on ``collection()`` — directly
        or through a ``let`` variable bound to one that does — so that
        its items may come from several documents? (A ``for`` variable
        is one node of one document: a path from it does not.)"""
        return any(
            (
                isinstance(node, FunctionCall)
                and node.name in COLLECTION_FUNCTIONS
            )
            or (isinstance(node, VarRef) and node.name in self._spanning_vars)
            for node in _descendants(expr)
        )

    def focus_path(
        self,
        expr: PathApply,
        position: int,
        var_paths: dict[str, Optional[PathExpr]],
    ) -> Optional[PathExpr]:
        """Absolute path of the nodes step ``position`` of ``expr`` selects
        — the focus its predicates run with (None when not derivable)."""
        upto = PathApply(
            expr.primary, expr.steps[: position + 1], expr.absolute
        )
        return self.resolve_path(upto, var_paths)

    def _touch_context(self, var_paths: dict[str, Optional[PathExpr]]) -> None:
        """The context item used for its *value* (``.``, ``string()``):
        its whole subtree is read, wherever the focus came from."""
        context = var_paths.get("__context__")
        if context is not None:
            self.analysis.touched_paths.append(context)
        else:
            self.analysis.paths_exact = False

    def _iteration_path(
        self, seq: Expr, var_paths: dict[str, Optional[PathExpr]]
    ) -> Optional[PathExpr]:
        """Binding path of a ``for``/``some``/``every`` variable, recorded:
        the nodes it selects are iterated, so each must exist (how many
        there are shapes the answer) even when nothing below is read."""
        path = self._binding_path(seq, var_paths)
        if path is not None:
            self.analysis.binding_paths.append(path)
        else:
            self.analysis.bindings_exact = False
        return path

    def _record_input(self, call: FunctionCall) -> None:
        if call.name in COLLECTION_FUNCTIONS:
            if call.args and isinstance(call.args[0], Literal):
                self.analysis.collections.add(str(call.args[0].value))
            else:
                self.analysis.collections.add(None)
        elif call.name == "doc":
            if call.args and isinstance(call.args[0], Literal):
                self.analysis.documents.add(str(call.args[0].value))

    def _binding_path(
        self, seq: Expr, var_paths: dict[str, Optional[PathExpr]]
    ) -> Optional[PathExpr]:
        if isinstance(seq, PathApply):
            return self.resolve_path(seq, var_paths)
        return None

    def resolve_path(
        self, expr: PathApply, var_paths: dict[str, Optional[PathExpr]]
    ) -> Optional[PathExpr]:
        """Absolute path selected by ``expr``, when statically derivable."""
        if expr.primary is None:
            return steps_to_path(expr.steps)
        if isinstance(expr.primary, ContextItem):
            # Context-relative: only resolvable when the caller knows the
            # context path (registered under the pseudo-variable name).
            base = var_paths.get("__context__")
            if base is None:
                return None
            return steps_to_path(expr.steps, prefix=base)
        if (
            isinstance(expr.primary, FunctionCall)
            and expr.primary.name in INPUT_FUNCTIONS
        ):
            return steps_to_path(expr.steps)
        if isinstance(expr.primary, VarRef):
            base = var_paths.get(expr.primary.name)
            if base is None:
                return None
            return steps_to_path(expr.steps, prefix=base)
        if isinstance(expr.primary, PathApply):
            base = self.resolve_path(expr.primary, var_paths)
            if base is None:
                return None
            return steps_to_path(expr.steps, prefix=base)
        return None

    # ------------------------------------------------------------------
    # Selection-predicate extraction
    # ------------------------------------------------------------------
    def selection_predicate(self, expr: Expr) -> tuple[Optional[Predicate], bool]:
        """Best-effort conversion of the query's filters into a Predicate.

        Returns ``(predicate, exact)``: ``predicate`` is None when nothing
        was extracted; ``exact`` is True when *all* filters were captured
        (so the decomposer may rely on it for pruning without re-checking).
        """
        collector = _PredicateCollector(self)
        collector.collect(expr, {})
        if not collector.parts:
            return None, collector.exact
        if len(collector.parts) == 1:
            return collector.parts[0], collector.exact
        return And(tuple(collector.parts)), collector.exact

    def convert_condition(
        self, expr: Expr, var_paths: dict[str, Optional[PathExpr]]
    ) -> Optional[Predicate]:
        """Convert a boolean expression into a simple Predicate, or None."""
        if isinstance(expr, BinaryOp):
            if expr.op == "and":
                left = self.convert_condition(expr.left, var_paths)
                right = self.convert_condition(expr.right, var_paths)
                if left is not None and right is not None:
                    return And((left, right))
                return None
            if expr.op == "or":
                left = self.convert_condition(expr.left, var_paths)
                right = self.convert_condition(expr.right, var_paths)
                if left is not None and right is not None:
                    return Or((left, right))
                return None
            if expr.op in ("=", "!=", "<", "<=", ">", ">="):
                return self._convert_comparison(expr, var_paths)
            return None
        if isinstance(expr, FunctionCall):
            return self._convert_boolean_function(expr, var_paths)
        if isinstance(expr, PathApply):
            path = self.resolve_path(expr, var_paths)
            return Exists(path) if path is not None else None
        return None

    def _convert_comparison(
        self, expr: BinaryOp, var_paths: dict[str, Optional[PathExpr]]
    ) -> Optional[Predicate]:
        sides = [(expr.left, expr.right, expr.op), (expr.right, expr.left, _flip(expr.op))]
        for path_side, value_side, op in sides:
            if isinstance(path_side, PathApply) and isinstance(value_side, Literal):
                path = self.resolve_path(path_side, var_paths)
                if path is not None:
                    return Comparison(path, op, value_side.value)
        return None

    def _convert_boolean_function(
        self, expr: FunctionCall, var_paths: dict[str, Optional[PathExpr]]
    ) -> Optional[Predicate]:
        if expr.name == "not" and len(expr.args) == 1:
            inner = self.convert_condition(expr.args[0], var_paths)
            return Not(inner) if inner is not None else None
        if expr.name in ("contains", "starts-with") and len(expr.args) == 2:
            path_arg, needle_arg = expr.args
            if isinstance(path_arg, PathApply) and isinstance(needle_arg, Literal):
                path = self.resolve_path(path_arg, var_paths)
                if path is None:
                    return None
                needle = str(needle_arg.value)
                if expr.name == "contains":
                    return Contains(path, needle)
                return StartsWith(path, needle)
            return None
        if expr.name in ("empty", "exists") and len(expr.args) == 1:
            arg = expr.args[0]
            if isinstance(arg, PathApply):
                path = self.resolve_path(arg, var_paths)
                if path is None:
                    return None
                return Empty(path) if expr.name == "empty" else Exists(path)
        return None


class _PredicateCollector:
    """Collects where-clause and step-predicate filters along for-chains."""

    def __init__(self, analyzer: _Analyzer):
        self.analyzer = analyzer
        self.parts: list[Predicate] = []
        self.exact = True

    def collect(self, expr: Expr, var_paths: dict[str, Optional[PathExpr]]) -> None:
        if isinstance(expr, FLWOR):
            scope = dict(var_paths)
            for clause in expr.clauses:
                if isinstance(clause, ForClause):
                    self._collect_step_predicates(clause.seq, scope)
                    scope[clause.var] = self.analyzer._binding_path(clause.seq, scope)
                else:
                    scope[clause.var] = self.analyzer._binding_path(clause.expr, scope)
            if expr.where is not None:
                converted = self.analyzer.convert_condition(expr.where, scope)
                if converted is not None:
                    self.parts.append(converted)
                else:
                    self.exact = False
            self.collect(expr.return_expr, scope)
            return
        if isinstance(expr, (ElementConstructor, SequenceExpr)):
            children = expr.content if isinstance(expr, ElementConstructor) else expr.items
            for child in children:
                self.collect(child, var_paths)
            return
        if isinstance(expr, FunctionCall):
            for arg in expr.args:
                self.collect(arg, var_paths)
            return
        if isinstance(expr, PathApply):
            self._collect_step_predicates(expr, var_paths)

    def _collect_step_predicates(
        self, expr: Expr, var_paths: dict[str, Optional[PathExpr]]
    ) -> None:
        if not isinstance(expr, PathApply):
            return
        # Predicates inside steps (e.g. /Item[Section="CD"]) apply with the
        # step's node as context; resolve them against the path up to and
        # including that step.
        for position, step in enumerate(expr.steps):
            if not step.predicates:
                continue
            context_path = self.analyzer.focus_path(expr, position, var_paths)
            for predicate in step.predicates:
                converted = self._convert_relative(predicate, context_path)
                if converted is not None:
                    self.parts.append(converted)
                else:
                    self.exact = False

    def _convert_relative(
        self, predicate: Expr, context_path: Optional[PathExpr]
    ) -> Optional[Predicate]:
        if context_path is None:
            return None
        # Inside a step predicate, bare relative paths hang off the context
        # node; reuse convert_condition with a pseudo-variable.
        pseudo = {"__context__": context_path}
        rewritten = _rewrite_context(predicate)
        return self.analyzer.convert_condition(rewritten, pseudo)


def _rewrite_context(expr: Expr) -> Expr:
    """Replace ContextItem primaries with a pseudo-variable for resolution."""
    if isinstance(expr, PathApply):
        primary = expr.primary
        if primary is None or isinstance(primary, ContextItem):
            primary = VarRef("__context__")
        else:
            primary = _rewrite_context(primary)
        return PathApply(primary, expr.steps, expr.absolute)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, _rewrite_context(expr.left), _rewrite_context(expr.right))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(_rewrite_context(a) for a in expr.args))
    return expr


def _flip(op: str) -> str:
    return {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]


def _children(expr: Expr) -> list[Expr]:
    """Direct sub-expressions (step predicates and clause sequences
    included)."""
    if isinstance(expr, SequenceExpr):
        return list(expr.items)
    if isinstance(expr, RangeExpr):
        return [expr.start, expr.end]
    if isinstance(expr, BinaryOp):
        return [expr.left, expr.right]
    if isinstance(expr, UnaryOp):
        return [expr.operand]
    if isinstance(expr, IfExpr):
        return [expr.condition, expr.then_branch, expr.else_branch]
    if isinstance(expr, FilterExpr):
        return [expr.primary, *expr.predicates]
    if isinstance(expr, (ElementConstructor, AttributeConstructor, TextConstructor)):
        return list(expr.content)
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, PathApply):
        children = [] if expr.primary is None else [expr.primary]
        for step in expr.steps:
            children.extend(step.predicates)
        return children
    if isinstance(expr, FLWOR):
        children = [
            clause.seq if isinstance(clause, ForClause) else clause.expr
            for clause in expr.clauses
        ]
        if expr.where is not None:
            children.append(expr.where)
        children.extend(spec.key for spec in expr.order_by)
        return [*children, expr.return_expr]
    if isinstance(expr, Quantified):
        return [expr.seq, expr.condition]
    return []


def _descendants(expr: Expr):
    """``expr`` and every expression nested in it."""
    pending = [expr]
    while pending:
        node = pending.pop()
        yield node
        pending.extend(_children(node))


#: Built-ins whose value is a boolean or a string, never a number.
_NON_NUMERIC_FUNCTIONS = frozenset(
    {
        "not", "exists", "empty", "boolean", "true", "false", "contains",
        "starts-with", "ends-with", "matches", "string", "concat", "name",
    }
)


def _is_positional(predicate: Expr) -> bool:
    """Could the bracketed ``predicate`` select by position? It does
    when it calls ``position()``/``last()`` or its value may be one
    number (the filter keeps the item at that position). Conservative:
    only a comparison, a connective, a path, ``.``, a quantifier, a
    string and a non-numeric built-in are known not to be numbers, and a
    ``position()`` inside a nested predicate (its own focus) counts."""
    if any(
        isinstance(node, FunctionCall) and node.name in ("position", "last")
        for node in _descendants(predicate)
    ):
        return True
    if isinstance(predicate, BinaryOp):
        return predicate.op in ("+", "-", "*", "div", "mod")
    if isinstance(predicate, FunctionCall):
        return predicate.name not in _NON_NUMERIC_FUNCTIONS
    if isinstance(predicate, Literal):
        return not isinstance(predicate.value, str)
    return not isinstance(predicate, (PathApply, ContextItem, Quantified))
