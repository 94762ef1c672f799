"""Evaluator for the XQuery subset.

The evaluator walks the AST against a :class:`DynamicContext`, which
carries variable bindings, the context item (``.`` / position / size) and
a :class:`DocumentProvider` that resolves ``collection()``/``doc()`` calls.
Sequences are Python lists of nodes and atomics (see
:mod:`repro.xquery.values`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller
from typing import Callable, Optional, Protocol, Union

from repro.datamodel.tree import Node, NodeKind, XMLNode
from repro.errors import XQueryEvaluationError, XQueryTypeError
from repro.xquery import functions as fnlib
from repro.xquery.ast_nodes import (
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
from repro.xquery.values import (
    atomic_to_string,
    atomize,
    effective_boolean,
    general_compare,
    is_numeric_like,
    to_number,
)


class DocumentProvider(Protocol):
    """Resolves the input functions of the query."""

    def collection_roots(
        self, name: Optional[str], origins: Optional[frozenset] = None
    ) -> list[Node]:
        """Root elements of the named collection (default when None);
        with ``origins`` (``px:collection``, asked of providers over
        *stored* documents only), those of the documents whose recorded
        origin is in the set."""
        ...  # pragma: no cover - protocol

    def document_root(self, name: str) -> Optional[Node]:
        """Root element of the named document, or None."""
        ...  # pragma: no cover - protocol


class EmptyProvider:
    """A provider with no documents (queries over literals only)."""

    def collection_roots(
        self, name: Optional[str], origins: Optional[frozenset] = None
    ) -> list[Node]:
        raise XQueryEvaluationError(
            f"no document provider: cannot resolve collection({name!r})"
        )

    def document_root(self, name: str) -> Optional[Node]:
        raise XQueryEvaluationError(
            f"no document provider: cannot resolve doc({name!r})"
        )


@dataclass(frozen=True)
class DynamicContext:
    """Dynamic evaluation context."""

    provider: DocumentProvider = field(default_factory=EmptyProvider)
    variables: dict[str, list] = field(default_factory=dict)
    context_item: Optional[Union[Node, str, int, float, bool]] = None
    position: int = 1
    size: int = 1

    # Built directly rather than through ``dataclasses.replace``: these
    # run once per bound tuple and per predicate candidate.
    def with_var(self, name: str, value: list) -> "DynamicContext":
        variables = dict(self.variables)
        variables[name] = value
        return DynamicContext(
            self.provider, variables, self.context_item, self.position, self.size
        )

    def with_focus(self, item, position: int, size: int) -> "DynamicContext":
        return DynamicContext(self.provider, self.variables, item, position, size)


def evaluate_query(
    query: Union[str, Expr],
    provider: Optional[DocumentProvider] = None,
    variables: Optional[dict[str, list]] = None,
    context_item=None,
) -> list:
    """Parse (when given text) and evaluate a query; returns a sequence."""
    expr = parse_query(query) if isinstance(query, str) else query
    ctx = DynamicContext(
        provider=provider if provider is not None else EmptyProvider(),
        variables=dict(variables or {}),
        context_item=context_item,
    )
    return Evaluator().evaluate(expr, ctx)


class Evaluator:
    """AST-walking evaluator.

    Nodes are touched only through the :class:`~repro.datamodel.tree.Node`
    accessor, so the same rules run over stored-table handles and DOM
    trees; the one tree an evaluation builds is the copy an element
    constructor embeds.
    """

    def __init__(self, clone=methodcaller("clone")) -> None:
        #: How an element constructor copies a node it embeds (the engine
        #: passes ``EngineStats.clone_node``, counting trees from storage).
        self._clone = clone

    def evaluate(self, expr: Expr, ctx: DynamicContext) -> list:
        rule = _RULES.get(type(expr))
        if rule is None:
            raise XQueryEvaluationError(
                f"no evaluation rule for {type(expr).__name__}"
            )
        return rule(self, expr, ctx)

    # ------------------------------------------------------------------
    # Primaries
    # ------------------------------------------------------------------
    def _eval_Literal(self, expr: Literal, ctx: DynamicContext) -> list:
        return [expr.value]

    def _eval_VarRef(self, expr: VarRef, ctx: DynamicContext) -> list:
        try:
            return list(ctx.variables[expr.name])
        except KeyError:
            raise XQueryEvaluationError(f"unbound variable ${expr.name}") from None

    def _eval_ContextItem(self, expr: ContextItem, ctx: DynamicContext) -> list:
        if ctx.context_item is None:
            raise XQueryEvaluationError("context item is undefined")
        return [ctx.context_item]

    def _eval_SequenceExpr(self, expr: SequenceExpr, ctx: DynamicContext) -> list:
        result: list = []
        for item in expr.items:
            result.extend(self.evaluate(item, ctx))
        return result

    def _eval_RangeExpr(self, expr: RangeExpr, ctx: DynamicContext) -> list:
        start_seq = self.evaluate(expr.start, ctx)
        end_seq = self.evaluate(expr.end, ctx)
        if not start_seq or not end_seq:
            return []
        start = int(to_number(atomize(start_seq)[0]))
        end = int(to_number(atomize(end_seq)[0]))
        return list(range(start, end + 1))

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def _eval_BinaryOp(self, expr: BinaryOp, ctx: DynamicContext) -> list:
        op = expr.op
        if op == "and":
            left = effective_boolean(self.evaluate(expr.left, ctx))
            if not left:
                return [False]
            return [effective_boolean(self.evaluate(expr.right, ctx))]
        if op == "or":
            left = effective_boolean(self.evaluate(expr.left, ctx))
            if left:
                return [True]
            return [effective_boolean(self.evaluate(expr.right, ctx))]
        left_seq = self.evaluate(expr.left, ctx)
        right_seq = self.evaluate(expr.right, ctx)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return [general_compare(left_seq, right_seq, op)]
        if op in ("union", "intersect", "except"):
            return _node_set_op(op, left_seq, right_seq)
        if op in ("+", "-", "*", "div", "mod"):
            if not left_seq or not right_seq:
                return []
            a = to_number(atomize(left_seq)[0])
            b = to_number(atomize(right_seq)[0])
            try:
                if op == "+":
                    return [a + b]
                if op == "-":
                    return [a - b]
                if op == "*":
                    return [a * b]
                if op == "div":
                    return [a / b]
                return [a % b]
            except ZeroDivisionError:
                raise XQueryEvaluationError("division by zero") from None
        raise XQueryEvaluationError(f"unknown operator {op!r}")

    def _eval_UnaryOp(self, expr: UnaryOp, ctx: DynamicContext) -> list:
        seq = self.evaluate(expr.operand, ctx)
        if not seq:
            return []
        value = to_number(atomize(seq)[0])
        return [-value if expr.op == "-" else value]

    # ------------------------------------------------------------------
    # Functions and conditionals
    # ------------------------------------------------------------------
    def _eval_FunctionCall(self, expr: FunctionCall, ctx: DynamicContext) -> list:
        impl = fnlib.lookup(expr.name)
        args = [self.evaluate(arg, ctx) for arg in expr.args]
        return impl(ctx, args)

    def _eval_IfExpr(self, expr: IfExpr, ctx: DynamicContext) -> list:
        if effective_boolean(self.evaluate(expr.condition, ctx)):
            return self.evaluate(expr.then_branch, ctx)
        return self.evaluate(expr.else_branch, ctx)

    def _eval_Quantified(self, expr: Quantified, ctx: DynamicContext) -> list:
        seq = self.evaluate(expr.seq, ctx)
        results = (
            effective_boolean(
                self.evaluate(expr.condition, ctx.with_var(expr.var, [item]))
            )
            for item in seq
        )
        if expr.kind == "some":
            return [any(results)]
        return [all(results)]

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _eval_PathApply(self, expr: PathApply, ctx: DynamicContext) -> list:
        if expr.primary is None:
            # Absolute path: anchor at the root of the context item's tree.
            if not isinstance(ctx.context_item, Node):
                raise XQueryEvaluationError(
                    "absolute path with no context document"
                )
            sequence: list = [ctx.context_item.root()]
            virtual_first = True
        else:
            sequence = self.evaluate(expr.primary, ctx)
            # collection()/doc() return root *elements*; the first step
            # after them addresses the (virtual) document node's child, so
            # it must match the roots themselves — eXist semantics for
            # collection("c")/Item.
            virtual_first = isinstance(expr.primary, FunctionCall) and (
                expr.primary.name in INPUT_FUNCTIONS
            )
        for index, step in enumerate(expr.steps):
            first = virtual_first and index == 0
            sequence = self._apply_step(step, sequence, ctx, first)
            if not sequence:
                return []
        return sequence

    def _apply_step(
        self,
        step: AxisStep,
        sequence: list,
        ctx: DynamicContext,
        virtual_first: bool,
    ) -> list:
        """``virtual_first``: the leading step after ``collection()``/
        ``doc()`` or of an absolute path — each context node plays the
        document node's child, ``//`` reaches its whole tree."""
        if step.is_text:
            kind, name = NodeKind.TEXT, None
        elif step.is_attribute:
            kind, name = NodeKind.ATTRIBUTE, step.name
        else:
            kind, name = NodeKind.ELEMENT, None if step.name == "*" else step.name
        descend = step.axis != "child"
        results: dict[Node, None] = {}  # insertion-ordered identity set
        for item in sequence:
            if not isinstance(item, Node):
                raise XQueryTypeError(
                    f"path step /{step.name} applied to an atomic value"
                )
            matched = item.select(kind, name, descend, or_self=virtual_first)
            if step.predicates:
                matched = self._filter(matched, step.predicates, ctx)
            if len(sequence) == 1:
                # One context node: ``select`` is already unique and in
                # document order.
                return matched
            for node in matched:
                results[node] = None
        return list(results)

    def _filter(
        self, sequence: list, predicates: tuple[Expr, ...], ctx: DynamicContext
    ) -> list:
        for predicate in predicates:
            size = len(sequence)
            kept = []
            for position, item in enumerate(sequence, start=1):
                inner = ctx.with_focus(item, position, size)
                value = self.evaluate(predicate, inner)
                if len(value) == 1 and isinstance(value[0], (int, float)) and not isinstance(value[0], bool):
                    if to_number(value[0]) == position:
                        kept.append(item)
                elif effective_boolean(value):
                    kept.append(item)
            sequence = kept
        return sequence

    def _eval_FilterExpr(self, expr: FilterExpr, ctx: DynamicContext) -> list:
        sequence = self.evaluate(expr.primary, ctx)
        return self._filter(sequence, expr.predicates, ctx)

    # ------------------------------------------------------------------
    # FLWOR
    # ------------------------------------------------------------------
    def _eval_FLWOR(self, expr: FLWOR, ctx: DynamicContext) -> list:
        tuples = [ctx]
        for clause in expr.clauses:
            if isinstance(clause, ForClause):
                new_tuples = []
                for tup in tuples:
                    seq = self.evaluate(clause.seq, tup)
                    for position, item in enumerate(seq, start=1):
                        bound = tup.with_var(clause.var, [item])
                        if clause.position_var is not None:
                            bound = bound.with_var(clause.position_var, [position])
                        new_tuples.append(bound)
                tuples = new_tuples
            else:
                assert isinstance(clause, LetClause)
                tuples = [
                    tup.with_var(clause.var, self.evaluate(clause.expr, tup))
                    for tup in tuples
                ]
        if expr.where is not None:
            tuples = [
                tup
                for tup in tuples
                if effective_boolean(self.evaluate(expr.where, tup))
            ]
        if expr.order_by:
            tuples = self._order_tuples(tuples, expr)
        results: list = []
        for tup in tuples:
            results.extend(self.evaluate(expr.return_expr, tup))
        return results

    def _order_tuples(self, tuples: list[DynamicContext], expr: FLWOR) -> list:
        def sort_key_for(spec_index: int):
            spec = expr.order_by[spec_index]

            def key(tup: DynamicContext):
                seq = atomize(self.evaluate(spec.key, tup))
                if not seq:
                    return (0, 0.0, "")
                value = seq[0]
                if is_numeric_like(value):
                    return (1, to_number(value), "")
                return (2, 0.0, atomic_to_string(value))

            return key

        # Stable multi-key sort: apply specs right-to-left.
        ordered = list(tuples)
        for index in range(len(expr.order_by) - 1, -1, -1):
            ordered.sort(
                key=sort_key_for(index), reverse=expr.order_by[index].descending
            )
        return ordered

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    def _eval_ElementConstructor(
        self, expr: ElementConstructor, ctx: DynamicContext
    ) -> list:
        element = XMLNode.element(expr.name)
        pending_text: list[str] = []

        def flush() -> None:
            if pending_text:
                element.append(XMLNode.text(" ".join(pending_text)))
                pending_text.clear()

        for content_expr in expr.content:
            for item in self.evaluate(content_expr, ctx):
                if isinstance(item, Node):
                    flush()
                    copy = self._clone(item)
                    if copy.kind is NodeKind.ATTRIBUTE and element.children:
                        # Attributes must precede content; tolerate by
                        # inserting before non-attribute children.
                        copy.parent = element
                        element.children.insert(len(element.attributes()), copy)
                    else:
                        element.append(copy)
                else:
                    pending_text.append(atomic_to_string(item))
        flush()
        return [element]

    def _eval_AttributeConstructor(
        self, expr: AttributeConstructor, ctx: DynamicContext
    ) -> list:
        parts = []
        for content_expr in expr.content:
            for item in self.evaluate(content_expr, ctx):
                if isinstance(item, Node):
                    parts.append(item.text_value())
                else:
                    parts.append(atomic_to_string(item))
        return [XMLNode.attribute(expr.name, " ".join(parts))]

    def _eval_TextConstructor(self, expr: TextConstructor, ctx: DynamicContext) -> list:
        parts = []
        for content_expr in expr.content:
            for item in self.evaluate(content_expr, ctx):
                parts.append(
                    item.text_value()
                    if isinstance(item, Node)
                    else atomic_to_string(item)
                )
        return [XMLNode.text(" ".join(parts))]


#: ``Evaluator._eval_<AST type name>`` by AST type, so that dispatch is
#: one dict lookup.
_RULES: dict[type, Callable] = {
    expr_type: rule
    for expr_type in Expr.__subclasses__()
    if (rule := getattr(Evaluator, "_eval_" + expr_type.__name__, None))
}


def _node_set_op(op: str, left: list, right: list) -> list:
    for item in left + right:
        if not isinstance(item, Node):
            raise XQueryTypeError(f"{op} operands must be node sequences")
    if op == "union":
        candidates = left + right
    elif op == "intersect":
        members = set(right)
        candidates = [node for node in left if node in members]
    else:  # except
        members = set(right)
        candidates = [node for node in left if node not in members]
    return list(dict.fromkeys(candidates))
