"""AST-to-text serialization for the XQuery subset.

The PartiX decomposer rewrites query ASTs (collection renaming, path
prefix stripping, aggregate splitting) and ships the result to drivers as
*text* — the only interface a remote DBMS offers. ``parse(unparse(ast))``
is the identity on our AST (a property test asserts it).
"""

from __future__ import annotations

from repro.errors import XQueryEvaluationError
from repro.xquery.ast_nodes import (
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

_KEYWORD_OPS = {"div", "mod", "union", "intersect", "except", "and", "or", "to"}


def unparse(expr: Expr) -> str:
    """Render an AST back to parseable query text."""
    return _unparse(expr)


def _unparse(expr: Expr) -> str:
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            escaped = expr.value.replace('"', '""')
            return f'"{escaped}"'
        if isinstance(expr.value, float) and expr.value.is_integer():
            return str(expr.value)
        return str(expr.value)
    if isinstance(expr, VarRef):
        return f"${expr.name}"
    if isinstance(expr, ContextItem):
        return "."
    if isinstance(expr, SequenceExpr):
        return "(" + ", ".join(_unparse(item) for item in expr.items) + ")"
    if isinstance(expr, RangeExpr):
        return f"({_unparse(expr.start)} to {_unparse(expr.end)})"
    if isinstance(expr, BinaryOp):
        op = expr.op if expr.op not in _KEYWORD_OPS else f" {expr.op} "
        if op == expr.op:
            op = f" {op} "
        return f"({_unparse(expr.left)}{op}{_unparse(expr.right)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op}{_unparse(expr.operand)})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(_unparse(arg) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, PathApply):
        steps = "".join(_unparse_step(step) for step in expr.steps)
        if expr.primary is None:
            return steps
        return f"{_unparse_primary(expr.primary)}{steps}"
    if isinstance(expr, FilterExpr):
        predicates = "".join(f"[{_unparse(p)}]" for p in expr.predicates)
        primary = _unparse_primary(expr.primary)
        if isinstance(expr.primary, PathApply):
            # (a/b)[2] is the second b overall; a/b[2] every a's second.
            primary = f"({primary})"
        return f"{primary}{predicates}"
    if isinstance(expr, FLWOR):
        return _unparse_flwor(expr)
    if isinstance(expr, IfExpr):
        return (
            f"if ({_unparse(expr.condition)}) then {_unparse(expr.then_branch)}"
            f" else {_unparse(expr.else_branch)}"
        )
    if isinstance(expr, Quantified):
        return (
            f"{expr.kind} ${expr.var} in {_unparse(expr.seq)} satisfies"
            f" {_unparse(expr.condition)}"
        )
    if isinstance(expr, ElementConstructor):
        content = ", ".join(_unparse(c) for c in expr.content)
        return f"element {expr.name} {{ {content} }}"
    if isinstance(expr, AttributeConstructor):
        content = ", ".join(_unparse(c) for c in expr.content)
        return f"attribute {expr.name} {{ {content} }}"
    if isinstance(expr, TextConstructor):
        content = ", ".join(_unparse(c) for c in expr.content)
        return f"text {{ {content} }}"
    raise XQueryEvaluationError(f"cannot unparse {type(expr).__name__}")


def _unparse_primary(expr: Expr) -> str:
    """``expr`` where steps or predicates attach: an expression that
    would swallow them (``for … return x`` + ``/a``) is parenthesized."""
    text = _unparse(expr)
    if isinstance(expr, (FLWOR, IfExpr, Quantified)):
        return f"({text})"
    return text


def _unparse_step(step: AxisStep) -> str:
    axis = "//" if step.axis == "descendant-or-self" else "/"
    if step.is_text:
        test = "text()"
    elif step.is_attribute:
        test = "@" + step.name
    else:
        test = step.name
    predicates = "".join(f"[{_unparse(p)}]" for p in step.predicates)
    return f"{axis}{test}{predicates}"


def _unparse_flwor(expr: FLWOR) -> str:
    parts = []
    for clause in expr.clauses:
        if isinstance(clause, ForClause):
            at = f" at ${clause.position_var}" if clause.position_var else ""
            parts.append(f"for ${clause.var}{at} in {_unparse(clause.seq)}")
        else:
            assert isinstance(clause, LetClause)
            parts.append(f"let ${clause.var} := {_unparse(clause.expr)}")
    if expr.where is not None:
        parts.append(f"where {_unparse(expr.where)}")
    if expr.order_by:
        specs = ", ".join(
            _unparse(spec.key) + (" descending" if spec.descending else "")
            for spec in expr.order_by
        )
        parts.append(f"order by {specs}")
    parts.append(f"return {_unparse(expr.return_expr)}")
    return " ".join(parts)
