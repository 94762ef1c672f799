"""AST for the XQuery subset.

Nodes are plain frozen dataclasses; the evaluator dispatches on type. The
subset implements what the paper's three query sets exercise:

* FLWOR expressions (``for``/``let``/``where``/``order by``/``return``)
* path expressions with child/descendant axes, wildcards, attributes and
  bracketed predicates (boolean or positional)
* general comparisons, arithmetic, boolean connectives
* quantified expressions (``some``/``every``)
* conditional expressions
* function calls (library in :mod:`repro.xquery.functions`)
* computed element/attribute/text constructors
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(Expr):
    """A string or numeric literal."""

    value: Union[str, float, int]


@dataclass(frozen=True)
class VarRef(Expr):
    """``$name``."""

    name: str


@dataclass(frozen=True)
class ContextItem(Expr):
    """``.`` — the current context item."""


@dataclass(frozen=True)
class SequenceExpr(Expr):
    """Comma sequence ``(e1, e2, ...)``."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class RangeExpr(Expr):
    """``a to b`` — integer range sequence."""

    start: Expr
    end: Expr


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic (``+ - * div mod``), comparison (``= != < <= > >=``),
    logic (``and or``), or set union (``|``/``union``)."""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnaryOp(Expr):
    """Unary ``-`` / ``+``."""

    op: str
    operand: Expr


@dataclass(frozen=True)
class FunctionCall(Expr):
    """``name(arg, ...)``."""

    name: str
    args: tuple[Expr, ...]


#: Built-ins that answer with the root *elements* of stored documents:
#: ``collection("c")`` and its origin-restricted form
#: ``px:collection("c", "origin", …)``, plus ``doc``. A path step right
#: after one of them addresses the (virtual) document node's child.
COLLECTION_FUNCTIONS = ("collection", "px:collection")
INPUT_FUNCTIONS = COLLECTION_FUNCTIONS + ("doc",)


@dataclass(frozen=True)
class AxisStep(Expr):
    """One path step: axis + node test + bracketed predicates.

    ``axis`` is ``"child"`` or ``"descendant-or-self"``; the node test is
    an element name, ``"*"``, an attribute (``is_attribute``) or the
    ``text()`` node test (``is_text``).
    """

    axis: str
    name: str
    is_attribute: bool = False
    is_text: bool = False
    predicates: tuple[Expr, ...] = field(default=())


@dataclass(frozen=True)
class PathApply(Expr):
    """``primary/step/step...`` — steps applied to a primary expression.

    ``primary`` is None for absolute paths (``/a/b`` — resolved against
    the context document) and an expression otherwise
    (``$x/a``, ``collection("c")//d``).
    """

    primary: Optional[Expr]
    steps: tuple[AxisStep, ...]
    absolute: bool = False


@dataclass(frozen=True)
class FilterExpr(Expr):
    """``primary[predicate]`` on a non-step expression."""

    primary: Expr
    predicates: tuple[Expr, ...]


@dataclass(frozen=True)
class ForClause:
    var: str
    seq: Expr
    position_var: Optional[str] = None


@dataclass(frozen=True)
class LetClause:
    var: str
    expr: Expr


@dataclass(frozen=True)
class OrderSpec:
    key: Expr
    descending: bool = False


@dataclass(frozen=True)
class FLWOR(Expr):
    """A FLWOR expression."""

    clauses: tuple[Union[ForClause, LetClause], ...]
    where: Optional[Expr]
    order_by: tuple[OrderSpec, ...]
    return_expr: Expr


@dataclass(frozen=True)
class IfExpr(Expr):
    condition: Expr
    then_branch: Expr
    else_branch: Expr


@dataclass(frozen=True)
class Quantified(Expr):
    """``some/every $v in seq satisfies cond``."""

    kind: str  # "some" | "every"
    var: str
    seq: Expr
    condition: Expr


@dataclass(frozen=True)
class ElementConstructor(Expr):
    """``element name { content }`` — computed element constructor."""

    name: str
    content: tuple[Expr, ...]


@dataclass(frozen=True)
class AttributeConstructor(Expr):
    """``attribute name { content }``."""

    name: str
    content: tuple[Expr, ...]


@dataclass(frozen=True)
class TextConstructor(Expr):
    """``text { content }``."""

    content: tuple[Expr, ...]
