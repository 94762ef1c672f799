"""Evaluation of path expressions over data trees.

Evaluating ``P`` in a document "selects all nodes with label ek (or ak)
whose steps from the root satisfy P" (§3.1). Evaluation proceeds
step-by-step from a virtual document node above the root element, so that
``/Store`` selects the root itself and ``//Description`` selects matching
nodes anywhere in the tree (including the root).

Results are returned in document order without duplicates.
"""

from __future__ import annotations

from repro.datamodel.tree import Node, NodeKind
from repro.paths.ast import Axis, PathExpr, Step
from repro.paths.parser import parse_path


def evaluate_path(path: PathExpr | str, context) -> list[Node]:
    """Select the nodes of ``context`` matching ``path``.

    ``context`` is a node treated as a document root — a DOM element or a
    :class:`~repro.datamodel.binary.NodeHandle` over a stored node table —
    or a document of either form (anything with a ``root``). The nodes
    come back in the context's own implementation.
    """
    if isinstance(path, str):
        path = parse_path(path)
    root = context if isinstance(context, Node) else context.root
    current: list[Node] = [root]
    virtual_first = True
    for step in path.steps:
        current = _apply_step(step, current, virtual_first)
        virtual_first = False
        if not current:
            return []
    return _document_order_unique(current)


def _apply_step(step: Step, context: list[Node], virtual_first: bool) -> list[Node]:
    """``virtual_first``: the context holds the root element, which plays
    the child (or a descendant) of the virtual document node."""
    kind = NodeKind.ATTRIBUTE if step.is_attribute else NodeKind.ELEMENT
    name = None if step.is_wildcard else step.name
    descend = step.axis is Axis.DESCENDANT
    selected: list[Node] = []
    for node in context:
        selected.extend(node.select(kind, name, descend, or_self=virtual_first))
    if step.position is not None:
        selected = [n for n in selected if n.sibling_index() == step.position]
    return selected


def _document_order_unique(nodes: list[Node]) -> list[Node]:
    if len(nodes) <= 1:
        return nodes
    memo: dict = {}
    return sorted(
        dict.fromkeys(nodes), key=lambda node: node.order_key(memo)
    )


def path_exists(path: PathExpr | str, context) -> bool:
    """Existential test: does ``path`` select at least one node?"""
    return bool(evaluate_path(path, context))


def is_terminal(path: PathExpr | str, context) -> bool:
    """Dynamic terminality test (§3.1): every selected node has simple content.

    A path is *terminal* when the nodes it selects have domain in ``D`` —
    attributes, or elements whose only content is text (or nothing).
    Returns False when the path selects nothing.
    """
    if isinstance(path, str):
        path = parse_path(path)
    nodes = evaluate_path(path, context)
    if not nodes:
        return False
    for node in nodes:
        if node.kind is NodeKind.ATTRIBUTE:
            continue
        if any(c.kind is NodeKind.ELEMENT for c in node.children):
            return False
    return True
