"""Reconstruction annotations carried by fragment documents.

The paper keeps "an ID in each vertical fragment for reconstruction
purposes" (§3.3). We realise these IDs as two reserved attributes written
onto fragment documents, so they survive serialization in any
XQuery-enabled backend:

* ``pxid`` — on the root of a projected subtree and on every *cut point*
  (a node that lost a pruned child): the node's id in the source document.
* ``pxparent`` — on the root of a projected subtree: the id of its parent
  in the source document, i.e. where the subtree grafts back.

Both are metadata: structural document equality in this library ignores
them (see :func:`strip_annotations`), and correctness checks exclude them
from the "data item" universe.
"""

from __future__ import annotations

from repro.datamodel.tree import NodeKind, XMLNode

PXID = "pxid"
PXPARENT = "pxparent"
PXORIGIN = "pxorigin"
ANNOTATION_NAMES = frozenset({PXID, PXPARENT, PXORIGIN})


def annotate(node: XMLNode, name: str, value) -> None:
    """Set annotation ``name`` on ``node``, replacing an existing one."""
    for child in node.children:
        if child.kind is NodeKind.ATTRIBUTE and child.label == name:
            child.value = str(value)
            return
    # Attributes conventionally precede other children.
    attr = XMLNode.attribute(name, str(value))
    attr.parent = node
    node.children.insert(0, attr)


def read_annotation(node: XMLNode, name: str) -> int | None:
    """Read an integer annotation from ``node`` (None when absent)."""
    value = node.get_attribute(name)
    return int(value) if value is not None else None


def read_origin(node: XMLNode) -> str | None:
    """Read the ``pxorigin`` annotation (source document name)."""
    return node.get_attribute(PXORIGIN)


def strip_annotations(node: XMLNode) -> XMLNode:
    """Deep copy of ``node`` with every ``pxid``/``pxparent`` removed."""
    return node.clone_pruned(
        lambda child: child.kind is NodeKind.ATTRIBUTE
        and child.label in ANNOTATION_NAMES
    )


def strip_annotations_in_place(node: XMLNode) -> None:
    """Remove every annotation attribute from a tree the caller owns."""
    for element in node.descendants_or_self():
        if any(is_annotation(child) for child in element.children):
            element.children = [
                child for child in element.children if not is_annotation(child)
            ]


def is_annotation(node: XMLNode) -> bool:
    """True for a pxid/pxparent attribute node."""
    return node.kind is NodeKind.ATTRIBUTE and node.label in ANNOTATION_NAMES
