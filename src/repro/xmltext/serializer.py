"""Serialization of data trees back to XML text.

Two styles are provided:

* :func:`serialize` — compact, no insignificant whitespace. This is the
  canonical storage format of the engine: ``parse(serialize(t))`` is
  tree-equal to ``t`` (a property test asserts this round-trip).
* :func:`serialize_pretty` — indented, for human consumption in examples
  and reports.

:func:`serialize` also takes a :class:`~repro.datamodel.binary.NodeHandle`
and writes the subtree straight from its span of the stored node table —
the same bytes as serializing the decoded subtree, with no tree built.
"""

from __future__ import annotations

from repro.datamodel.binary import (
    KIND_ATTRIBUTE,
    KIND_TEXT,
    BinaryXMLDocument,
    NodeHandle,
)
from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import NodeKind, XMLNode
from repro.xmltext.escape import escape_attribute, escape_text


def serialize(node: XMLNode | NodeHandle | XMLDocument) -> str:
    """Compact serialization of a node or document subtree."""
    if isinstance(node, XMLDocument):
        node = node.root
    parts: list[str] = []
    if isinstance(node, NodeHandle):
        _write_span(node.table, node.index, parts)
    else:
        _write_compact(node, parts)
    return "".join(parts)


def _write_span(table: BinaryXMLDocument, index: int, out: list[str]) -> None:
    """:func:`_write_compact` over a stored node table: same output, read
    from the arrays (attributes first wherever they sit among the
    children, exactly as the tree writer orders them)."""
    kinds = table.kinds
    if kinds[index] == KIND_TEXT:
        out.append(escape_text(table.text_value(index)))
        return
    if kinds[index] == KIND_ATTRIBUTE:
        raise ValueError("cannot serialize a detached attribute node")
    label = table.name_of(index)
    out.append("<")
    out.append(label)
    content = []
    for child in table.children(index):
        if kinds[child] == KIND_ATTRIBUTE:
            value = escape_attribute(table.text_value(child))
            out.append(f' {table.name_of(child)}="{value}"')
        else:
            content.append(child)
    if not content:
        out.append("/>")
        return
    out.append(">")
    for child in content:
        _write_span(table, child, out)
    out.append(f"</{label}>")


def _write_compact(node: XMLNode, out: list[str]) -> None:
    if node.kind is NodeKind.TEXT:
        out.append(escape_text(node.value or ""))
        return
    if node.kind is NodeKind.ATTRIBUTE:
        # Attributes are serialized by their owning element.
        raise ValueError("cannot serialize a detached attribute node")
    out.append("<")
    out.append(node.label or "")
    for attr in node.attributes():
        out.append(f' {attr.label}="{escape_attribute(attr.value or "")}"')
    content = [c for c in node.children if c.kind is not NodeKind.ATTRIBUTE]
    if not content:
        out.append("/>")
        return
    out.append(">")
    for child in content:
        _write_compact(child, out)
    out.append(f"</{node.label}>")


def serialize_pretty(node: XMLNode | XMLDocument, indent: str = "  ") -> str:
    """Indented serialization (one element per line, text inline)."""
    if isinstance(node, XMLDocument):
        node = node.root
    parts: list[str] = []
    _write_pretty(node, parts, indent, 0)
    return "".join(parts)


def _write_pretty(node: XMLNode, out: list[str], indent: str, depth: int) -> None:
    pad = indent * depth
    if node.kind is NodeKind.TEXT:
        out.append(pad + escape_text(node.value or "") + "\n")
        return
    out.append(pad + "<" + (node.label or ""))
    for attr in node.attributes():
        out.append(f' {attr.label}="{escape_attribute(attr.value or "")}"')
    content = [c for c in node.children if c.kind is not NodeKind.ATTRIBUTE]
    if not content:
        out.append("/>\n")
        return
    if len(content) == 1 and content[0].kind is NodeKind.TEXT:
        out.append(">")
        out.append(escape_text(content[0].value or ""))
        out.append(f"</{node.label}>\n")
        return
    out.append(">\n")
    for child in content:
        _write_pretty(child, out, indent, depth + 1)
    out.append(f"{pad}</{node.label}>\n")


def serialized_size(node: XMLNode | XMLDocument) -> int:
    """Byte size of the compact UTF-8 serialization."""
    return len(serialize(node).encode("utf-8"))
