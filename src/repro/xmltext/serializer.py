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
    """:func:`_write_compact` over a stored node table: same output, in
    one forward pass over the node's preorder span. A stack holds the
    open elements (where each span ends, its label); only the innermost
    can still await its ``>``, because the table puts an element's
    attributes before its other children."""
    kinds = table.kinds
    if kinds[index] == KIND_TEXT:
        out.append(escape_text(table.text_value(index)))
        return
    if kinds[index] == KIND_ATTRIBUTE:
        raise ValueError("cannot serialize a detached attribute node")
    names = table.names
    values = table.values
    sizes = table.sizes
    string = table.pool.get
    append = out.append
    end = index + sizes[index]
    stack: list[tuple[int, str]] = []  # (span end, label), innermost last
    close_at = end  # span end of the innermost open element
    unopened = False  # the innermost open element still lacks its ">"
    for position in range(index, end):
        while position == close_at:
            label = stack.pop()[1]
            append("/>" if unopened else f"</{label}>")
            unopened = False
            close_at = stack[-1][0]
        kind = kinds[position]
        if kind == KIND_ATTRIBUTE:
            value = values[position]
            text = escape_attribute(string(value) if value >= 0 else "")
            append(f' {string(names[position])}="{text}"')
            continue
        if unopened:
            append(">")
        if kind == KIND_TEXT:
            value = values[position]
            append(escape_text(string(value) if value >= 0 else ""))
            unopened = False
        else:
            label = string(names[position])
            append("<" + label)
            close_at = position + sizes[position]
            stack.append((close_at, label))
            unopened = True
    while stack:
        label = stack.pop()[1]
        append("/>" if unopened else f"</{label}>")
        unopened = False


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
