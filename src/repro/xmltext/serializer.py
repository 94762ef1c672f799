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
:func:`serialized_size` measures those bytes from the span without
writing them.
"""

from __future__ import annotations

from repro.datamodel.binary import (
    KIND_ATTRIBUTE,
    KIND_ELEMENT,
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


def serialized_size(node: XMLNode | NodeHandle | XMLDocument) -> int:
    """Byte size of the compact UTF-8 serialization."""
    if isinstance(node, NodeHandle):
        return _span_size(node.table, node.index)
    return utf8_length(serialize(node))


def utf8_length(text: str) -> int:
    """UTF-8 size of ``text``: an ASCII string is as many bytes as
    characters; only others are encoded to be measured."""
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _escaped_size(value: str, quotes: bool) -> int:
    """UTF-8 size of :func:`escape_text` (``quotes=False``) or
    :func:`escape_attribute` of ``value``, counted without escaping:
    every escape is ASCII, so it adds its length minus the one byte of
    the character it replaces."""
    size = utf8_length(value)
    if "&" in value or "<" in value or ">" in value:
        size += 4 * value.count("&") + 3 * (value.count("<") + value.count(">"))
    if quotes and ('"' in value or "'" in value):
        size += 5 * (value.count('"') + value.count("'"))
    return size


def _span_size(table: BinaryXMLDocument, index: int) -> int:
    """``utf8_length(serialize(NodeHandle(table, index)))`` in one forward
    pass over the span that writes nothing: an element costs ``<L/>``
    until its first content node turns that into ``<L>…</L>``, an
    attribute `` N="…"`` and a text node its escaped value."""
    kinds = table.kinds
    if kinds[index] == KIND_ATTRIBUTE:
        raise ValueError("cannot serialize a detached attribute node")
    names = table.names
    values = table.values
    parents = table.parents
    string = table.pool.get
    label_sizes: dict[int, int] = {}  # name id -> UTF-8 size, this call only
    holding = set()  # elements with a content node seen so far
    size = 0
    for position in range(index, index + table.sizes[index]):
        kind = kinds[position]
        if kind == KIND_ELEMENT:
            name = names[position]
            label = label_sizes.get(name)
            if label is None:
                label = label_sizes[name] = utf8_length(string(name))
            size += label + 3
        else:
            value = values[position]
            text = string(value) if value >= 0 else ""
            if kind == KIND_ATTRIBUTE:
                size += utf8_length(string(names[position])) + 4
                size += _escaped_size(text, True)
                continue
            size += _escaped_size(text, False)
        if position != index:
            parent = parents[position]
            if parent not in holding:
                holding.add(parent)
                size += label_sizes[names[parent]] + 2
    return size
