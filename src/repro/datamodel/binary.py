"""Compact binary encoding of XML data trees.

Serialized-text storage makes every access pay a full parse; this module
is the alternative built once at publish time: a *preorder node table*
whose tag/attribute names and data values are interned in a per-collection
:class:`StringPool`, stored in parallel arrays (kind, name id, value id,
parent index, explicit ``node_id``). Preorder position doubles as a
clustered node range — the descendants of node ``i`` occupy exactly the
positions ``(i, i + subtree_size(i))`` — so structural relationships
resolve on integer comparisons instead of pointer walks:

* node ``a`` is an **ancestor** of ``b``  iff ``a < b < a + size(a)``;
* ``a`` is the **parent** of ``b``        iff ``parents[b] == a``;
* two nodes are **document-ordered** by their positions.

Subtree sizes are derived from the parent array, so the persistent form
stays minimal.

Round-trip contract: ``BinaryXMLDocument.encode(doc).materialize()``
reproduces ``doc`` exactly — structure, values, and ``node_id``s (the
vertical-reconstruction keys, which fragments keep non-contiguous).

Queries never make that round trip: :class:`NodeHandle` implements the
evaluators' node accessor (:class:`~repro.datamodel.tree.Node`) directly
over the table, so evaluation reads the arrays in place and a tree is
decoded only for a subtree that an element constructor copies.
"""

from __future__ import annotations

import struct
from array import array
from typing import Iterable, Iterator, Optional

from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import Node, NodeKind, XMLNode

#: Node-kind bytes of the table (order mirrors :class:`NodeKind`).
KIND_ELEMENT = 0
KIND_ATTRIBUTE = 1
KIND_TEXT = 2

_KIND_TO_BYTE = {
    NodeKind.ELEMENT: KIND_ELEMENT,
    NodeKind.ATTRIBUTE: KIND_ATTRIBUTE,
    NodeKind.TEXT: KIND_TEXT,
}
_BYTE_TO_KIND = {code: kind for kind, code in _KIND_TO_BYTE.items()}

_POOL_MAGIC = b"PXSP"
_DOC_MAGIC = b"PXB1"

#: Stored bytes per node: one kind byte plus the four 8-byte columns
#: (what :meth:`BinaryXMLDocument.to_bytes` writes per row).
NODE_ROW_BYTES = 1 + 4 * 8


class StringPool:
    """Append-only interning of tag/attribute names and data values.

    One pool serves a whole collection, so repeated names ("Item",
    "Description", …) are stored once regardless of document count. Ids
    are dense and stable — persistence writes the pool once next to the
    binary documents and reloading never reparses any XML.
    """

    __slots__ = ("_strings", "_ids")

    def __init__(self, strings: Optional[list[str]] = None):
        self._strings: list[str] = list(strings) if strings else []
        self._ids: dict[str, int] = {
            value: index for index, value in enumerate(self._strings)
        }

    def intern(self, value: str) -> int:
        """Id of ``value``, adding it to the pool when new."""
        found = self._ids.get(value)
        if found is not None:
            return found
        index = len(self._strings)
        self._strings.append(value)
        self._ids[value] = index
        return index

    def lookup(self, value: str) -> Optional[int]:
        """Id of ``value`` if already interned (no insertion)."""
        return self._ids.get(value)

    def get(self, index: int) -> str:
        return self._strings[index]

    def __len__(self) -> int:
        return len(self._strings)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Persistent form: magic, count, length-prefixed UTF-8 strings."""
        parts = [_POOL_MAGIC, struct.pack("!I", len(self._strings))]
        for value in self._strings:
            data = value.encode("utf-8")
            parts.append(struct.pack("!I", len(data)))
            parts.append(data)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "StringPool":
        if data[:4] != _POOL_MAGIC:
            raise ValueError("not a PartiX string pool")
        (count,) = struct.unpack_from("!I", data, 4)
        offset = 8
        strings: list[str] = []
        for _ in range(count):
            (size,) = struct.unpack_from("!I", data, offset)
            offset += 4
            strings.append(data[offset : offset + size].decode("utf-8"))
            offset += size
        return cls(strings)


class BinaryXMLDocument:
    """One document as a preorder node table over a shared pool.

    Parallel arrays, all indexed by preorder position:

    * ``kinds[i]``    — KIND_ELEMENT / KIND_ATTRIBUTE / KIND_TEXT;
    * ``names[i]``    — pool id of the tag/attribute name (-1 for text);
    * ``values[i]``   — pool id of the data value (-1 when none);
    * ``parents[i]``  — preorder position of the parent (-1 for the root);
    * ``node_ids[i]`` — the document's stable node id (fragments keep the
      source document's ids, so these are explicit, not positional);
    * ``sizes[i]``    — subtree size including self (derived).
    """

    __slots__ = (
        "pool",
        "kinds",
        "names",
        "values",
        "parents",
        "node_ids",
        "sizes",
    )

    def __init__(
        self,
        pool: StringPool,
        kinds: bytearray,
        names: array,
        values: array,
        parents: array,
        node_ids: array,
    ):
        self.pool = pool
        self.kinds = kinds
        self.names = names
        self.values = values
        self.parents = parents
        self.node_ids = node_ids
        self.sizes = _subtree_sizes(parents)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def encode(cls, document: XMLDocument, pool: StringPool) -> "BinaryXMLDocument":
        """Encode a parsed document into the table (interning via ``pool``)."""
        kinds = bytearray()
        names = array("q")
        values = array("q")
        parents = array("q")
        node_ids = array("q")
        stack: list[tuple[XMLNode, int]] = [(document.root, -1)]
        while stack:
            node, parent = stack.pop()
            index = len(kinds)
            kinds.append(_KIND_TO_BYTE[node.kind])
            names.append(pool.intern(node.label) if node.label is not None else -1)
            values.append(pool.intern(node.value) if node.value is not None else -1)
            parents.append(parent)
            node_ids.append(node.node_id)
            for child in reversed(node.children):
                stack.append((child, index))
        return cls(pool, kinds, names, values, parents, node_ids)

    def materialize(
        self, name: Optional[str] = None, origin: Optional[str] = None
    ) -> XMLDocument:
        """Decode back to a DOM tree — the inverse of :meth:`encode`."""
        return XMLDocument(
            self.decode(0), name=name, assign_ids=False, origin=origin
        )

    def decode(self, index: int) -> XMLNode:
        """The subtree at ``index`` as a detached DOM tree.

        Nodes are wired directly (no ``append`` re-validation: the table
        came from a tree that already satisfied the structural rules), so
        decoding skips tokenization entirely.
        """
        pool = self.pool
        end = index + self.sizes[index]
        nodes: list[XMLNode] = [None] * (end - index)  # type: ignore[list-item]
        for i in range(index, end):
            node = XMLNode.__new__(XMLNode)
            node.kind = _BYTE_TO_KIND[self.kinds[i]]
            name_id = self.names[i]
            value_id = self.values[i]
            node.label = pool.get(name_id) if name_id >= 0 else None
            node.value = pool.get(value_id) if value_id >= 0 else None
            node.children = []
            node.node_id = self.node_ids[i]
            node._content_kind = None
            if i == index:
                node.parent = None
            else:
                parent_node = nodes[self.parents[i] - index]
                node.parent = parent_node
                parent_node.children.append(node)
                if node.kind is NodeKind.TEXT:
                    parent_node._content_kind = NodeKind.TEXT
                elif node.kind is NodeKind.ELEMENT:
                    parent_node._content_kind = NodeKind.ELEMENT
            nodes[i - index] = node
        return nodes[0]

    @property
    def root(self) -> "NodeHandle":
        """The root element as the evaluators' node accessor."""
        return NodeHandle(self, 0)

    # ------------------------------------------------------------------
    # Structure (all range based — no DOM involved)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.kinds)

    def children(self, index: int) -> Iterator[int]:
        """Preorder positions of the children of node ``index``."""
        end = index + self.sizes[index]
        child = index + 1
        while child < end:
            yield child
            child += self.sizes[child]

    def descendant_range(self, index: int) -> range:
        """The contiguous preorder slice holding the strict descendants."""
        return range(index + 1, index + self.sizes[index])

    def is_ancestor(self, ancestor: int, descendant: int) -> bool:
        """Proper-ancestor test: the table is preorder, so a node's
        descendants are exactly the contiguous positions right after it
        and the test is two integer comparisons."""
        return ancestor < descendant < ancestor + self.sizes[ancestor]

    def text_value(self, index: int) -> str:
        """The node's string value (mirrors ``XMLNode.text_value``)."""
        if self.kinds[index] != KIND_ELEMENT:
            value = self.values[index]
            return self.pool.get(value) if value >= 0 else ""
        parts = []
        for i in self.descendant_range(index):
            if self.kinds[i] == KIND_TEXT:
                value = self.values[i]
                if value >= 0:
                    parts.append(self.pool.get(value))
        return "".join(parts)

    def name_of(self, index: int) -> Optional[str]:
        name = self.names[index]
        return self.pool.get(name) if name >= 0 else None

    def path_labels(self, index: int) -> tuple[str, ...]:
        """Root-to-node label path (attributes prefixed ``@``), text skipped."""
        labels: list[str] = []
        node = index
        while node >= 0:
            kind = self.kinds[node]
            if kind != KIND_TEXT:
                name = self.name_of(node) or ""
                labels.append("@" + name if kind == KIND_ATTRIBUTE else name)
            node = self.parents[node]
        labels.reverse()
        return tuple(labels)

    def sibling_ordinal(self, index: int) -> int:
        """1-based position among same-kind, same-name siblings (``e[i]``)."""
        parent = self.parents[index]
        if parent < 0:
            return 1
        position = 0
        for sibling in self.children(parent):
            if (
                self.kinds[sibling] == self.kinds[index]
                and self.names[sibling] == self.names[index]
            ):
                position += 1
                if sibling == index:
                    return position
        raise ValueError("node is not among its parent's children")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Persistent form; the pool is stored separately (per collection)."""
        count = len(self.kinds)
        parts = [
            _DOC_MAGIC,
            struct.pack("!I", count),
            bytes(self.kinds),
        ]
        for table in (self.names, self.values, self.parents, self.node_ids):
            parts.append(struct.pack(f"!{count}q", *table))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, pool: StringPool) -> "BinaryXMLDocument":
        if data[:4] != _DOC_MAGIC:
            raise ValueError("not a PartiX binary document")
        (count,) = struct.unpack_from("!I", data, 4)
        offset = 8
        kinds = bytearray(data[offset : offset + count])
        if len(kinds) != count:
            raise ValueError("truncated binary document")
        offset += count
        tables = []
        for _ in range(4):
            table = array("q", struct.unpack_from(f"!{count}q", data, offset))
            offset += 8 * count
            tables.append(table)
        names, values, parents, node_ids = tables
        return cls(pool, kinds, names, values, parents, node_ids)


class NodeHandle(Node):
    """One node of a stored document: a ``(table, index)`` pair.

    The primary implementation of the evaluators' node accessor
    (:class:`~repro.datamodel.tree.Node`): every operation reads the
    preorder arrays in place and builds nothing but further handles for
    the nodes it selects. Identity is the table (by identity) plus the
    preorder position, and within one table that position *is* document
    order.
    """

    __slots__ = ("table", "index")

    def __init__(self, table: BinaryXMLDocument, index: int):
        self.table = table
        self.index = index

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is NodeHandle
            and self.index == other.index
            and self.table is other.table
        )

    def __hash__(self) -> int:
        return hash((id(self.table), self.index))

    @property
    def kind(self) -> NodeKind:
        return _BYTE_TO_KIND[self.table.kinds[self.index]]

    @property
    def label(self) -> Optional[str]:
        return self.table.name_of(self.index)

    @property
    def children(self) -> list["NodeHandle"]:
        table = self.table
        return [NodeHandle(table, child) for child in table.children(self.index)]

    def select(
        self,
        kind: NodeKind,
        name: Optional[str] = None,
        descend: bool = False,
        or_self: bool = False,
    ) -> list["NodeHandle"]:
        """One path step from this node (see :class:`Node`): an integer
        scan of the node's child list or contiguous descendant range."""
        table = self.table
        index = self.index
        # A name the pool never interned labels no node of any document
        # the pool serves.
        name_id = None if name is None else table.pool.lookup(name)
        if name is not None and name_id is None:
            return []
        if descend:
            candidates: Iterable[int] = range(
                index if or_self else index + 1, index + table.sizes[index]
            )
        else:
            candidates = (index,) if or_self else table.children(index)
        code = _KIND_TO_BYTE[kind]
        kinds = table.kinds
        names = table.names
        return [
            NodeHandle(table, i)
            for i in candidates
            if kinds[i] == code and (name_id is None or names[i] == name_id)
        ]

    def text_value(self) -> str:
        return self.table.text_value(self.index)

    def sibling_index(self) -> int:
        return self.table.sibling_ordinal(self.index)

    def root(self) -> "NodeHandle":
        return NodeHandle(self.table, 0)

    def order_key(self, memo: dict) -> int:
        return self.index

    def clone(self) -> XMLNode:
        """Decode this subtree — the one way a stored node becomes a tree."""
        return self.table.decode(self.index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<handle {self.kind.value} {self.label!r} @{self.index}>"


def _subtree_sizes(parents: array) -> array:
    """Subtree sizes (self included) from the parent array alone."""
    count = len(parents)
    sizes = array("q", [1] * count)
    for i in range(count - 1, 0, -1):
        sizes[parents[i]] += sizes[i]
    return sizes
