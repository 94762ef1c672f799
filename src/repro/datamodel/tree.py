"""XML data trees.

Implements the data model of the paper (Section 3.1): an XML data tree is
``Δ := ⟨t, ℓ, Ψ⟩`` where ``t`` is a finite ordered tree, ``ℓ`` labels nodes
with element names (the set ``L``) or attribute names (the set ``A``), and
``Ψ`` maps leaf nodes to data values (the set ``D``).

Concretely we use three node kinds:

* ``ELEMENT`` — labelled with a name from ``L``; ordered children.
* ``ATTRIBUTE`` — labelled with a name from ``A``; holds exactly one value
  (the paper models this as a single child with label in ``D``).
* ``TEXT`` — a leaf carrying a value from ``D`` (``Ψ`` applies).

Following the paper we assume no mixed content: if an element has a text
child it has no element children. The builder helpers enforce this; the
parser normalizes whitespace-only text away from element content.

Every node carries a stable ``node_id`` assigned in document order when the
node is attached to a :class:`~repro.datamodel.document.XMLDocument`. Node
ids are the reconstruction keys for vertical fragmentation: the paper keeps
"an ID in each vertical fragment for reconstruction purposes" (§3.3), and we
keep exactly this id.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Iterable, Iterator, Optional


class NodeKind(enum.Enum):
    """Kind of a node in a data tree."""

    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"


_unassigned_ids = itertools.count(-1, -1)


class Node:
    """The read-only node accessor every evaluator runs against.

    Path, predicate and XQuery evaluation touch a node only through the
    operations below, so one evaluator serves both implementations:
    :class:`~repro.datamodel.binary.NodeHandle` — a ``(table, index)``
    pair over a stored document's preorder node table, what the engine
    hands to queries — and :class:`XMLNode`, the DOM tree (constructed
    elements, the publish-time fragmentation algebra, tests).

    * ``kind`` / ``label`` — the :class:`NodeKind` and the element or
      attribute name (None for text);
    * ``children`` — the child nodes in document order;
    * ``select(kind, name, descend, or_self)`` — one path step: the
      children (or, with ``descend``, the descendants) of the given kind
      and name in document order, ``name=None`` accepting any name; with
      ``or_self`` the node itself leads the candidates — it then plays
      the child of the virtual document node (a leading ``/`` or ``//``);
    * ``text_value()`` — the string value;
    * ``sibling_index()`` — 1-based ordinal among same-kind, same-name
      siblings (``e[i]``);
    * ``root()`` — the root of the node's tree;
    * ``order_key(memo)`` — a key sorting the nodes of one tree into
      document order; ``memo`` is a dict shared by the keys of one sort;
    * ``clone()`` — a detached :class:`XMLNode` copy of the subtree;
    * identity — nodes hash and compare as *the same node*, never by
      content, so a set of nodes is a set of identities.
    """

    __slots__ = ()


class XMLNode(Node):
    """A node of an XML data tree.

    Parameters
    ----------
    kind:
        The :class:`NodeKind` of this node.
    label:
        Element or attribute name (``None`` for text nodes).
    value:
        Data value for text nodes and attributes (``None`` for elements).
    """

    __slots__ = (
        "kind",
        "label",
        "value",
        "children",
        "parent",
        "node_id",
        "_content_kind",
    )

    def __init__(
        self,
        kind: NodeKind,
        label: Optional[str] = None,
        value: Optional[str] = None,
    ):
        if kind is NodeKind.TEXT and label is not None:
            raise ValueError("text nodes carry no label")
        if kind is not NodeKind.TEXT and label is None:
            raise ValueError(f"{kind.value} nodes require a label")
        self.kind = kind
        self.label = label
        self.value = value
        self.children: list[XMLNode] = []
        self.parent: Optional[XMLNode] = None
        # Negative ids mean "not yet attached to a document"; attachment
        # assigns non-negative document-order ids.
        self.node_id: int = next(_unassigned_ids)
        # O(1) mixed-content tracking: None / TEXT / ELEMENT.
        self._content_kind: Optional[NodeKind] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def element(label: str) -> "XMLNode":
        """Create an element node with no children."""
        return XMLNode(NodeKind.ELEMENT, label=label)

    @staticmethod
    def attribute(label: str, value: str) -> "XMLNode":
        """Create an attribute node holding ``value``."""
        return XMLNode(NodeKind.ATTRIBUTE, label=label, value=str(value))

    @staticmethod
    def text(value: str) -> "XMLNode":
        """Create a text (data) node."""
        return XMLNode(NodeKind.TEXT, value=str(value))

    def append(self, child: "XMLNode") -> "XMLNode":
        """Attach ``child`` as the last child of this node and return it.

        Enforces the structural rules of §3.1: attributes and text nodes
        are leaves (no children below text; attributes hold their value
        directly), and element content is not mixed.
        """
        if self.kind is NodeKind.TEXT:
            raise ValueError("text nodes cannot have children")
        if self.kind is NodeKind.ATTRIBUTE:
            raise ValueError("attribute nodes hold their value directly")
        if child.kind is NodeKind.TEXT:
            if self._content_kind is NodeKind.ELEMENT:
                raise ValueError(
                    "mixed content is not supported (text beside elements)"
                )
            self._content_kind = NodeKind.TEXT
        elif child.kind is NodeKind.ELEMENT:
            if self._content_kind is NodeKind.TEXT:
                raise ValueError(
                    "mixed content is not supported (element beside text)"
                )
            self._content_kind = NodeKind.ELEMENT
        child.parent = self
        self.children.append(child)
        return child

    def extend(self, children: Iterable["XMLNode"]) -> "XMLNode":
        """Append every node in ``children``; returns self for chaining."""
        for child in children:
            self.append(child)
        return self

    def remove(self, child: "XMLNode") -> None:
        """Detach ``child`` from this node."""
        self.children.remove(child)
        child.parent = None
        if not any(
            c.kind in (NodeKind.TEXT, NodeKind.ELEMENT) for c in self.children
        ):
            self._content_kind = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_element(self) -> bool:
        return self.kind is NodeKind.ELEMENT

    @property
    def is_attribute(self) -> bool:
        return self.kind is NodeKind.ATTRIBUTE

    @property
    def is_text(self) -> bool:
        return self.kind is NodeKind.TEXT

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children (text/attributes always are)."""
        return not self.children

    def attributes(self) -> list["XMLNode"]:
        """Attribute children of an element, in document order."""
        return [c for c in self.children if c.kind is NodeKind.ATTRIBUTE]

    def element_children(self) -> list["XMLNode"]:
        """Element children, in document order."""
        return [c for c in self.children if c.kind is NodeKind.ELEMENT]

    def get_attribute(self, name: str) -> Optional[str]:
        """Return the value of attribute ``name``, or None when absent."""
        for child in self.children:
            if child.kind is NodeKind.ATTRIBUTE and child.label == name:
                return child.value
        return None

    def text_value(self) -> str:
        """Concatenated data content of this node's subtree.

        For an attribute or text node this is its value; for an element it
        is the concatenation of all descendant text, in document order.
        This realises the "string value" used by predicates such as
        ``contains(//Description, "good")``.
        """
        if self.kind is not NodeKind.ELEMENT:
            return self.value or ""
        parts = []
        for node in self.descendants_or_self():
            if node.kind is NodeKind.TEXT:
                parts.append(node.value or "")
        return "".join(parts)

    def child_elements(self, label: str) -> list["XMLNode"]:
        """Element children labelled ``label``."""
        return [c for c in self.children if c.kind is NodeKind.ELEMENT and c.label == label]

    def first_child(self, label: str) -> Optional["XMLNode"]:
        """First element child labelled ``label``, or None."""
        for c in self.children:
            if c.kind is NodeKind.ELEMENT and c.label == label:
                return c
        return None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def descendants_or_self(self) -> Iterator["XMLNode"]:
        """Pre-order traversal of the subtree rooted here (self first)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def descendants(self) -> Iterator["XMLNode"]:
        """Pre-order traversal of strict descendants."""
        nodes = self.descendants_or_self()
        next(nodes)  # drop self
        return nodes

    def select(
        self,
        kind: NodeKind,
        name: Optional[str] = None,
        descend: bool = False,
        or_self: bool = False,
    ) -> list["XMLNode"]:
        """One path step from this node (see :class:`Node`)."""
        if descend:
            candidates: Iterable[XMLNode] = (
                self.descendants_or_self() if or_self else self.descendants()
            )
        else:
            candidates = (self,) if or_self else self.children
        return [
            node
            for node in candidates
            if node.kind is kind and (name is None or node.label == name)
        ]

    def order_key(self, memo: dict) -> tuple[int, ...]:
        """The node's prefix label — child ordinals from the root — which
        orders the nodes of one tree in document order. ``memo`` keeps
        every label found: a parent's child list is numbered once."""
        chain = []
        node = self
        while node not in memo and node.parent is not None:
            chain.append(node)
            node = node.parent
        key = memo.setdefault(node, ())  # a memoized ancestor, or the root
        for node in reversed(chain):
            for ordinal, child in enumerate(node.parent.children):
                memo[child] = key + (ordinal,)
            key = memo[node]
        return key

    def ancestors(self) -> Iterator["XMLNode"]:
        """This node's ancestors, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def root(self) -> "XMLNode":
        """The root of the tree containing this node."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def path_labels(self) -> list[str]:
        """Labels from the root down to this node (inclusive).

        Attribute labels are rendered with a leading ``@`` so the result can
        be compared against textual path expressions.
        """
        labels: list[str] = []
        node: Optional[XMLNode] = self
        while node is not None:
            if node.kind is NodeKind.TEXT:
                node = node.parent
                continue
            name = node.label or ""
            if node.kind is NodeKind.ATTRIBUTE:
                name = "@" + name
            labels.append(name)
            node = node.parent
        labels.reverse()
        return labels

    def sibling_index(self) -> int:
        """1-based position among same-label element siblings (for ``e[i]``)."""
        if self.parent is None:
            return 1
        position = 0
        for sibling in self.parent.children:
            if sibling.kind is self.kind and sibling.label == self.label:
                position += 1
                if sibling is self:
                    return position
        raise ValueError("node is not among its parent's children")

    # ------------------------------------------------------------------
    # Copying / equality
    # ------------------------------------------------------------------
    def clone(self, deep: bool = True) -> "XMLNode":
        """Copy this node; ``deep`` copies the whole subtree.

        The clone keeps the original ``node_id`` so that fragments preserve
        the ids needed for vertical reconstruction (§3.3).
        """
        copy = XMLNode(self.kind, label=self.label, value=self.value)
        copy.node_id = self.node_id
        if deep:
            for child in self.children:
                copy.append(child.clone(deep=True))
        return copy

    def clone_pruned(self, should_prune: Callable[["XMLNode"], bool]) -> "XMLNode":
        """Deep copy excluding any subtree whose root satisfies ``should_prune``.

        Used by the projection operator to implement the prune criterion Γ.
        """
        copy = XMLNode(self.kind, label=self.label, value=self.value)
        copy.node_id = self.node_id
        for child in self.children:
            if not should_prune(child):
                copy.append(child.clone_pruned(should_prune))
        return copy

    def tree_equal(self, other: "XMLNode", compare_ids: bool = False) -> bool:
        """Structural equality of two subtrees.

        Children are compared in document order except attributes, which are
        unordered per the XML data model. With ``compare_ids`` node ids must
        match too (useful for reconstruction tests).
        """
        if self.kind is not other.kind or self.label != other.label:
            return False
        if (self.value or "") != (other.value or ""):
            return False
        if compare_ids and self.node_id != other.node_id:
            return False
        mine_attrs = sorted(self.attributes(), key=lambda a: a.label or "")
        other_attrs = sorted(other.attributes(), key=lambda a: a.label or "")
        if len(mine_attrs) != len(other_attrs):
            return False
        for a, b in zip(mine_attrs, other_attrs):
            if not a.tree_equal(b, compare_ids=compare_ids):
                return False
        mine_rest = [c for c in self.children if c.kind is not NodeKind.ATTRIBUTE]
        other_rest = [c for c in other.children if c.kind is not NodeKind.ATTRIBUTE]
        if len(mine_rest) != len(other_rest):
            return False
        return all(
            a.tree_equal(b, compare_ids=compare_ids)
            for a, b in zip(mine_rest, other_rest)
        )

    def subtree_size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return sum(1 for _ in self.descendants_or_self())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is NodeKind.TEXT:
            return f"<text {self.value!r}>"
        if self.kind is NodeKind.ATTRIBUTE:
            return f"<@{self.label}={self.value!r}>"
        return f"<{self.label} children={len(self.children)}>"


def assign_node_ids(root: XMLNode, start: int = 0) -> int:
    """Assign document-order ids to every node under ``root``.

    Returns the next unused id. Called when a tree becomes a document;
    fragments later *preserve* these ids (clones copy them) so vertical
    reconstruction can join on them.
    """
    next_id = start
    for node in root.descendants_or_self():
        node.node_id = next_id
        next_id += 1
    return next_id
