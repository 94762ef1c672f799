"""Document-level operators of the fragmentation algebra.

Following TLC/TAX (the paper grounds its fragment semantics in the TLC
algebra, §3.2), operators act on *collections of documents*: applying an
operator to each document of a collection yields the fragment's instance
set (Definition 1: "Instances of a fragment F are obtained by applying γ
to each document in C").

* :class:`Selection` (σμ) keeps a document iff it satisfies the predicate
  (Definition 2 — horizontal fragmentation).
* :class:`Projection` (π_{P,Γ}) extracts the subtree rooted at the node
  selected by ``P``, pruning any descendant selected by an expression of
  the prune criterion ``Γ`` (Definition 3 — vertical fragmentation).
* :class:`Composition` (π • σ / σ • π) chains the two (Definition 4 —
  hybrid fragmentation).

All operators return a *list* of result documents per input document: an
empty list when the document contributes nothing, normally one document,
and — only for projections explicitly allowing it (``allow_multiple``,
used by hybrid fragmentation's item-splitting FragMode1) — several.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Union

from repro.algebra.annotations import PXID, PXPARENT, annotate
from repro.datamodel.collection import Collection
from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import NodeKind, XMLNode
from repro.errors import FragmentationError
from repro.paths.ast import PathExpr
from repro.paths.evaluator import evaluate_path
from repro.paths.parser import parse_path
from repro.paths.predicates import Predicate


class DocumentOperator(abc.ABC):
    """An operator γ applicable document-by-document to a collection."""

    @abc.abstractmethod
    def apply(self, document: XMLDocument) -> list[XMLDocument]:
        """Result documents contributed by ``document``."""

    def apply_collection(self, collection: Collection) -> list[XMLDocument]:
        """Apply to every document of ``collection``, concatenating results."""
        results: list[XMLDocument] = []
        for document in collection:
            results.extend(self.apply(document))
        return results

    @abc.abstractmethod
    def __str__(self) -> str:
        ...


class Selection(DocumentOperator):
    """σμ — keep the documents satisfying the predicate μ.

    σ builds nothing: a kept document is the very object it was given,
    not a copy. Its callers only read it (the publisher encodes it into
    a site's node table, the correctness checks compare it) or hand it a
    projection's fresh output (:class:`Composition`); a caller that
    mutates a selected document clones it first.
    """

    def __init__(self, predicate: Predicate):
        self.predicate = predicate

    def apply(self, document: XMLDocument) -> list[XMLDocument]:
        if self.predicate.evaluate(document):
            return [document]
        return []

    def __str__(self) -> str:
        return f"σ[{self.predicate}]"


class Projection(DocumentOperator):
    """π_{P,Γ} — project the subtrees selected by P, pruning Γ.

    Parameters
    ----------
    path:
        The projection path ``P``. Definition 3 requires that ``P`` cannot
        select more than one node per document (else the fragment would not
        be a well-formed document), unless a positional step pins one
        occurrence. The check is dynamic here; the fragmentation layer adds
        the static schema check.
    prune:
        The prune criterion ``Γ``: path expressions contained in ``P``
        (i.e. with ``P`` as a prefix) whose selected subtrees are excluded.
    allow_multiple:
        Permit ``P`` to select several nodes, yielding one result document
        per node. This is *not* a valid vertical fragment by Definition 3;
        it exists for hybrid fragmentation (σ then per-item documents,
        FragMode1) where the subsequent horizontal step regroups items.
    annotate_ids:
        Write ``pxid``/``pxparent`` reconstruction annotations (on the
        projected root, and on cut points that lost pruned children).
    stub_prunes:
        Instead of removing a pruned element entirely, keep an *empty
        stub* carrying the node's ``pxid``. Needed by designs where the
        complementary fragments hold only the pruned node's children
        (e.g. the paper's StoreHyb remainder ``π/Store,{/Store/Items}``
        with Item units split off): the stub is the graft target. The
        join replaces a stub when a fragment provides the full node.
    """

    def __init__(
        self,
        path: Union[PathExpr, str],
        prune: Sequence[Union[PathExpr, str]] = (),
        allow_multiple: bool = False,
        annotate_ids: bool = True,
        stub_prunes: bool = False,
    ):
        self.path = parse_path(path) if isinstance(path, str) else path
        self.prune = tuple(
            parse_path(p) if isinstance(p, str) else p for p in prune
        )
        for expr in self.prune:
            if not self.path.is_prefix_of(expr):
                raise FragmentationError(
                    f"prune expression {expr} is not contained in projection"
                    f" path {self.path}"
                )
        self.allow_multiple = allow_multiple
        self.annotate_ids = annotate_ids
        self.stub_prunes = stub_prunes

    def apply(self, document: XMLDocument) -> list[XMLDocument]:
        roots = evaluate_path(self.path, document)
        if not roots:
            return []
        if len(roots) > 1 and not self.allow_multiple:
            raise FragmentationError(
                f"projection path {self.path} selected {len(roots)} nodes in"
                f" document {document.name!r}; vertical fragments require at"
                " most one (Definition 3)"
            )
        pruned_ids = self._pruned_node_ids(document)
        results = []
        for index, root in enumerate(roots):
            projected = self._project_subtree(root, pruned_ids)
            name = document.name
            if name is not None and len(roots) > 1:
                name = f"{name}#{index}"
            results.append(
                XMLDocument(
                    projected,
                    name=name,
                    assign_ids=False,
                    origin=document.origin,
                )
            )
        return results

    def _pruned_node_ids(self, document: XMLDocument) -> set[int]:
        ids: set[int] = set()
        for expr in self.prune:
            for node in evaluate_path(expr, document):
                ids.add(node.node_id)
        return ids

    def _project_subtree(self, root: XMLNode, pruned_ids: set[int]) -> XMLNode:
        if pruned_ids and self.stub_prunes:
            copy = self._clone_with_stubs(root, pruned_ids)
        elif pruned_ids:
            copy = root.clone_pruned(lambda n: n.node_id in pruned_ids)
        else:
            copy = root.clone(deep=True)
        if self.annotate_ids:
            annotate(copy, PXID, root.node_id)
            if root.parent is not None:
                annotate(copy, PXPARENT, root.parent.node_id)
            if pruned_ids:
                self._annotate_cut_points(root, copy, pruned_ids)
        return copy

    def _clone_with_stubs(self, node: XMLNode, pruned_ids: set[int]) -> XMLNode:
        copy = XMLNode(node.kind, label=node.label, value=node.value)
        copy.node_id = node.node_id
        for child in node.children:
            if child.node_id in pruned_ids:
                if child.kind is NodeKind.ELEMENT:
                    stub = XMLNode.element(child.label or "")
                    stub.node_id = child.node_id
                    annotate(stub, PXID, child.node_id)
                    copy.append(stub)
                # pruned attributes/text vanish outright
            else:
                copy.append(self._clone_with_stubs(child, pruned_ids))
        return copy

    def _annotate_cut_points(
        self, original: XMLNode, copy: XMLNode, pruned_ids: set[int]
    ) -> None:
        # Parents (in the original) of pruned subtrees are cut points; mark
        # their copies with pxid so grafting can find them after a
        # serialization round-trip. Their retained element children are
        # annotated too: the join orders grafted subtrees among siblings by
        # these pre-order ids.
        cut_ids = set()
        for node in original.descendants_or_self():
            if node.node_id in pruned_ids and node.parent is not None:
                cut_ids.add(node.parent.node_id)
        if not cut_ids:
            return
        for node in copy.descendants_or_self():
            if node.node_id in cut_ids:
                annotate(node, PXID, node.node_id)
                for child in node.element_children():
                    annotate(child, PXID, child.node_id)

    def __str__(self) -> str:
        gamma = "{" + ", ".join(str(p) for p in self.prune) + "}"
        return f"π[{self.path}, {gamma}]"


class Composition(DocumentOperator):
    """Chained application ``second • first`` (hybrid fragments, Def. 4).

    ``first`` runs before ``second``; the paper writes ``π • σ`` and notes
    "the order of the application of the operations depends on the
    fragmentation design".
    """

    def __init__(self, first: DocumentOperator, second: DocumentOperator):
        self.first = first
        self.second = second

    def apply(self, document: XMLDocument) -> list[XMLDocument]:
        results: list[XMLDocument] = []
        for intermediate in self.first.apply(document):
            results.extend(self.second.apply(intermediate))
        return results

    def __str__(self) -> str:
        return f"{self.second} • {self.first}"


def selection(predicate: Predicate) -> Selection:
    """Shorthand constructor for σμ."""
    return Selection(predicate)


def projection(
    path: Union[PathExpr, str],
    prune: Sequence[Union[PathExpr, str]] = (),
    allow_multiple: bool = False,
) -> Projection:
    """Shorthand constructor for π_{P,Γ}."""
    return Projection(path, prune=prune, allow_multiple=allow_multiple)


def compose(first: DocumentOperator, second: DocumentOperator) -> Composition:
    """Apply ``first`` then ``second``."""
    return Composition(first, second)
