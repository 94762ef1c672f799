"""ID-join — the reconstruction operator of vertical fragmentation.

§3.3: "for vertical fragmentation, the join (⋈) operator is used. We keep
an ID in each vertical fragment for reconstruction purposes."

Vertical fragments of one source document are projected subtrees carrying
``pxid``/``pxparent`` annotations (see :mod:`repro.algebra.annotations`).
Reconstruction grafts every annotated subtree back under the node whose
``pxid`` equals its ``pxparent``, restoring document order by comparing
the (pre-order) ids of annotated siblings.

Two situations arise for the document root:

* some fragment contains the original root (a *remainder* fragment such as
  ``F4items := π/Store, {/Store/Items}``) — it becomes the skeleton;
* no fragment contains the root (the paper's XBench design
  ``π/article/prolog ⋈ π/article/body ⋈ π/article/epilog`` covers only the
  root's children) — the root element is synthesized from the collection's
  declared root label.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.algebra.annotations import (
    PXID,
    PXPARENT,
    annotate,
    read_annotation,
    strip_annotations_in_place,
)
from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import NodeKind, XMLNode
from repro.errors import FragmentationError


def reconstruct_documents(
    fragments: Iterable[XMLDocument],
    root_label: Optional[str] = None,
    strip: bool = True,
) -> list[XMLDocument]:
    """Join vertical fragment documents back into their source documents.

    ``fragments`` may mix parts of several source documents; parts are
    grouped by their ``origin``. ``root_label`` names the element to
    synthesize when no part contains the source root. Results are sorted
    by origin.
    """
    by_origin: dict[str, list[XMLDocument]] = {}
    for part in fragments:
        key = part.origin or part.name or ""
        by_origin.setdefault(key, []).append(part)
    return [
        reconstruct_one(parts, root_label=root_label, origin=origin, strip=strip)
        for origin, parts in sorted(by_origin.items())
    ]


def reconstruct_one(
    parts: list[XMLDocument],
    root_label: Optional[str] = None,
    origin: Optional[str] = None,
    strip: bool = True,
) -> XMLDocument:
    """Join the vertical parts of a single source document.

    The parts stay untouched: the join works on one copy of each (a
    caller may pass live documents), and the rebuilt tree is made of
    those copies alone — annotations are stripped from it in place.
    """
    if not parts:
        raise FragmentationError("cannot reconstruct a document from no parts")
    skeletons = [p for p in parts if read_annotation(p.root, PXPARENT) is None]
    grafts = [p for p in parts if read_annotation(p.root, PXPARENT) is not None]
    if len(skeletons) > 1:
        # FragMode2 hybrid fragments ship the whole root→region spine, so
        # several parts legitimately claim the root — as long as they are
        # clones of the *same* original root (equal pxid), they merge.
        root_ids = {read_annotation(p.root, PXID) for p in skeletons}
        if len(root_ids) != 1 or None in root_ids:
            raise FragmentationError(
                f"{len(skeletons)} fragments claim the document root of"
                f" {origin!r}; vertical fragments must be disjoint"
            )
    if skeletons:
        skeleton = skeletons[0].root.clone(deep=True)
    else:
        if root_label is None:
            raise FragmentationError(
                "no fragment contains the document root and no root label"
                " was provided for synthesis"
            )
        skeleton = XMLNode.element(root_label)
        # The synthesized root adopts the common parent id of the grafts.
        parent_ids = {read_annotation(p.root, PXPARENT) for p in grafts}
        if len(parent_ids) > 1:
            # Nested prunes exist; the root is the smallest parent id.
            root_id = min(pid for pid in parent_ids if pid is not None)
        elif parent_ids:
            root_id = next(iter(parent_ids))
        else:
            root_id = 0
        annotate(skeleton, PXID, int(root_id or 0))

    targets = _index_targets(skeleton)
    for extra in skeletons[1:]:
        _merge_spine(targets, extra.root.clone(deep=True))
    # Outer subtrees first so nested grafts find their (just-grafted) parents.
    for part in sorted(grafts, key=_graft_sort_key):
        part_root = part.root.clone(deep=True)
        part_id = read_annotation(part_root, PXID)
        parent_id = read_annotation(part_root, PXPARENT)
        assert parent_id is not None
        stub = targets.get(part_id) if part_id is not None else None
        if stub is not None and _is_stub(stub):
            # A stub-keeping prune left an empty placeholder for exactly
            # this node: fill it in place rather than grafting a duplicate.
            _replace_node(stub, part_root)
        else:
            target = targets.get(parent_id)
            if target is None:
                raise FragmentationError(
                    f"fragment of {origin!r} grafts under node id"
                    f" {parent_id}, which no other fragment provides"
                    " (completeness violation)"
                )
            _insert_in_order(target, part_root)
        for node_id, node in _index_targets(part_root).items():
            targets[node_id] = node
    if strip:
        strip_annotations_in_place(skeleton)
    return XMLDocument(skeleton, name=origin, assign_ids=True, origin=origin)


def _merge_spine(targets: dict[int, XMLNode], root: XMLNode) -> None:
    """Fold an extra root-claiming part into the already-indexed skeleton.

    Spine nodes (same ``pxid`` as an indexed node) are duplicates of what
    the skeleton — or a previously merged part — already provides, so
    only their children are descended into; anything not yet indexed is a
    genuine payload subtree and is grafted wholesale at its pre-order
    position.
    """
    existing = targets[read_annotation(root, PXID)]
    for child in [c for c in root.children if c.kind is NodeKind.ELEMENT]:
        _merge_child(targets, existing, child)


def _merge_child(
    targets: dict[int, XMLNode], parent_target: XMLNode, node: XMLNode
) -> None:
    node_id = read_annotation(node, PXID)
    if node_id is None:
        # Spine duplicates and unit grafts are always id-annotated; an
        # unannotated element here means two fragments projected the same
        # region — a real disjointness violation, not FragMode2 packaging.
        raise FragmentationError(
            "overlapping root-claiming fragments: duplicated spine carries"
            f" an element <{node.label}> without a reconstruction id"
        )
    if node_id in targets:
        target = targets[node_id]
        for child in [c for c in node.children if c.kind is NodeKind.ELEMENT]:
            _merge_child(targets, target, child)
        return
    _insert_in_order(parent_target, node)
    for merged_id, merged in _index_targets(node).items():
        targets.setdefault(merged_id, merged)


def _is_stub(node: XMLNode) -> bool:
    """An empty placeholder left by a stub-keeping prune."""
    return node.kind is NodeKind.ELEMENT and all(
        child.kind is NodeKind.ATTRIBUTE for child in node.children
    )


def _replace_node(old: XMLNode, new: XMLNode) -> None:
    """Swap ``old`` for ``new`` in ``old``'s parent, keeping its position."""
    parent = old.parent
    if parent is None:
        raise FragmentationError("cannot replace a detached stub")
    index = parent.children.index(old)
    new.parent = parent
    parent.children[index] = new
    old.parent = None


def _graft_sort_key(part: XMLDocument) -> int:
    node_id = read_annotation(part.root, PXID)
    return node_id if node_id is not None else 1 << 60


def _index_targets(root: XMLNode) -> dict[int, XMLNode]:
    """Map pxid → node over every annotated node of a subtree."""
    targets: dict[int, XMLNode] = {}
    for node in root.descendants_or_self():
        if node.kind is not NodeKind.ELEMENT:
            continue
        node_id = read_annotation(node, PXID)
        if node_id is not None:
            targets[node_id] = node
    return targets


def _insert_in_order(parent: XMLNode, child: XMLNode) -> None:
    """Insert ``child`` among ``parent``'s children by pre-order id.

    Pre-order ids grow in document order, so a grafted subtree belongs
    before the first element sibling with a larger ``pxid``. Siblings
    without an id (not cut-point-annotated) sort before — they were left
    in place by the projection, and cut-point annotation marks every
    retained sibling, so unannotated siblings only occur in synthesized
    roots where append order (graft id order) is already correct.
    """
    child_id = read_annotation(child, PXID)
    child.parent = parent
    if child_id is None:
        parent.children.append(child)
        return
    for index, sibling in enumerate(parent.children):
        if sibling.kind is not NodeKind.ELEMENT:
            continue
        sibling_id = read_annotation(sibling, PXID)
        if sibling_id is not None and sibling_id > child_id:
            parent.children.insert(index, child)
            return
    parent.children.append(child)
