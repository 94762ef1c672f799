"""Document projection: write a document restricted to what a query reads.

A vertical join used to fetch whole fragment documents and throw most of
their bytes away after parsing them. *Document projection* (Marian &
Siméon, VLDB 2003) is the sound alternative: a query can only reach the
nodes its path steps name, so a document restricted to those label paths
answers it the same. The decomposer derives the paths
(:func:`repro.partix.decomposer.projection_paths`), ships them as the
string arguments of the ``px:project`` built-in, and the site writes each
stored document through :func:`serialize_projected`.

The **keep rule** is a trie over child element labels: ``None`` keeps a
subtree *whole*; a dict maps the labels of the element children to keep
to their own rules, the element itself then being written *bare* — its
tag and **all** its attributes (so ``pxid``/``pxparent``/``pxorigin``
and the empty stub placeholders the ID-join grafts into always survive),
nothing else. As path strings, relative to the document root:

* ``body/abstract`` — every such subtree whole, ``body`` bare on the way;
* ``body/section/@*`` — the ``section`` elements bare: a query iterates
  or counts them, so they must exist, but reads nothing below them;
* ``.`` — the whole document; no path at all — the bare root.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.datamodel.tree import Node, NodeKind
from repro.xmltext.escape import escape_attribute
from repro.xmltext.serializer import serialize

Keep = Optional[dict]

WHOLE_DOCUMENT = "."
_BARE = "@*"


def keep_path(keep: Keep, labels: Sequence[str], whole: bool) -> Keep:
    """``keep`` with one more label path kept — whole, or bare at its end."""
    if keep is None or (whole and not labels):
        return None
    if labels:
        keep[labels[0]] = keep_path(keep.get(labels[0], {}), labels[1:], whole)
    return keep


def parse_keep(paths: Iterable[str]) -> Keep:
    """The keep rule a list of path strings names."""
    keep: Keep = {}
    for path in paths:
        labels = [] if path == WHOLE_DOCUMENT else path.split("/")
        whole = labels[-1:] != [_BARE]
        keep = keep_path(keep, labels if whole else labels[:-1], whole)
    return keep


def render_keep(keep: Keep) -> tuple[str, ...]:
    """The canonical path strings of a keep rule (:func:`parse_keep`'s
    inverse): sorted, and free of paths another one already covers."""
    if keep is None:
        return (WHOLE_DOCUMENT,)
    paths = []
    for label in sorted(keep):
        below = keep[label]
        if below is None:
            paths.append(label)
        elif not below:
            paths.append(f"{label}/{_BARE}")
        else:
            paths.extend(f"{label}/{path}" for path in render_keep(below))
    return tuple(paths)


def serialize_projected(node: Node, keep: Keep) -> str:
    """Compact serialization of the element ``node`` restricted to ``keep``.

    A kept-whole subtree is written by :func:`serialize` — from its span
    of the node table when ``node`` is a stored handle — and a subtree
    that is not kept is skipped without being read.
    """
    if keep is None:
        return serialize(node)
    out = ["<", node.label]
    content = []
    for child in node.children:
        if child.kind is NodeKind.ATTRIBUTE:
            value = escape_attribute(child.text_value())
            out.append(f' {child.label}="{value}"')
        elif child.kind is NodeKind.ELEMENT and child.label in keep:
            content.append(child)
    if not content:
        out.append("/>")
        return "".join(out)
    out.append(">")
    for child in content:
        out.append(serialize_projected(child, keep[child.label]))
    out.append(f"</{node.label}>")
    return "".join(out)
