"""Result composition (paper §3.3/§4).

"PartiX gathers the results of the sub-queries and reconstructs the query
answer." Three composition kinds exist, matching the reconstruction
operator of each fragmentation type:

* ``concat`` — horizontal/hybrid value streams: partial results union
  (document-order within each fragment is preserved; cross-fragment order
  follows the catalog's fragment order, and a final ``order by`` in the
  original query is re-applied when its key is extractable).
* ``aggregate`` — merge partial aggregates: ``count``/``sum`` add up,
  ``min``/``max`` fold, ``avg`` recombines shipped (sum, count) pairs,
  ``exists``/``empty`` fold shipped booleans with any/all.
* ``reconstruct`` — the expensive vertical path: parse the fetched
  (projected) fragment documents, group them by their ``pxorigin`` join
  key, ID-join each group back into source documents, and re-run the
  original query on the rebuilt trees — the one evaluator over a
  provider that answers ``collection()``/``doc()`` from them; nothing is
  encoded, stored or indexed for a query that runs once.

There is one composition path: :meth:`ResultComposer.compose` is a
function of the lanes' answer texts *in plan order* — how each text's
bytes travelled (in process, inline in one frame, as chunks) is the
transport's business and never reaches here, and folding in plan order
makes order-sensitive folds (float ``sum``) byte-identical no matter
which lane finished first. A lane the degrade policy dropped is simply
not among the partials.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from typing import Optional

from repro.algebra.annotations import PXPARENT, read_annotation, read_origin
from repro.algebra.join import reconstruct_documents
from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import Node, NodeKind, XMLNode
from repro.engine.database import serialize_sequence, utf8_length
from repro.errors import (
    DecompositionError,
    StorageError,
    XQueryEvaluationError,
)
from repro.plan.spec import CompositionSpec, SubQuery
from repro.xmltext.parser import parse_forest
from repro.xquery.evaluator import DynamicContext, Evaluator
from repro.xquery.parser import parse_query


@dataclass
class ComposedResult:
    """Final answer plus the composition's own cost."""

    result_text: str
    result_bytes: int
    compose_seconds: float
    items: Optional[list] = None


class ResultComposer:
    """Combines partial sub-query results into the final answer."""

    def compose(
        self,
        spec: CompositionSpec,
        partials: list[tuple[SubQuery, str]],
    ) -> ComposedResult:
        """``partials`` pairs each sub-query with its serialized result."""
        started = time.perf_counter()
        if spec.kind == "concat":
            text = self._concat(partials)
            items = None
        elif spec.kind == "aggregate":
            text, items = self._aggregate(spec, partials)
        elif spec.kind == "reconstruct":
            text, items = self._reconstruct(spec, partials)
        else:
            raise DecompositionError(f"unknown composition kind {spec.kind!r}")
        elapsed = time.perf_counter() - started
        return ComposedResult(
            result_text=text,
            result_bytes=utf8_length(text),
            compose_seconds=elapsed,
            items=items,
        )

    # ------------------------------------------------------------------
    def _concat(self, partials: list[tuple[SubQuery, str]]) -> str:
        chunks = [strip_annotation_text(text) for _, text in partials if text]
        return "\n".join(chunk for chunk in chunks if chunk)

    # ------------------------------------------------------------------
    def _aggregate(
        self, spec: CompositionSpec, partials: list[tuple[SubQuery, str]]
    ) -> tuple[str, list]:
        op = spec.aggregate
        values = [parse_aggregate_partial(op, text) for _, text in partials]
        return fold_aggregate_values(op, values)

    # ------------------------------------------------------------------
    def _reconstruct(
        self, spec: CompositionSpec, partials: list[tuple[SubQuery, str]]
    ) -> tuple[str, list]:
        if spec.original_query is None or spec.source_collection is None:
            raise DecompositionError(
                "reconstruct composition needs the original query and"
                " collection"
            )
        parts: list[XMLDocument] = []
        for subquery, text in partials:
            for root in parse_forest(text):
                parts.extend(_extract_parts(root))
        rebuilt = reconstruct_documents(parts, root_label=spec.root_label)
        items = Evaluator().evaluate(
            parse_query(spec.original_query),
            DynamicContext(
                provider=_RebuiltProvider(spec.source_collection, rebuilt)
            ),
        )
        return serialize_sequence(items), items


# ----------------------------------------------------------------------
# Aggregate folding
# ----------------------------------------------------------------------
def parse_aggregate_partial(op: str, text: str) -> list:
    """Parse one fragment's shipped partial-aggregate result.

    Numeric aggregates ship whitespace-separated numbers (``avg`` ships
    a ``(sum, count)`` pair); ``exists``/``empty`` ship one xs:boolean
    token (``true``/``false``).
    """
    if op in ("exists", "empty"):
        return [token == "true" for token in text.split() if token]
    return [float(token) for token in text.split() if token]


def fold_aggregate_values(op: str, values: list[list]) -> tuple[str, list]:
    """Fold parsed partials (plan order!) into the final answer text:
    in plan order an order-sensitive fold (float ``sum``) produces the
    same bytes whichever lane's partial arrived first."""
    if op == "count" or op == "sum":
        total = sum(v[0] for v in values if v)
        if op == "count":
            return str(int(total)), [int(total)]
        return _format_number(total), [total]
    if op == "min":
        candidates = [v[0] for v in values if v]
        if not candidates:
            return "", []
        result = min(candidates)
        return _format_number(result), [result]
    if op == "max":
        candidates = [v[0] for v in values if v]
        if not candidates:
            return "", []
        result = max(candidates)
        return _format_number(result), [result]
    if op == "avg":
        # Each partial shipped (sum, count).
        total = sum(v[0] for v in values if len(v) >= 2)
        count = sum(v[1] for v in values if len(v) >= 2)
        if count == 0:
            return "", []
        result = total / count
        return _format_number(result), [result]
    if op == "exists":
        # Any fragment holding a match decides; no fragments (all pruned)
        # means no match anywhere — exactly centralized exists() on an
        # empty sequence.
        result = any(v[0] for v in values if v)
        return ("true" if result else "false"), [result]
    if op == "empty":
        result = all(v[0] for v in values if v)
        return ("true" if result else "false"), [result]
    raise DecompositionError(f"unknown aggregate {op!r}")


class _RebuiltProvider:
    """DocumentProvider over the documents an ID-join rebuilt: the
    source collection is those trees in origin order, ``doc(name)`` the
    one rebuilt from the parts of origin ``name``."""

    def __init__(self, collection: str, documents: list[XMLDocument]):
        self._collection = collection
        self._documents = documents

    def collection_roots(self, name: Optional[str]) -> list[Node]:
        if name is None:
            raise XQueryEvaluationError(
                "collection() without a name needs a default collection"
            )
        if name != self._collection:
            raise StorageError(f"no collection named {name!r}")
        return [document.root for document in self._documents]

    def document_root(self, name: str) -> Optional[Node]:
        for document in self._documents:
            if document.name == name:
                return document.root
        return None


#: Anchored on the literal `` px`` the serializer writes before each
#: annotation (one space, then the attribute): a pattern that opens with
#: ``\s+`` is retried at every blank of a large returned subtree.
_ANNOTATION_RE = re.compile(r' px(?:(?:id|parent)="\d+"|origin="[^"]*")')


def strip_annotation_text(text: str) -> str:
    """Remove reconstruction annotations from serialized results.

    The annotation names are reserved by this library (see
    :mod:`repro.algebra.annotations`), so the textual strip is safe for
    any document the publisher produced; it avoids re-parsing what may be
    a large value stream just to drop three attributes. Every
    annotation name contains ``px``, so text without it — any answer
    from horizontal fragments — is returned as it is, unscanned.
    """
    if "px" not in text:
        return text
    return _ANNOTATION_RE.sub("", text)


def _extract_parts(root: XMLNode) -> list[XMLDocument]:
    """Turn one fetched fragment document into join parts.

    * a root with ``pxparent`` is itself one part (vertical projection or
      hybrid FragMode1 unit);
    * a FragMode2 wrapper (chain document) contributes every descendant
      carrying ``pxparent``;
    * anything else (a remainder/skeleton document) is one part as-is.

    Each part's origin comes from its own ``pxorigin`` or the enclosing
    root's.
    """
    origin = read_origin(root)
    if read_annotation(root, PXPARENT) is not None:
        return [_as_part(root, origin)]
    # The outermost annotated nodes, in document order (grafts are whole
    # subtrees, so the walk never descends below one).
    units = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is not root and read_annotation(node, PXPARENT) is not None:
            units.append(node)
            continue
        stack.extend(
            child
            for child in reversed(node.children)
            if child.kind is NodeKind.ELEMENT
        )
    if units:
        return [_as_part(unit, read_origin(unit) or origin) for unit in units]
    return [_as_part(root, origin)]


def _as_part(node: XMLNode, origin: Optional[str]) -> XMLDocument:
    """``node`` as a join part. The tree it sits in was parsed by the
    composer for this join alone, so the node is detached, not copied."""
    node.parent = None
    return XMLDocument(node, name=None, assign_ids=False, origin=origin)


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value)
