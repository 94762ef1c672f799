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

Two composition *modes* share those kinds. The monolithic
:meth:`ResultComposer.compose` takes every partial as a finished string.
The streaming :class:`IncrementalComposer` (built by
:meth:`ResultComposer.incremental`) is a *chunk sink* fed by the
dispatcher while sub-queries are still running: ``concat`` lanes append
to per-fragment :class:`SpillBuffer`\\ s (bounded memory, catalog
fragment order restored at :meth:`~IncrementalComposer.finish`),
``aggregate`` lanes parse their scalar partials at arrival and fold them
*in plan order* at finish — sharing :func:`fold_aggregate_values` with
the monolithic path so float summation order, and therefore the answer
bytes, are identical no matter which lane finished first.
"""

from __future__ import annotations

import re
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

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
from repro.net.protocol import DEFAULT_CHUNK_BYTES
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

    # ------------------------------------------------------------------
    def incremental(
        self,
        spec: CompositionSpec,
        subqueries: Sequence[SubQuery],
        spill_threshold: int = DEFAULT_CHUNK_BYTES,
    ) -> "IncrementalComposer":
        """A chunk sink composing ``subqueries``' streamed partials.

        Feed it to :meth:`ParallelDispatcher.dispatch` as ``chunk_sink``;
        call :meth:`IncrementalComposer.finish` once the round returns.
        """
        return IncrementalComposer(
            spec, subqueries, spill_threshold=spill_threshold
        )


# ----------------------------------------------------------------------
# Shared aggregate folding (monolithic and incremental paths)
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
    """Fold parsed partials (plan order!) into the final answer text.

    Both composition modes call this with the partials in plan order, so
    order-sensitive folds (float ``sum``) produce identical bytes no
    matter when each lane's partial actually arrived.
    """
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


class SpillBuffer:
    """Byte accumulator with bounded memory: spills to a temp file.

    Chunks append in memory until ``threshold`` bytes, then the whole
    buffer moves to an anonymous temporary file and later chunks go
    straight to disk — so a coordinator lane buffering a huge fragment
    result holds at most ~``threshold`` bytes in memory (the metric
    :attr:`IncrementalComposer.peak_buffered_bytes` audits).
    """

    def __init__(self, threshold: int = DEFAULT_CHUNK_BYTES):
        self.threshold = max(1, int(threshold))
        self._memory = bytearray()
        self._file = None
        self.total_bytes = 0

    @property
    def memory_bytes(self) -> int:
        return len(self._memory)

    def write(self, data: bytes) -> None:
        self.total_bytes += len(data)
        if self._file is not None:
            self._file.write(data)
            return
        self._memory += data
        if len(self._memory) > self.threshold:
            self._file = tempfile.TemporaryFile(prefix="partix-spill-")
            self._file.write(self._memory)
            self._memory = bytearray()

    def getvalue(self) -> bytes:
        """Every byte written so far, in order."""
        if self._file is None:
            return bytes(self._memory)
        self._file.seek(0)
        data = self._file.read()
        self._file.seek(0, 2)
        return data

    def release(self) -> None:
        """Drop memory and close the spill file (idempotent)."""
        self._memory = bytearray()
        if self._file is not None:
            self._file.close()
            self._file = None


class IncrementalComposer:
    """Streaming composition: a chunk sink with a plan-order finish.

    The dispatcher protocol (see
    :meth:`~repro.cluster.dispatch.ParallelDispatcher.dispatch`):

    * ``begin(i)`` — called before *every* attempt of sub-query ``i``;
      resets the lane so a retried attempt never keeps stale bytes;
    * ``chunk(i, data)`` — one streamed byte slice for lane ``i``
      (slices concatenate to the lane's full UTF-8 answer; a slice may
      end mid-way through a multi-byte character — lanes decode only at
      completion);
    * ``complete(i)`` — lane ``i``'s bytes are final (the attempt was
      accepted). Only completed lanes contribute to the answer, matching
      the degrade policy's dropped-fragment semantics.

    ``finish()`` composes in **plan order** regardless of arrival order,
    and for ``aggregate`` reuses :func:`fold_aggregate_values` — so the
    answer is byte-identical to the monolithic composer's.

    Thread safety: every method takes the sink lock; lanes are touched
    by one dispatcher thread at a time, the lock makes cross-lane
    bookkeeping (peak bytes, first-chunk time) coherent.
    """

    def __init__(
        self,
        spec: CompositionSpec,
        subqueries: Sequence[SubQuery],
        spill_threshold: int = DEFAULT_CHUNK_BYTES,
    ):
        self.spec = spec
        self.subqueries = list(subqueries)
        self.spill_threshold = spill_threshold
        self._lock = threading.Lock()
        self._created = time.perf_counter()
        self._buffers: dict[int, SpillBuffer] = {}
        self._values: dict[int, list] = {}
        self._completed: set[int] = set()
        #: Peak bytes held in coordinator memory across all lane buffers
        #: (spilled bytes excluded — they are on disk by design).
        self.peak_buffered_bytes = 0
        #: Seconds from sink creation to the first chunk of any lane.
        self.time_to_first_chunk: Optional[float] = None
        self.chunks_received = 0
        self.bytes_received = 0

    # -- chunk-sink protocol -------------------------------------------
    def begin(self, index: int) -> None:
        with self._lock:
            stale = self._buffers.pop(index, None)
            if stale is not None:
                stale.release()
            self._values.pop(index, None)
            self._completed.discard(index)
            self._buffers[index] = SpillBuffer(self.spill_threshold)

    def chunk(self, index: int, data: bytes) -> None:
        with self._lock:
            if self.time_to_first_chunk is None:
                self.time_to_first_chunk = (
                    time.perf_counter() - self._created
                )
            buffer = self._buffers.get(index)
            if buffer is None:  # tolerate a sink driven without begin()
                buffer = SpillBuffer(self.spill_threshold)
                self._buffers[index] = buffer
            buffer.write(data)
            self.chunks_received += 1
            self.bytes_received += len(data)
            in_memory = sum(b.memory_bytes for b in self._buffers.values())
            if in_memory > self.peak_buffered_bytes:
                self.peak_buffered_bytes = in_memory

    def complete(self, index: int) -> None:
        with self._lock:
            self._completed.add(index)
            if self.spec.kind == "aggregate":
                # Parse the scalar partial now and drop its bytes — the
                # aggregate path never holds lane text to the end.
                buffer = self._buffers.pop(index, None)
                text = ""
                if buffer is not None:
                    text = buffer.getvalue().decode("utf-8")
                    buffer.release()
                self._values[index] = parse_aggregate_partial(
                    self.spec.aggregate, text
                )

    # -- final composition ---------------------------------------------
    def _lane_text(self, index: int) -> str:
        buffer = self._buffers.get(index)
        if buffer is None:
            return ""
        return buffer.getvalue().decode("utf-8")

    def finish(self) -> ComposedResult:
        """Compose the completed lanes (plan order) into the answer."""
        started = time.perf_counter()
        with self._lock:
            order = [
                index
                for index in range(len(self.subqueries))
                if index in self._completed
            ]
            if self.spec.kind == "concat":
                chunks = [
                    strip_annotation_text(text)
                    for text in (self._lane_text(index) for index in order)
                    if text
                ]
                text = "\n".join(chunk for chunk in chunks if chunk)
                items = None
            elif self.spec.kind == "aggregate":
                values = [self._values.get(index, []) for index in order]
                text, items = fold_aggregate_values(
                    self.spec.aggregate, values
                )
            elif self.spec.kind == "reconstruct":
                partials = [
                    (self.subqueries[index], self._lane_text(index))
                    for index in order
                ]
                text, items = ResultComposer()._reconstruct(
                    self.spec, partials
                )
            else:
                raise DecompositionError(
                    f"unknown composition kind {self.spec.kind!r}"
                )
            for buffer in self._buffers.values():
                buffer.release()
            self._buffers.clear()
        elapsed = time.perf_counter() - started
        return ComposedResult(
            result_text=text,
            result_bytes=utf8_length(text),
            compose_seconds=elapsed,
            items=items,
        )


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


_ANNOTATION_RE = re.compile(
    r'\s+(?:pxid|pxparent)="\d+"|\s+pxorigin="[^"]*"'
)


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
