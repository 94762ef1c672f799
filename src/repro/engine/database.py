"""MiniX — the sequential XQuery-enabled XML DBMS used at each site.

This is the reproduction's stand-in for eXist: a single-node database
that stores collections of XML documents as binary node tables,
maintains document-level indexes, and executes the XQuery subset. The
execution pipeline per query is:

1. parse the query and statically analyze it — once per distinct text:
   the compiled ``(expr, analysis)`` pair is kept in a bounded LRU;
2. for each referenced collection, prune candidate documents through the
   collection's index (text-search, value and path predicates) — a
   superset; the query's own ``where`` clause is the exact filter;
3. hand the evaluator one root *handle* per candidate
   (:class:`~repro.datamodel.binary.NodeHandle`) — every document handed
   over is charged the modeled access cost behind the paper's
   fragmentation speedups when the modeled clock is on
   (``per_document_overhead`` plus a per-byte term; with
   ``use_indexes=False`` every document of the collection is handed
   over) — and evaluate on the node tables in place: path steps,
   predicates and string values read the preorder arrays, no tree is
   built;
4. serialize the result sequence into the answer's one text, each
   result node straight from its span of the table; ``result_bytes`` is
   that text's UTF-8 size. The only DOM a query builds is the copy of a
   stored subtree that an element constructor embeds — what
   ``documents_parsed``, ``bytes_parsed``, ``binary_decodes`` and
   ``parse_seconds`` count.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Iterable, Optional, Union

from repro.datamodel.binary import NodeHandle
from repro.datamodel.document import XMLDocument
from repro.datamodel.tree import Node
from repro.engine.indexes import candidate_documents
from repro.engine.stats import (
    EngineStats,
    ExecOptions,
    QueryResult,
    modeled_access_seconds,
)
from repro.engine.store import DocumentStore, StoredDocument
from repro.errors import (
    CollectionNotFoundError,
    StorageError,
    XQueryEvaluationError,
)
from repro.paths.predicates import Predicate
from repro.xmltext.serializer import serialize, utf8_length
from repro.xquery.analysis import QueryAnalysis, analyze_query
from repro.xquery.ast_nodes import Expr
from repro.xquery.evaluator import DynamicContext, Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.values import atomic_to_string

#: Distinct query texts an engine keeps compiled (LRU beyond that).
COMPILE_CACHE_CAPACITY = 256


class XMLEngine:
    """A single-site XML database executing the XQuery subset.

    Parameters
    ----------
    name:
        Engine instance name (the site name in a cluster).
    storage_dir:
        When given, documents persist under this directory.
    use_indexes:
        Enable index-assisted document pruning (the candidates are a
        superset of the matching documents). Off means the
        paper-faithful full scan.
    per_document_overhead:
        *Simulated* fixed cost (seconds) per document handed to the
        evaluator, added to reported elapsed times but never slept.
        Models the per-document costs of a production DBMS (catalog
        lookup, locking, buffer-pool traffic, DOM table setup) that a
        dict-backed store lacks. Defaults to 0 (pure measurement); the
        paper-faithful benchmark scenarios set a calibrated value
        (``bench.scenarios.PAPER_DOC_OVERHEAD``, derived there).
        Setting it turns the *modeled clock* on, which also charges
        ``MODELED_SECONDS_PER_BYTE`` per stored byte of a document
        handed over: the parse-on-access work of the paper's engine
        (``engine.stats.modeled_access_seconds``). The amount added is
        tracked separately in ``stats.simulated_overhead_seconds``.
    """

    def __init__(
        self,
        name: str = "minix",
        storage_dir: Optional[str] = None,
        use_indexes: bool = True,
        per_document_overhead: float = 0.0,
    ):
        self.name = name
        self.store = DocumentStore(storage_dir=storage_dir)
        self.stats = EngineStats()
        self.use_indexes = use_indexes
        self.per_document_overhead = per_document_overhead
        # Concurrency: queries may run on several threads against one
        # engine (the cluster dispatcher's "threads" mode). Shared stats
        # only change via single locked commits of per-query accumulators.
        self._stats_lock = threading.Lock()
        self._compiled: OrderedDict[str, tuple[Expr, QueryAnalysis]] = (
            OrderedDict()
        )
        self._compiled_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Data definition / manipulation
    # ------------------------------------------------------------------
    def create_collection(self, name: str) -> None:
        self.store.create_collection(name)

    def drop_collection(self, name: str) -> None:
        self.store.drop_collection(name)

    def retain_documents(self, collection: str, keep: Iterable[str]) -> None:
        """Remove every document of ``collection`` not named in ``keep`` —
        what a republish uses to retire the documents of an earlier
        publication it did not overwrite."""
        self._require_collection(collection)
        keep = set(keep)
        for name in self.store.collection(collection).names():
            if name not in keep:
                self.store.remove_document(collection, name)

    def has_collection(self, name: str) -> bool:
        return self.store.has_collection(name)

    def collection_names(self) -> list[str]:
        return self.store.collection_names()

    def store_document(
        self,
        collection: str,
        document: Union[XMLDocument, str, bytes],
        name: Optional[str] = None,
        origin: Optional[str] = None,
    ) -> StoredDocument:
        """Store one document into ``collection`` (created on demand)."""
        if not self.store.has_collection(collection):
            self.store.create_collection(collection)
        return self.store.store_document(
            collection, document, name=name, origin=origin
        )

    def _require_collection(self, name: str) -> None:
        """Fail with a clear engine-level error for a missing collection.

        The engine contract is strict (raise); the driver boundary is
        lenient (return 0) — see ``MiniXDriver.document_count``.
        """
        if not self.store.has_collection(name):
            raise CollectionNotFoundError(
                f"engine {self.name!r} has no collection {name!r}"
            )

    def document_count(self, collection: str) -> int:
        self._require_collection(collection)
        return len(self.store.collection(collection))

    def collection_bytes(self, collection: str) -> int:
        self._require_collection(collection)
        return self.store.collection(collection).total_bytes()

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _compile(
        self, query: Union[str, Expr]
    ) -> tuple[Expr, QueryAnalysis]:
        """The pipeline's **parse/analyze** stage: ``(expr, analysis)``
        of a query, compiled once per distinct text.

        Both are pure functions of the text — AST nodes are frozen and
        nothing downstream writes to the analysis — so the pair is
        shared by every execution of that text, under any options, from
        any thread, and nothing ever invalidates it; the LRU only bounds
        memory. A text that does not parse raises before anything is
        stored. An already parsed ``Expr`` is analyzed and not cached.
        """
        if not isinstance(query, str):
            return query, analyze_query(query)
        with self._compiled_lock:
            compiled = self._compiled.get(query)
            if compiled is not None:
                self._compiled.move_to_end(query)
                return compiled
        expr = parse_query(query)
        compiled = (expr, analyze_query(expr))
        with self._compiled_lock:
            self._compiled[query] = compiled
            if len(self._compiled) > COMPILE_CACHE_CAPACITY:
                self._compiled.popitem(last=False)
        return compiled

    def scan_candidates(
        self,
        collection_name: str,
        predicate: Optional[Predicate],
        stats: EngineStats,
        origins: Optional[frozenset] = None,
    ) -> list[str]:
        """The pipeline's **scan/prune** stage: candidate documents of a
        collection under the pruning predicate, in store order, with
        every pruning counter charged to ``stats``.

        Runs once per ``collection()`` call. With the engine's indexes
        off every document is a candidate (the paper-faithful full scan).
        With indexes on the candidates are the index *superset* — the
        extracted predicate is a necessary condition, and the query's
        own ``where`` clause, evaluated on the same node tables right
        after, is the exact filter — so ``documents_scanned`` counts
        the superset. ``origins`` (``px:collection``) keeps only the
        documents stored under one of those origins: a set lookup per
        document, whatever the number of keys, and a document outside
        the set is never handed to the evaluator (it counts as pruned).
        """
        collection = self.store.collection(collection_name)
        if self.use_indexes and predicate is not None:
            candidates, lookups = candidate_documents(collection, predicate)
            stats.index_lookups += lookups
        else:
            candidates = collection.names()
        if origins is not None:
            candidates = [
                name
                for name in candidates
                if collection.get(name).origin in origins
            ]
        stats.documents_scanned += len(candidates)
        stats.documents_pruned += len(collection) - len(candidates)
        return candidates

    def execute(
        self,
        query: Union[str, Expr],
        options: Optional[ExecOptions] = None,
    ) -> QueryResult:
        """Execute a query and return its :class:`QueryResult`.

        The one site-local operator pipeline: parse and analyse
        (:meth:`_compile`, once per text) → **scan/prune**
        (:meth:`scan_candidates`, once per ``collection()`` call) →
        **evaluate** over the candidates → **serialize**
        (:func:`serialize_sequence`). Elapsed time is the wall clock up
        to the serialized answer plus the simulated document access cost
        the query accumulated.
        """
        options = options or ExecOptions()
        started = time.perf_counter()
        # Per-query accumulator: every counter this query touches lands
        # here first and is committed to the shared stats exactly once,
        # so concurrent queries cannot lose each other's updates (and the
        # reported deltas cannot include a neighbour's work).
        delta = EngineStats()
        expr, analysis = self._compile(query)
        provider = _EngineProvider(self, options, analysis.predicate, delta)
        eval_started = time.perf_counter()
        items = Evaluator(delta.clone_node).evaluate(
            expr, DynamicContext(provider=provider)
        )
        delta.evaluation_seconds += time.perf_counter() - eval_started
        delta.queries_executed += 1
        text = serialize_sequence(items)
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.stats.absorb(delta)
            cumulative = self.stats.snapshot()
        return QueryResult.from_stats(
            delta,
            items=items,
            result_text=text,
            result_bytes=utf8_length(text),
            elapsed_seconds=elapsed + delta.simulated_overhead_seconds,
            cumulative=cumulative,
        )

    def config(self) -> dict:
        """The constructor settings a twin of this engine needs to behave
        like it (``XMLEngine(name, **engine.config())``) — what a
        spawned site server is configured from. ``storage_dir`` is left
        out on purpose: a twin must not share this engine's files."""
        return {
            "use_indexes": self.use_indexes,
            "per_document_overhead": self.per_document_overhead,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(
        self,
        query: Union[str, Expr],
        default_collection: Optional[str] = None,
    ) -> dict:
        """Describe how a query would execute, without executing it.

        Returns a dict with the extracted pruning ``predicate``, the
        top-level ``aggregate`` (if any), and per-collection candidate
        counts under the current indexes.
        """
        _, analysis = self._compile(query)
        collections = {}
        for name in analysis.collections:
            resolved = name or default_collection
            if resolved is None or not self.store.has_collection(resolved):
                continue
            # The real scan/prune stage against a throwaway accumulator.
            probe = EngineStats()
            candidates = self.scan_candidates(
                resolved, analysis.predicate, probe
            )
            collections[resolved] = {
                "documents": len(self.store.collection(resolved)),
                "candidates": len(candidates),
                "index_lookups": probe.index_lookups,
            }
        return {
            "predicate": str(analysis.predicate) if analysis.predicate else None,
            "aggregate": analysis.aggregate,
            "uses_text_search": analysis.uses_text_search,
            "collections": collections,
        }


class _EngineProvider:
    """DocumentProvider backed by the engine's store and indexes.

    All counters charge the query's private ``stats`` accumulator — never
    the engine's shared stats — so concurrent queries stay race-free.
    """

    def __init__(
        self,
        engine: XMLEngine,
        options: ExecOptions,
        predicate: Optional[Predicate],
        stats: EngineStats,
    ):
        self._engine = engine
        self._options = options
        self._predicate = predicate
        self._stats = stats

    def _root(self, stored: StoredDocument) -> NodeHandle:
        """One stored document's root handle, charged its modeled access."""
        self._stats.simulated_overhead_seconds += modeled_access_seconds(
            self._engine.per_document_overhead, stored.size
        )
        return stored.binary.root

    def collection_roots(
        self, name: Optional[str], origins: Optional[frozenset] = None
    ) -> list[Node]:
        """The collection's candidate roots; with ``origins``, only those
        of documents stored under one of them (``px:collection``)."""
        collection_name = name or self._options.default_collection
        if collection_name is None:
            raise XQueryEvaluationError(
                "collection() without a name needs a default collection"
            )
        if not self._engine.store.has_collection(collection_name):
            raise StorageError(f"no collection named {collection_name!r}")
        candidates = self._engine.scan_candidates(
            collection_name,
            self._predicate,
            self._stats,
            origins,
        )
        collection = self._engine.store.collection(collection_name)
        return [self._root(collection.get(doc_name)) for doc_name in candidates]

    def document_root(self, name: str) -> Optional[Node]:
        for collection_name in self._engine.store.collection_names():
            collection = self._engine.store.collection(collection_name)
            if name in collection:
                self._stats.documents_scanned += 1
                return self._root(collection.get(name))
        return None


def serialize_sequence(items: list) -> str:
    """Serialize a result sequence the way a driver would ship it: one
    line per item, XML for a node and the canonical form of an atomic."""
    return "\n".join(
        serialize(item) if isinstance(item, Node) else atomic_to_string(item)
        for item in items
    )
