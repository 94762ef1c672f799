"""Per-layer tracing from outside the program.

Nothing under ``src/`` records spans yet, so the traced run replays
``Partix.execute`` from its public pieces —
``xquery.parse_query`` → ``QueryDecomposer.decompose_logical`` (through
the plan cache when one is installed) → ``plan.lower.lower`` →
``PlanExecutor.run`` over a :class:`RecordingTransport` — and opens a
span around each call and around every ``Transport.execute``. Counts
come from the result objects the program already returns
(``QueryResult``, ``SubQueryExecution``, ``PartixResult``).

Spans stay in memory; :meth:`Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.cluster.dispatch import (
    InProcessTransport,
    SerialTransport,
    Transport,
)
from repro.cluster.site import SubQueryExecution
from repro.errors import CatalogContention, CatalogError
from repro.partix.middleware import Partix, PartixResult
from repro.plan.executor import ExecutionMode
from repro.plan.lower import lower
from repro.xquery.parser import parse_query


@dataclass
class LaneStats:
    """The counters of one answered sub-query, copied out of its
    ``SubQueryExecution`` so the result's item trees can be freed."""

    elapsed: float
    materialize: float
    estimated: Optional[float]
    on_wire: bool
    bytes_sent: int
    bytes_received: int
    documents_scanned: int
    documents_materialized: int
    documents_pruned: int
    label_pruned: int
    cache_hits: int
    bytes_parsed: int
    result_bytes: int

    @classmethod
    def of(cls, execution: SubQueryExecution) -> "LaneStats":
        result = execution.result
        return cls(
            elapsed=result.measured_seconds,
            materialize=result.parse_seconds,
            estimated=execution.estimated_seconds,
            on_wire=execution.on_wire,
            bytes_sent=execution.bytes_sent,
            bytes_received=execution.bytes_received,
            documents_scanned=result.documents_scanned,
            documents_materialized=result.documents_parsed,
            documents_pruned=result.documents_pruned,
            label_pruned=result.label_pruned,
            cache_hits=result.cache_hits,
            bytes_parsed=result.bytes_parsed,
            result_bytes=result.result_bytes,
        )


@dataclass
class QueryTrace:
    """Everything the replay saw of one query."""

    query_id: int
    start: float
    end: float = 0.0
    parse_seconds: float = 0.0
    #: decompose_logical wall *minus* the probe parse (so parse and
    #: decompose add up to what ``Partix.execute`` spends planning).
    decompose_seconds: float = 0.0
    lower_seconds: float = 0.0
    run_start: float = 0.0
    run_end: float = 0.0
    compose_seconds: float = 0.0
    peak_buffered_bytes: int = 0
    first_chunk_seconds: Optional[float] = None
    failovers: int = 0
    planned: bool = False
    #: ``(start, end)`` of every ``Transport.execute`` call.
    lane_spans: list = field(default_factory=list)
    lanes: list = field(default_factory=list)  # LaneStats


class RecordingTransport(Transport):
    """Transport proxy that opens a span around every ``execute``."""

    def __init__(self, inner: Transport, tracer: "Tracer", trace: QueryTrace, parent: int):
        self.inner = inner
        self.tracer = tracer
        self.trace = trace
        self.parent = parent

    def resolve(self, site_names: Sequence[str]) -> None:
        self.inner.resolve(site_names)

    def ping(self, site: str) -> bool:
        return self.inner.ping(site)

    def execute(self, subquery, default_collection=None, timeout=None, on_chunk=None):
        start = time.perf_counter()
        try:
            return self.inner.execute(
                subquery,
                default_collection=default_collection,
                timeout=timeout,
                on_chunk=on_chunk,
            )
        finally:
            end = time.perf_counter()
            # list.append is atomic: lanes run on dispatcher threads.
            self.trace.lane_spans.append((start, end))
            self.tracer.span(
                "cluster.transport.execute",
                start,
                end,
                parent=self.parent,
                query_id=self.trace.query_id,
            )


class Tracer:
    """In-memory span store plus the traced ``Partix.execute`` replay."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        #: ``(span id, parent id, query id, name, start, end)``
        self.spans: list[tuple] = []
        self.queries: list[QueryTrace] = []

    def span(self, name, start, end, parent=None, query_id=None, span_id=None) -> int:
        if span_id is None:
            span_id = next(self._ids)
        self.spans.append((span_id, parent, query_id, name, start, end))
        return span_id

    # ------------------------------------------------------------------
    def execute(
        self,
        partix: Partix,
        query: str,
        collection: Optional[str] = None,
        execution_mode: str = "simulated",
        deadline_seconds: Optional[float] = None,
    ) -> PartixResult:
        """``Partix.execute`` with a span around every layer boundary."""
        root = next(self._ids)
        trace = QueryTrace(query_id=root, start=time.perf_counter())
        mode = ExecutionMode.parse(execution_mode)

        logical = self._plan(partix, query, collection, trace)

        started = time.perf_counter()
        plan = lower(
            logical,
            cost_model=partix.cost_model,
            site_health=partix.site_health,
        )
        ended = time.perf_counter()
        trace.lower_seconds = ended - started
        self.span("plan.lower", started, ended, parent=root, query_id=root)

        plan = plan.with_execution(
            streaming=mode.streaming,
            chunk_bytes=partix.chunk_bytes if mode.streaming else None,
        )
        if mode.transport == "tcp":
            inner: Transport = partix.tcp.transport()
        else:
            inner = InProcessTransport(partix.cluster, chunk_bytes=partix.chunk_bytes)
            if not mode.concurrent:
                inner = SerialTransport(inner)
        run_span = next(self._ids)
        transport = RecordingTransport(inner, self, trace, run_span)
        trace.run_start = time.perf_counter()
        executed = partix.plan_executor.run(
            plan,
            transport,
            partix.dispatcher,
            subquery_timeout=deadline_seconds,
        )
        trace.run_end = time.perf_counter()
        self.span(
            "cluster.plan_executor.run",
            trace.run_start,
            trace.run_end,
            parent=root,
            query_id=root,
            span_id=run_span,
        )
        composed = executed.composed
        round_ = executed.round
        trace.compose_seconds = composed.compose_seconds
        trace.peak_buffered_bytes = round_.peak_buffered_bytes
        trace.first_chunk_seconds = round_.first_chunk_seconds
        trace.failovers = round_.failover_count
        trace.lanes = [LaneStats.of(execution) for execution in round_.executions]
        # Composition runs inside plan_executor.run: a synthetic child
        # span placed at its tail keeps the time attributable.
        self.span(
            "partix.compose",
            trace.run_end - composed.compose_seconds,
            trace.run_end,
            parent=run_span,
            query_id=root,
        )
        result = PartixResult(
            query=query,
            result_text=composed.result_text,
            result_bytes=composed.result_bytes,
            round=round_,
            composed=composed,
            transmission_seconds=partix.network.gather_seconds(
                round_.result_sizes,
                query_sizes=[len(sub.query.encode("utf-8")) for sub in plan.subqueries],
            ),
            plan=plan,
            notes=list(plan.notes) + list(executed.notes),
        )
        trace.end = time.perf_counter()
        self.span("partix.execute", trace.start, trace.end, query_id=root, span_id=root)
        self.queries.append(trace)
        return result

    def _plan(self, partix: Partix, query, collection, trace: QueryTrace):
        """The logical plan, through the plan cache exactly as
        ``Partix._plan_for`` goes (version check, bounded replan)."""
        cache = partix.plan_cache
        catalog = partix.distribution_catalog
        root = trace.query_id
        for _ in range(partix.plan_retry_attempts if cache is not None else 1):
            version = catalog.version
            if cache is not None:
                logical = cache.get(query, collection, version)
                if logical is not None:
                    return logical
            # Probe parse: decompose_logical parses again internally, so
            # its span is charged net of this one.
            started = time.perf_counter()
            parse_query(query)
            parsed = time.perf_counter()
            try:
                logical = partix.decomposer.decompose_logical(query, collection)
            except CatalogError:
                if cache is not None and catalog.version != version:
                    continue
                raise
            ended = time.perf_counter()
            trace.planned = True
            trace.parse_seconds += parsed - started
            trace.decompose_seconds += max(0.0, (ended - parsed) - (parsed - started))
            self.span("xquery.parse_query", started, parsed, parent=root, query_id=root)
            self.span("partix.decompose_logical", parsed, ended, parent=root, query_id=root)
            if cache is None:
                return logical
            if catalog.version == version:
                cache.put(query, collection, version, logical)
                return logical
        raise CatalogContention(
            f"catalog version kept changing while planning {query!r}"
        )

    # ------------------------------------------------------------------
    def coverage(self) -> float:
        """Share of traced query wall time covered by child spans."""
        covered = sum(
            end - start
            for _, parent, query_id, _, start, end in self.spans
            if parent is not None and parent == query_id
        )
        total = sum(trace.end - trace.start for trace in self.queries)
        return covered / total if total else 0.0

    def write(self, path: str, header: dict) -> None:
        origin = min((span[4] for span in self.spans), default=0.0)
        payload = dict(header)
        payload["span_coverage"] = self.coverage()
        payload["span_fields"] = ["id", "parent", "query", "name", "start_us", "end_us"]
        payload["spans"] = [
            [
                span_id,
                parent,
                query_id,
                name,
                round((start - origin) * 1e6, 1),
                round((end - origin) * 1e6, 1),
            ]
            for span_id, parent, query_id, name, start, end in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_metrics(queries: list[QueryTrace]) -> dict[str, float]:
    """Mean-per-query layer figures from the replay's records.

    Times are means so the layers add up to the mean query latency;
    engine times sum over a query's lanes (work done, which the
    interpreter lock serializes anyway).
    """
    lanes = [lane for trace in queries for lane in trace.lanes]
    wired = [lane for lane in lanes if lane.on_wire]
    count = max(1, len(queries))

    def per_query(field_name: str, of=lanes) -> float:
        return sum(getattr(lane, field_name) for lane in of) / count

    dispatch_self = []
    lane_wait = []
    wire_seconds = 0.0
    for trace in queries:
        # Self time of plan_executor.run: its wall minus the part its
        # children (lanes in Transport.execute, composition) cover.
        covered, reach = 0.0, trace.run_start
        for start, end in sorted(trace.lane_spans):
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        dispatch_self.append(
            max(
                0.0,
                (trace.run_end - trace.run_start) - covered - trace.compose_seconds,
            )
        )
        lane_wait.extend(start - trace.run_start for start, _ in trace.lane_spans)
        if trace.lanes and trace.lanes[0].on_wire:
            wire_seconds += sum(end - start for start, end in trace.lane_spans)
            wire_seconds -= sum(lane.elapsed for lane in trace.lanes)

    q_errors = [
        max(lane.estimated / lane.elapsed, lane.elapsed / lane.estimated)
        for lane in lanes
        if lane.estimated and lane.elapsed > 0
    ]
    first_chunks = [
        trace.first_chunk_seconds
        for trace in queries
        if trace.first_chunk_seconds is not None
    ]
    planned = [trace for trace in queries if trace.planned]
    return {
        "xquery.parse_us": sum(t.parse_seconds for t in planned) / count * 1e6,
        "partix.decompose_us": sum(t.decompose_seconds for t in planned) / count * 1e6,
        "plan.lower_us": _mean(t.lower_seconds for t in queries) * 1e6,
        "plan.lanes_per_query": len(lanes) / count,
        "plan.estimate_q_error": statistics.median(q_errors) if q_errors else 0.0,
        "cluster.dispatch_self_us": _mean(dispatch_self) * 1e6,
        "cluster.lane_wait_us": _mean(lane_wait) * 1e6,
        "cluster.failovers": float(sum(t.failovers for t in queries)),
        "engine.execute_ms": per_query("elapsed") * 1e3,
        "engine.materialize_ms": per_query("materialize") * 1e3,
        "engine.docs_scanned_per_query": per_query("documents_scanned"),
        "engine.docs_materialized_per_query": per_query("documents_materialized"),
        "engine.docs_pruned_per_query": per_query("documents_pruned"),
        "engine.label_pruned_per_query": per_query("label_pruned"),
        "engine.cache_hits_per_query": per_query("cache_hits"),
        "engine.bytes_parsed_per_query": per_query("bytes_parsed"),
        "engine.result_bytes_per_query": per_query("result_bytes"),
        "net.wire_ms": wire_seconds / count * 1e3,
        "net.first_chunk_ms": _mean(first_chunks) * 1e3 if wired else 0.0,
        "net.bytes_sent_per_query": per_query("bytes_sent", wired),
        "net.bytes_received_per_query": per_query("bytes_received", wired),
        "partix.compose_us": _mean(t.compose_seconds for t in queries) * 1e6,
        "partix.compose_peak_buffered_bytes": float(
            max((t.peak_buffered_bytes for t in queries), default=0)
        ),
    }
