"""Execution statistics of the storage engine.

The reproduction's claims hinge on *why* fragmentation helps: fewer
documents scanned per site. These counters make that visible — benchmark
reports print documents scanned and trees built next to elapsed times,
and the ablation benches assert on them directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.datamodel.binary import NODE_ROW_BYTES, NodeHandle
from repro.datamodel.tree import Node, XMLNode

#: The per-byte half of the modeled clock: one stored byte of a document
#: read by the paper's parse-on-access engine — the planner's rate
#: (``plan.cost.SECONDS_PER_BYTE`` is this constant), about half of what
#: this engine spent per byte while it still decoded every document.
MODELED_SECONDS_PER_BYTE = 2e-8


def modeled_access_seconds(per_document_overhead: float, size: int) -> float:
    """Modeled cost of handing one stored document of ``size`` bytes to
    the evaluator; nothing for an engine without a modeled clock."""
    rate = MODELED_SECONDS_PER_BYTE if per_document_overhead else 0.0
    return per_document_overhead + size * rate


@dataclass
class EngineStats:
    """Cumulative counters of one engine instance.

    Engines never mutate a shared instance mid-query: each query charges a
    private accumulator and commits it once, under the engine's lock, via
    :meth:`absorb` — the invariant that keeps concurrent sub-queries from
    losing updates.
    """

    queries_executed: int = 0
    #: DOM trees built from storage (``parse_seconds`` building them,
    #: ``bytes_parsed`` the table rows decoded): evaluation runs on the
    #: tables in place, so only a constructor's :meth:`clone_node` copies.
    documents_parsed: int = 0
    bytes_parsed: int = 0
    #: Documents handed to the evaluator: with indexes on, the index
    #: candidates — a superset of the documents the query matches.
    documents_scanned: int = 0
    documents_pruned: int = 0
    index_lookups: int = 0
    #: Equals ``documents_parsed`` (every tree built from storage decodes
    #: a node table); it stays a field because it is part of the RESULT
    #: stats payload on the wire.
    binary_decodes: int = 0
    #: Both always 0: the exact pre-verification of index candidates
    #: and the parsed-document LRU they counted are gone. The fields
    #: stay only because ``benchmarks/e2e/tracing.py`` copies them; the
    #: next benchmark-only PR drops both.
    label_pruned: int = 0
    cache_hits: int = 0
    parse_seconds: float = 0.0
    evaluation_seconds: float = 0.0
    #: Simulated document access cost (never slept; see
    #: XMLEngine.per_document_overhead and modeled_access_seconds). Kept
    #: separate so reports can distinguish measured from simulated time.
    simulated_overhead_seconds: float = 0.0

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counters."""
        return EngineStats(**vars(self))

    def diff(self, earlier: "EngineStats") -> "EngineStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return EngineStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in vars(self)
            }
        )

    def reset(self) -> None:
        for name in list(vars(self)):
            setattr(self, name, type(getattr(self, name))())

    def merged_with(self, other: "EngineStats") -> "EngineStats":
        """Sum of two counter sets (for cluster-wide aggregation)."""
        return EngineStats(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in vars(self)
            }
        )

    def clone_node(self, node: Node) -> XMLNode:
        """Copy ``node`` for an element constructor (the evaluator's
        ``clone`` hook), charging a tree decoded from storage
        (``bytes_parsed``: its table rows); a DOM node was built by the
        query itself and is charged nothing."""
        if not isinstance(node, NodeHandle):
            return node.clone()
        started = time.perf_counter()
        tree = node.clone()
        self.parse_seconds += time.perf_counter() - started
        self.documents_parsed += 1
        self.binary_decodes += 1
        self.bytes_parsed += node.table.sizes[node.index] * NODE_ROW_BYTES
        return tree

    def absorb(self, delta: "EngineStats") -> None:
        """Add ``delta``'s counters in place (commit of a per-query
        accumulator; callers serialize commits with a lock)."""
        for name in vars(delta):
            setattr(self, name, getattr(self, name) + getattr(delta, name))


@dataclass(frozen=True)
class ExecOptions:
    """The per-query settings of one site-local execution.

    The one request record every layer below ``Transport.execute`` takes
    as ``(query, options=None)`` and passes through untouched — engine,
    drivers, :class:`~repro.cluster.site.Site`, wire client and server.
    A new per-query field is added here (and so to the payload pair
    below) and nowhere else. ``None`` always means "the site decides".

    ``default_collection`` resolves bare ``collection()`` calls.
    Index access is not a per-query option: each engine keeps its own
    setting.
    """

    default_collection: Optional[str] = None

    def to_payload(self) -> dict:
        """The flat EXECUTE-frame keys, set fields only (frames do not
        grow for options nobody asked for)."""
        return {
            name: value
            for name, value in vars(self).items()
            if value is not None
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExecOptions":
        """Read the options out of an EXECUTE payload; keys this version
        does not know (a newer peer's, or an option an older
        peer still sends) are ignored."""
        return cls(**{f.name: payload.get(f.name) for f in fields(cls)})


@dataclass
class QueryResult:
    """Outcome of one query execution on one engine.

    ``items`` is the result sequence (nodes and atomics). ``result_text``
    is the serialized result (what would travel over the network);
    ``result_bytes`` its UTF-8 size — the quantity the paper divides by
    the Gigabit-Ethernet speed to estimate transmission time.
    """

    items: list
    result_text: str
    result_bytes: int
    elapsed_seconds: float
    parse_seconds: float
    documents_parsed: int
    bytes_parsed: int
    documents_scanned: int
    documents_pruned: int
    index_lookups: int = 0
    cache_hits: int = 0
    simulated_overhead_seconds: float = 0.0
    binary_decodes: int = 0
    label_pruned: int = 0
    stats: EngineStats = field(repr=False, default_factory=EngineStats)

    @property
    def measured_seconds(self) -> float:
        """Elapsed time excluding the simulated per-document overhead."""
        return self.elapsed_seconds - self.simulated_overhead_seconds

    @classmethod
    def from_stats(
        cls,
        delta: EngineStats,
        items: list,
        result_bytes: int,
        elapsed_seconds: float,
        cumulative: EngineStats,
    ) -> "QueryResult":
        """The result record of one finished execution: every per-query
        counter is read off the query's ``delta`` accumulator by field
        name, so a counter added to both dataclasses needs no third
        edit. ``result_text`` starts empty — the text went to the
        consumer piece by piece (see ``XMLEngine.execute_iter``)."""
        return cls(
            items=items,
            result_text="",
            result_bytes=result_bytes,
            elapsed_seconds=elapsed_seconds,
            stats=cumulative,
            **{name: getattr(delta, name) for name in _COUNTER_FIELDS},
        )

    def to_payload(self, streamed: bool = False) -> dict:
        """The RESULT-frame payload, or with ``streamed`` the RESULT_END
        one: the text already went out as chunks, so its byte count
        travels in its place."""
        payload = {name: getattr(self, name) for name in _WIRE_FIELDS}
        del payload["result_text" if streamed else "result_bytes"]
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "QueryResult":
        """Rebuild a result from either payload form (``items`` stay
        empty). Counters a peer does not send keep their defaults and
        keys this version does not know are ignored."""
        known = {
            name: payload[name] for name in _WIRE_FIELDS if name in payload
        }
        text = known.setdefault("result_text", "")
        known.setdefault("result_bytes", len(text.encode("utf-8")))
        return cls(items=[], **known)


# Both lists are read off the dataclasses once, at import, so a new field
# or counter needs no list updated by hand.
#: The per-query counters ``from_stats`` copies from the accumulator.
_COUNTER_FIELDS = tuple(
    f.name
    for f in fields(QueryResult)
    if f.name in {counter.name for counter in fields(EngineStats)}
)
#: What crosses the wire: all but the result items (only the serialized
#: text travels, as with a real remote DBMS) and the cumulative counters.
_WIRE_FIELDS = tuple(
    f.name for f in fields(QueryResult) if f.name not in ("items", "stats")
)
