"""The coordinator's query log.

The :class:`QueryLog` is a bounded, thread-safe ring buffer of
:class:`QueryLogEntry` records built from executed
:class:`~repro.partix.middleware.PartixResult`\\ s:

* one :class:`LaneObservation` per sub-query execution, carrying the
  fragment, the site that answered, the planner's estimate next to the
  measured seconds, and the bytes the lane returned;
* the catalog version the query planned against, so observations from
  a design that no longer exists can be told apart.

The coordinator records every successful query; recording is O(lanes)
with one short lock hold, cheap enough for the serving hot path.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.partix.middleware import PartixResult


@dataclass(frozen=True)
class LaneObservation:
    """One sub-query lane of one logged query."""

    fragment: str
    site: str
    measured_seconds: float
    estimated_seconds: Optional[float]
    result_bytes: int

    def to_dict(self) -> dict:
        return {
            "fragment": self.fragment,
            "site": self.site,
            "measured_seconds": self.measured_seconds,
            "estimated_seconds": self.estimated_seconds,
            "result_bytes": self.result_bytes,
        }


@dataclass(frozen=True)
class QueryLogEntry:
    """One executed query."""

    query: str
    collection: Optional[str]
    catalog_version: int
    elapsed_seconds: float
    lanes: tuple[LaneObservation, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "collection": self.collection,
            "catalog_version": self.catalog_version,
            "elapsed_seconds": self.elapsed_seconds,
            "lanes": [lane.to_dict() for lane in self.lanes],
        }


class QueryLog:
    """Bounded thread-safe ring buffer of executed-query observations."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self._recorded = 0

    # ------------------------------------------------------------------
    def record(self, entry: QueryLogEntry) -> None:
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1

    def record_result(
        self,
        query: str,
        collection: Optional[str],
        result: "PartixResult",
        elapsed_seconds: float,
        catalog_version: int,
    ) -> QueryLogEntry:
        """Build an entry from a finished execution and record it."""
        entry = QueryLogEntry(
            query=query,
            collection=collection,
            catalog_version=catalog_version,
            elapsed_seconds=elapsed_seconds,
            lanes=tuple(
                LaneObservation(
                    fragment=execution.fragment,
                    site=execution.site,
                    measured_seconds=execution.elapsed,
                    estimated_seconds=execution.estimated_seconds,
                    result_bytes=execution.bytes_received,
                )
                for execution in result.round.executions
            ),
        )
        self.record(entry)
        return entry

    # ------------------------------------------------------------------
    def entries(
        self, collection: Optional[str] = None
    ) -> list[QueryLogEntry]:
        """A snapshot of the buffered entries (optionally one collection)."""
        with self._lock:
            snapshot = list(self._entries)
        if collection is None:
            return snapshot
        return [e for e in snapshot if e.collection == collection]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_payload(self) -> dict:
        """Summary block for the coordinator's STATS/PING payloads."""
        with self._lock:
            entries = list(self._entries)
            recorded = self._recorded
        site_seconds: Counter = Counter()
        for entry in entries:
            for lane in entry.lanes:
                site_seconds[lane.site] += lane.measured_seconds
        return {
            "capacity": self.capacity,
            "entries": len(entries),
            "recorded": recorded,
            "distinct_queries": len(
                {(e.query, e.collection) for e in entries}
            ),
            "busiest_sites": [
                {"site": site, "measured_seconds": seconds}
                for site, seconds in site_seconds.most_common(3)
            ],
        }
