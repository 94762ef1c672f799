"""The multi-tenant coordinator service: PartiX on the frame server.

One :class:`Coordinator` accepts many concurrent client connections
speaking the frame protocol of :mod:`repro.net.protocol` and multiplexes
their QUERY frames onto one :class:`~repro.partix.middleware.Partix`
instance. It is a :class:`~repro.net.server.FrameServer` — the site
server's threaded connection loop, handshake, common frames, counters
and drain — that adds QUERY and REBALANCE:

* **Admission on the connection thread** — a QUERY claims an execution
  slot or a place in the queue of the
  :class:`~repro.coordinate.admission.AdmissionController`, or is shed
  at once with a typed :class:`~repro.errors.AdmissionRejected` carried
  by a QUERY_ERROR frame (``"shed": true``). At most ``max_active``
  queries execute and ``queue_limit`` wait.
* **Execution on the connection thread** — an admitted query executes
  at once on the thread that read it, as a site server answers EXECUTE;
  a queued one waits there for its slot, within its deadline. A slow
  query never blocks other connections; frames pipelined on one
  connection are answered in arrival order, each reply under the
  request id it answers.
* **Plan cache** — the middleware's :class:`~repro.plan.cache.PlanCache`
  lets repeat queries skip decompose; keyed on the catalog version, so
  a republish invalidates stale plans, and hits re-lower against live
  site health.
* **Deadlines** — a query's ``deadline_seconds`` budget starts at
  arrival: admission wait draws it down, the remainder is handed to the
  dispatcher as the round's shared retry budget
  (``Partix.execute(deadline_seconds=...)``), and an expired budget
  surfaces as :class:`~repro.errors.QueryDeadlineExceeded`.
* **Shared site pools** — in tcp mode every query runs over the one
  ``TcpSiteCluster`` client-pool set; pool reuse shows up in the serving
  stats (``connections_created`` stays near the pool size).
* **Rebalancing** — a REBALANCE frame carries one operator
  :class:`~repro.rebalance.RebalanceAction`, which the
  :class:`~repro.rebalance.Rebalancer` applies online.

Shutdown is the frame server's drain: the listener closes first, and
every query already admitted or queued finishes and its reply reaches
its client before its connection closes.
"""

from __future__ import annotations

import time
from concurrent import futures
from typing import Optional

from repro.errors import (
    AdmissionRejected,
    CoordinatorError,
    DispatchError,
    QueryDeadlineExceeded,
)
from repro.net.protocol import (
    Frame,
    FrameType,
    exception_to_payload,
    reply_frames,
)
from repro.net.server import Connection, FrameServer, RequestHandler
from repro.coordinate.admission import AdmissionController
from repro.partix.middleware import Partix, PartixResult
from repro.plan.cache import PlanCache
from repro.rebalance import QueryLog, RebalanceAction, Rebalancer


def _query_result_payload(result: PartixResult, elapsed: float) -> dict:
    """The QUERY_RESULT answer, text and size both (see ``reply_frames``)."""
    return {
        "result_text": result.result_text,
        "result_bytes": result.result_bytes,
        "elapsed_seconds": elapsed,
        "subqueries": len(result.round.executions),
        "failover_count": result.failover_count,
        "notes": list(result.notes),
    }


class Coordinator(FrameServer):
    """Serve concurrent client queries over one Partix middleware."""

    TALLIES = ("queries_served", "query_errors")

    def __init__(
        self,
        partix: Partix,
        execution_mode: str = "threads",
        host: str = "127.0.0.1",
        port: int = 0,
        max_active: int = 8,
        queue_limit: int = 32,
        default_deadline_seconds: Optional[float] = None,
        plan_cache: Optional[PlanCache] = None,
        site: str = "coordinator",
        query_log: Optional[QueryLog] = None,
    ):
        super().__init__(site, host, port)
        self.partix = partix
        self.execution_mode = execution_mode
        self.default_deadline_seconds = default_deadline_seconds
        self.admission = AdmissionController(
            max_active=max_active, queue_limit=queue_limit
        )
        # One cache for the middleware and the service: every served
        # query (and any in-process caller) plans through the one whose
        # counters STATS reports — the middleware's own unless given.
        if plan_cache is not None:
            partix.plan_cache = plan_cache
        self.plan_cache = partix.plan_cache
        #: Workload memory: every successful query records which
        #: fragments it scanned where and how long each lane took (see
        #: ``repro.rebalance.log``).
        self.query_log = query_log if query_log is not None else QueryLog()
        self.rebalancer = Rebalancer(partix)

    def request_handlers(self) -> dict[FrameType, RequestHandler]:
        return {
            FrameType.QUERY: self._query,
            FrameType.REBALANCE: self._rebalance,
        }

    def stats_payload(self) -> dict:
        payload = super().stats_payload()
        payload.update(
            execution_mode=self.execution_mode,
            admission=self.admission.snapshot(),
            plan_cache=self.plan_cache.stats(),
            query_log=self.query_log.stats_payload(),
        )
        tcp = getattr(self.partix, "_tcp", None)
        if tcp is not None:
            payload["site_pools"] = [
                client.pool_stats() for client in tcp.clients.values()
            ]
        return payload

    # ------------------------------------------------------------------
    # Query handling
    # ------------------------------------------------------------------
    def _query(self, connection: Connection, frame: Frame) -> None:
        """Answer one QUERY on the connection thread.

        Every failure, a shed or an expired deadline included, becomes
        the QUERY_ERROR reply: the client waits for exactly one answer."""
        arrived = time.perf_counter()
        payload = frame.payload
        try:
            result = self._execute(payload, arrived)
            elapsed = time.perf_counter() - arrived
            self.query_log.record_result(
                payload["query"],
                payload.get("collection"),
                result,
                elapsed,
                self.partix.distribution_catalog.version,
            )
        except Exception as exc:  # noqa: BLE001 - becomes a QUERY_ERROR
            self._tally("query_errors")
            error_payload = exception_to_payload(exc)
            error_payload["shed"] = isinstance(exc, AdmissionRejected)
            connection.reply(
                frame.request_id, FrameType.QUERY_ERROR, error_payload
            )
            return
        self._tally("queries_served")
        connection.send(
            reply_frames(
                FrameType.QUERY_RESULT,
                frame.request_id,
                _query_result_payload(result, elapsed),
                connection.chunk_bytes,
            )
        )

    # ------------------------------------------------------------------
    # Rebalancing (REBALANCE frame)
    # ------------------------------------------------------------------
    def _rebalance(self, connection: Connection, frame: Frame) -> dict:
        """Decode the operator's action, migrate, report."""
        if self._shutdown_requested.is_set():
            raise CoordinatorError("coordinator is draining; reconnect")
        action = RebalanceAction.from_dict(frame.payload.get("action"))
        report = self.rebalancer.apply(action)
        return {
            "action": action.to_dict(),
            "report": report.to_dict(),
            "catalog_version": self.partix.distribution_catalog.version,
        }

    def _execute(self, payload: dict, arrived: float) -> PartixResult:
        """Admission, the queue wait and deadline accounting around
        Partix.execute: the query claims a free slot, or waits in the
        queue on this thread for one, or is shed (``AdmissionRejected``)."""
        if self._shutdown_requested.is_set():
            raise CoordinatorError("coordinator is draining; reconnect")
        deadline = payload.get(
            "deadline_seconds", self.default_deadline_seconds
        )
        if not self.admission.try_start():
            waiter = futures.Future()
            self.admission.enqueue(waiter)  # may raise AdmissionRejected
            remaining = None
            if deadline is not None:
                remaining = deadline - (time.perf_counter() - arrived)
            try:
                waiter.result(timeout=remaining)
            except futures.TimeoutError:
                if not self.admission.abandon(waiter):
                    # Promoted concurrently with the timeout: the slot is
                    # ours to give back.
                    self._release_slot()
                raise QueryDeadlineExceeded(
                    f"deadline of {deadline:.3f}s expired after"
                    f" {time.perf_counter() - arrived:.3f}s in the"
                    " admission queue"
                ) from None
        try:
            budget = None
            if deadline is not None:
                budget = deadline - (time.perf_counter() - arrived)
                if budget <= 0:
                    raise QueryDeadlineExceeded(
                        f"deadline of {deadline:.3f}s expired before"
                        " dispatch could start"
                    )
            try:
                return self.partix.execute(
                    payload["query"],
                    collection=payload.get("collection"),
                    execution_mode=self.execution_mode,
                    deadline_seconds=budget,
                )
            except DispatchError as exc:
                if (
                    budget is not None
                    and exc.failures
                    and all(f.timed_out for f in exc.failures)
                ):
                    raise QueryDeadlineExceeded(
                        f"deadline of {deadline:.3f}s expired during"
                        f" dispatch: {exc}"
                    ) from exc
                raise
        finally:
            self._release_slot()

    def _release_slot(self) -> None:
        """Free one slot; promote the oldest *live* queued waiter."""
        while True:
            waiter = self.admission.finish()
            if waiter is None:
                return
            if not waiter.done():
                waiter.set_result(None)
                return
            # The waiter timed out between promotion and wake-up; its
            # slot transfers to the next one (loop).
