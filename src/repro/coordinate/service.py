"""The multi-tenant coordinator service: an asyncio reactor over PartiX.

One :class:`Coordinator` accepts many concurrent client connections
speaking the frame protocol of :mod:`repro.net.protocol` and multiplexes
their QUERY frames onto one :class:`~repro.partix.middleware.Partix`
instance:

* **Reactor** — connections are asyncio streams; reading frames never
  blocks a thread, so thousands of connections can be held open. Each
  QUERY becomes its own asyncio task: a slow query never head-of-line
  blocks other queries, even on the *same* connection (replies carry the
  request id they answer, and may interleave).
* **Bounded execution** — the blocking ``Partix.execute`` runs on a
  thread pool of exactly ``max_active`` workers, gated by the
  :class:`~repro.coordinate.admission.AdmissionController`: at most
  ``max_active`` queries execute, ``queue_limit`` wait, the rest are
  shed with a typed :class:`~repro.errors.AdmissionRejected` carried by
  a QUERY_ERROR frame (``"shed": true``).
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

Shutdown closes the *listener* first, then drains in-flight queries,
then closes the remaining connections — mirroring the site server's
drain contract.
"""

from __future__ import annotations

import asyncio
import threading
import time
from functools import partial
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import (
    AdmissionRejected,
    CoordinatorError,
    DispatchError,
    QueryDeadlineExceeded,
    RebalanceError,
)
from repro.net.protocol import (
    MAX_INLINE_RESULT_BYTES,
    Frame,
    FrameType,
    ProtocolError,
    answer_hello,
    encode_frame,
    exception_to_payload,
    read_frame_async,
)
from repro.coordinate.admission import AdmissionController
from repro.partix.advisor import RebalanceAction, WorkloadAdvisor
from repro.partix.middleware import Partix, PartixResult
from repro.plan.cache import PlanCache
from repro.rebalance import QueryLog, Rebalancer


def _query_result_payload(result: PartixResult, elapsed: float) -> dict:
    """QUERY_RESULT payload (without the text — added when it goes inline)."""
    return {
        "result_bytes": result.result_bytes,
        "elapsed_seconds": elapsed,
        "subqueries": len(result.round.executions),
        "failover_count": result.failover_count,
        "notes": list(result.notes),
    }


class Coordinator:
    """Serve concurrent client queries over one Partix middleware."""

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
        self.partix = partix
        self.execution_mode = execution_mode
        self.site = site
        self._host = host
        self._port = port
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
        #: Workload memory for the rebalancing advisor: every successful
        #: query records which fragments it scanned where and how long
        #: each lane took (see ``repro.rebalance``).
        self.query_log = query_log if query_log is not None else QueryLog()
        self.rebalancer = Rebalancer(partix)
        self._pool = ThreadPoolExecutor(
            max_workers=max_active, thread_name_prefix="partix-coordinate"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._draining = False
        self._query_tasks: set = set()
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        # Serving counters (touched on the loop thread only).
        self._queries_served = 0
        self._query_errors = 0
        self._bytes_in = 0
        self._bytes_out = 0
        self._started = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _main(self) -> None:
        self._stopping = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self._host, self._port
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            raise
        address = self._server.sockets[0].getsockname()
        self.host, self.port = address[0], address[1]
        self._ready.set()
        await self._stopping.wait()
        # Drain order: listener first — no new connection can arrive
        # while we wait for work already accepted.
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        while self._query_tasks:
            await asyncio.gather(
                *list(self._query_tasks), return_exceptions=True
            )
        # Closing each connection's transport feeds its reader EOF, so
        # every handler falls out of read_frame_async and returns on its
        # own — no task cancellation, no CancelledError noise.
        for writer in list(self._conn_writers):
            try:
                writer.close()
            except Exception:
                pass
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._main())
        except BaseException:
            if self._startup_error is None:
                raise
        finally:
            loop.close()

    def serve_in_thread(self) -> "Coordinator":
        """Start serving on a background thread; returns once listening."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name=f"coordinator-{self.site}"
        )
        self._thread.start()
        self._ready.wait(timeout=15.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise CoordinatorError(
                f"coordinator failed to start: {self._startup_error}"
            )
        if not self._ready.is_set():
            raise CoordinatorError("coordinator did not start listening")
        return self

    def close(self) -> bool:
        """Stop the listener, drain in-flight queries, join the thread.

        Returns True when the drain completed cleanly.
        """
        if self._thread is None:
            self._pool.shutdown(wait=False)
            return True
        assert self._loop is not None and self._stopping is not None
        try:
            self._loop.call_soon_threadsafe(self._stopping.set)
        except RuntimeError:
            pass  # loop already gone
        self._thread.join(timeout=30.0)
        clean = not self._thread.is_alive()
        self._thread = None
        self._pool.shutdown(wait=True)
        return clean

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI path)."""
        self.serve_in_thread()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def request_shutdown(self) -> None:
        """Begin the drain (idempotent, safe from any thread)."""
        if self._loop is None or self._stopping is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stopping.set)
        except RuntimeError:
            pass

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats_payload(self) -> dict:
        payload = {
            "site": self.site,
            "execution_mode": self.execution_mode,
            "queries_served": self._queries_served,
            "query_errors": self._query_errors,
            "bytes_received": self._bytes_in,
            "bytes_sent": self._bytes_out,
            "uptime_seconds": time.perf_counter() - self._started,
            "admission": self.admission.snapshot(),
            "plan_cache": self.plan_cache.stats(),
            "query_log": self.query_log.stats_payload(),
        }
        tcp = getattr(self.partix, "_tcp", None)
        if tcp is not None:
            payload["site_pools"] = [
                client.pool_stats() for client in tcp.clients.values()
            ]
        return payload

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            chunk_bytes = await self._handshake(reader, writer, write_lock)
            if chunk_bytes is None:
                return
            while True:
                try:
                    frame, received = await read_frame_async(reader)
                except ProtocolError:
                    return  # disconnect (or garbage; either way: close)
                self._bytes_in += received
                if frame.type is FrameType.QUERY:
                    self._spawn_query(frame, writer, write_lock, chunk_bytes)
                elif frame.type is FrameType.ADVISE:
                    self._spawn_task(
                        self._serve_advise(frame, writer, write_lock)
                    )
                elif frame.type is FrameType.REBALANCE:
                    self._spawn_task(
                        self._serve_rebalance(frame, writer, write_lock)
                    )
                elif frame.type is FrameType.PING:
                    await self._send(
                        writer,
                        write_lock,
                        Frame(
                            type=FrameType.PONG,
                            request_id=frame.request_id,
                            payload=self.stats_payload(),
                        ),
                    )
                elif frame.type is FrameType.STATS:
                    await self._send(
                        writer,
                        write_lock,
                        Frame(
                            type=FrameType.OK,
                            request_id=frame.request_id,
                            payload=self.stats_payload(),
                        ),
                    )
                elif frame.type is FrameType.SHUTDOWN:
                    await self._send(
                        writer,
                        write_lock,
                        Frame(
                            type=FrameType.OK,
                            request_id=frame.request_id,
                            payload={"draining": True},
                        ),
                    )
                    self.request_shutdown()
                    return
                else:
                    await self._send(
                        writer,
                        write_lock,
                        Frame(
                            type=FrameType.ERROR,
                            request_id=frame.request_id,
                            payload={
                                "error_type": "ProtocolError",
                                "message": (
                                    f"unexpected frame type {frame.type.name}"
                                ),
                            },
                        ),
                    )
        except asyncio.CancelledError:
            raise
        except (OSError, ConnectionError):
            return
        finally:
            self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            try:
                writer.close()
            except Exception:
                pass

    async def _handshake(self, reader, writer, write_lock) -> Optional[int]:
        """HELLO/WELCOME; returns the negotiated chunk size or None."""
        try:
            frame, received = await read_frame_async(reader)
        except ProtocolError:
            return None
        self._bytes_in += received
        reply, chunk_bytes = answer_hello(frame, self.site)
        await self._send(writer, write_lock, reply)
        return chunk_bytes

    async def _send(self, writer, write_lock, frame: Frame) -> None:
        data = encode_frame(frame)
        async with write_lock:
            writer.write(data)
            await writer.drain()
        self._bytes_out += len(data)

    # ------------------------------------------------------------------
    # Query handling
    # ------------------------------------------------------------------
    def _spawn_query(self, frame, writer, write_lock, chunk_bytes) -> None:
        self._spawn_task(
            self._serve_query(frame, writer, write_lock, chunk_bytes)
        )

    def _spawn_task(self, coroutine) -> None:
        """Track a request task so the drain waits for it."""
        task = asyncio.ensure_future(coroutine)
        self._query_tasks.add(task)
        task.add_done_callback(self._query_tasks.discard)

    async def _serve_query(self, frame, writer, write_lock, chunk_bytes) -> None:
        rid = frame.request_id
        payload = frame.payload
        arrived = time.perf_counter()
        deadline = payload.get(
            "deadline_seconds", self.default_deadline_seconds
        )
        try:
            if self._draining:
                raise CoordinatorError("coordinator is draining; reconnect")
            query = payload["query"]
            result = await self._execute(payload, query, deadline, arrived)
        except Exception as exc:  # noqa: BLE001 - becomes a QUERY_ERROR
            self._query_errors += 1
            error_payload = exception_to_payload(exc)
            error_payload["shed"] = isinstance(exc, AdmissionRejected)
            await self._send(
                writer,
                write_lock,
                Frame(
                    type=FrameType.QUERY_ERROR,
                    request_id=rid,
                    payload=error_payload,
                ),
            )
            return
        elapsed = time.perf_counter() - arrived
        self._queries_served += 1
        catalog = self.partix.distribution_catalog
        self.query_log.record_result(
            query,
            payload.get("collection"),
            result,
            elapsed,
            catalog.version,
            catalog=catalog,
        )
        reply = _query_result_payload(result, elapsed)
        if (
            result.result_bytes < chunk_bytes
            and result.result_bytes <= MAX_INLINE_RESULT_BYTES
        ):
            reply["result_text"] = result.result_text
        else:
            # The site's reply rule one layer up: an answer that fills a
            # chunk travels as RESULT_CHUNK frames (raw UTF-8 slices of
            # the negotiated size), closed by a QUERY_RESULT carrying
            # only the stats.
            data = result.result_text.encode("utf-8")
            for start in range(0, len(data), chunk_bytes):
                await self._send(
                    writer,
                    write_lock,
                    Frame(
                        type=FrameType.RESULT_CHUNK,
                        request_id=rid,
                        raw=data[start:start + chunk_bytes],
                    ),
                )
        await self._send(
            writer,
            write_lock,
            Frame(type=FrameType.QUERY_RESULT, request_id=rid, payload=reply),
        )

    # ------------------------------------------------------------------
    # Rebalancing (ADVISE / REBALANCE frames)
    # ------------------------------------------------------------------
    def _advisor(self) -> WorkloadAdvisor:
        return WorkloadAdvisor(
            self.partix.distribution_catalog,
            self.partix.cost_model,
            self.query_log,
            self.partix.cluster.site_names(),
        )

    async def _serve_advise(self, frame, writer, write_lock) -> None:
        payload = frame.payload
        try:
            loop = asyncio.get_running_loop()
            actions = await loop.run_in_executor(
                self._pool,
                partial(
                    self._advisor().advise,
                    collection=payload.get("collection"),
                    top=int(payload.get("top", 5)),
                ),
            )
            reply = {
                "actions": [action.to_dict() for action in actions],
                "catalog_version": self.partix.distribution_catalog.version,
                "query_log": self.query_log.stats_payload(),
            }
        except Exception as exc:  # noqa: BLE001 - becomes an ERROR frame
            await self._send_error(writer, write_lock, frame.request_id, exc)
            return
        await self._send(
            writer,
            write_lock,
            Frame(type=FrameType.OK, request_id=frame.request_id, payload=reply),
        )

    async def _serve_rebalance(self, frame, writer, write_lock) -> None:
        try:
            if self._draining:
                raise CoordinatorError("coordinator is draining; reconnect")
            loop = asyncio.get_running_loop()
            reply = await loop.run_in_executor(
                self._pool, partial(self._apply_rebalance, frame.payload)
            )
        except Exception as exc:  # noqa: BLE001 - becomes an ERROR frame
            await self._send_error(writer, write_lock, frame.request_id, exc)
            return
        await self._send(
            writer,
            write_lock,
            Frame(type=FrameType.OK, request_id=frame.request_id, payload=reply),
        )

    def _apply_rebalance(self, payload: dict) -> dict:
        """Runs on the pool: pick (or decode) an action, migrate, report."""
        if payload.get("action"):
            action = RebalanceAction.from_dict(payload["action"])
        else:
            actions = self._advisor().advise(
                collection=payload.get("collection"), top=1
            )
            if not actions:
                raise RebalanceError(
                    "the advisor found no rebalance action to apply (is the"
                    " query log empty?)"
                )
            action = actions[0]
        report = self.rebalancer.apply(action)
        return {
            "action": action.to_dict(),
            "report": report.to_dict(),
            "catalog_version": self.partix.distribution_catalog.version,
        }

    async def _send_error(self, writer, write_lock, rid, exc) -> None:
        await self._send(
            writer,
            write_lock,
            Frame(
                type=FrameType.ERROR,
                request_id=rid,
                payload=exception_to_payload(exc),
            ),
        )

    async def _execute(
        self,
        payload: dict,
        query: str,
        deadline: Optional[float],
        arrived: float,
    ) -> PartixResult:
        """Admission gate + deadline accounting around Partix.execute."""
        if not self.admission.try_start():
            loop = asyncio.get_running_loop()
            waiter = loop.create_future()
            self.admission.enqueue(waiter)  # may raise AdmissionRejected
            remaining = None
            if deadline is not None:
                remaining = deadline - (time.perf_counter() - arrived)
            try:
                await asyncio.wait_for(waiter, timeout=remaining)
            except asyncio.TimeoutError:
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
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(
                    self._pool,
                    partial(
                        self.partix.execute,
                        query,
                        collection=payload.get("collection"),
                        execution_mode=self.execution_mode,
                        deadline_seconds=budget,
                    ),
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
