"""Concurrent sub-query dispatch (the real counterpart of §5's simulation).

The paper *simulated* inter-site parallelism: sub-queries ran one after
another and the reported parallel time was the slowest site's busy time.
:class:`ParallelDispatcher` executes a round for real — one worker lane
per site, so sub-queries targeting different sites overlap while
sub-queries sharing a site serialize, exactly the schedule the simulated
accounting assumes. The measured wall-clock of the round lands in
``ParallelRound.measured_wall_seconds``, letting benchmarks print
simulated and real parallel time side by side.

Lanes run on the calling thread plus one long-lived pool the dispatcher
owns: the caller works through lanes itself and hands only the others to
pool threads that outlive the round, so a repeated query starts no
thread, and a round with nothing to overlap (one lane, a
non-``concurrent`` transport) never leaves the caller's thread.

Failure handling follows one rule — every fragment answers or the query
raises — because an answer is the reconstruction of *every* fragment:

* a sub-query gets one attempt per replica target, and at least two (a
  fragment stored once is retried at its site once), with a backoff of
  ``BACKOFF_SECONDS`` doubling per retry. A retry *rotates* to the next
  healthy replica (``SubQuery.replicas``) instead of hammering the site
  that just failed;
* a shared :class:`~repro.cluster.health.SiteHealth` tracker remembers
  attempt outcomes across sub-queries and rounds: a site failing
  ``EJECTION_THRESHOLD`` times in a row is ejected, and retry rotation
  (plus plan lowering, which consults the same tracker) stops targeting
  it until a PING probe readmits it. The probe runs on the lane pool;
  the lane waits at most ``PROBE_WAIT_SECONDS`` for its verdict;
* a per-dispatch ``subquery_timeout`` (the query's deadline) bounds how
  long one sub-query may take. In-process engine threads cannot be
  preempted, so the budget is enforced *after the fact*: an over-budget
  attempt is discarded and counted as a failure (a socket transport
  enforces the same budget on the wire);
* a sub-query that exhausted its attempts fails the round: lanes not yet
  started are cancelled and, once every running lane has ended,
  :class:`~repro.errors.DispatchError` is raised listing each exhausted
  sub-query. A returned :class:`DispatchOutcome` is always whole.

The dispatcher is transport-agnostic: it drives a :class:`Transport`,
which decides where a sub-query physically runs. The built-in
:class:`InProcessTransport` calls a :class:`Cluster`'s engines directly;
:class:`repro.net.client.TcpTransport` sends the same sub-queries to
site-server processes over sockets. The fan-out / retry / failover logic
is identical either way — only the lane's ``execute`` changes, and
whatever it does, a lane's answer is the text on the
:class:`SubQueryExecution` it returns: the dispatcher sees no chunks, and
a retried attempt starts from nothing because a failed one returned
nothing.
"""

from __future__ import annotations

import abc
import collections
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union, TYPE_CHECKING

from repro.cluster.health import SiteHealth
from repro.cluster.site import Cluster, ParallelRound, SubQueryExecution
from repro.engine.stats import ExecOptions
from repro.errors import ClusterError, DispatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.spec import SubQuery

#: The wait before retry *n* (0-based) is ``BACKOFF_SECONDS * 2 ** n``.
BACKOFF_SECONDS = 0.02

#: How long a lane waits for a readmission probe's verdict before it
#: treats the site as still ejected. The probe keeps running on the lane
#: pool, so a late success readmits the site for later rounds.
PROBE_WAIT_SECONDS = 0.25

#: Ceiling of a dispatcher's lane pool, not its size: the executor starts
#: a thread only when none is idle, so the pool grows to the peak number
#: of lanes (and probes) ever running at once — across concurrent rounds
#: — and a lane never queues behind another round's stalled lane.
_LANE_POOL_CEILING = 1024


class Transport(abc.ABC):
    """Where sub-queries physically run.

    ``resolve`` validates that every site a round targets exists (an
    unknown site is a plan error and must raise
    :class:`~repro.errors.ClusterError` before any work starts).
    ``execute`` runs one sub-query and returns its
    :class:`SubQueryExecution`, including the bytes that crossed (or, in
    process, *would have* crossed) the transport.
    """

    #: False when executions are mutually exclusive anyway (see
    #: :class:`SerialTransport`): threads would gain nothing, so the
    #: dispatcher runs every lane on the calling thread, in plan order.
    concurrent = True

    @abc.abstractmethod
    def resolve(self, site_names: Sequence[str]) -> None:
        """Raise ClusterError if any of ``site_names`` is unknown."""

    @abc.abstractmethod
    def execute(
        self,
        subquery: "SubQuery",
        default_collection: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> SubQueryExecution:
        """Run one sub-query at its site and return its execution, whose
        ``result.result_text`` is the lane's whole answer — how the
        bytes travelled is the transport's business. ``timeout`` is the
        per-sub-query budget; transports that can enforce it on the wire
        (sockets) should, in-process transports may ignore it (the
        dispatcher then checks the budget after the fact)."""

    def ping(self, site: str) -> bool:
        """Best-effort liveness probe of ``site``, used to readmit
        ejected sites. Transports with no real health check (the base
        implementation) report True and let execution outcomes decide."""
        return True


class InProcessTransport(Transport):
    """Direct engine calls against a :class:`Cluster` (no sockets).

    The recorded byte counts are the payload sizes that *would* travel —
    query text out, serialized result back — flagged ``on_wire=False``
    so reports can distinguish modeled from measured transfers.
    """

    def __init__(
        self,
        cluster: Cluster,
        chunk_bytes=None,  # unused: benchmarks/e2e/tracing.py passes it
    ):
        self.cluster = cluster

    def resolve(self, site_names: Sequence[str]) -> None:
        for name in site_names:
            self.cluster.site(name)

    def ping(self, site: str) -> bool:
        try:
            self.cluster.site(site)
        except ClusterError:
            return False
        return True

    def execute(
        self,
        subquery: "SubQuery",
        default_collection: Optional[str] = None,
        timeout: Optional[float] = None,
        on_chunk=None,  # unused: benchmarks/e2e/tracing.py passes it
    ) -> SubQueryExecution:
        site = self.cluster.site(subquery.site)
        result = site.execute(
            subquery.query, ExecOptions(default_collection=default_collection)
        )
        return SubQueryExecution(
            site=subquery.site,
            fragment=subquery.fragment,
            query=subquery.query,
            result=result,
            bytes_sent=len(subquery.query.encode("utf-8")),
            bytes_received=result.result_bytes,
            on_wire=False,
        )


class SerialTransport(Transport):
    """Serializes every lane of another transport behind one lock.

    This is the paper's sequential "simulated" round expressed as a
    Transport: executions are mutually exclusive, so sub-queries run one
    at a time — execution modes stay nothing more than Transport
    choices. Handed to the dispatcher directly it also says so
    (``concurrent = False``) and the lanes never leave the caller's
    thread; wrapped in another transport the lock alone serializes the
    fanned-out lanes.
    """

    concurrent = False

    def __init__(self, inner: Transport):
        self.inner = inner
        self._lock = threading.Lock()

    def resolve(self, site_names: Sequence[str]) -> None:
        self.inner.resolve(site_names)

    def ping(self, site: str) -> bool:
        return self.inner.ping(site)

    def execute(
        self,
        subquery: "SubQuery",
        default_collection: Optional[str] = None,
        timeout: Optional[float] = None,
        on_chunk=None,  # unused: benchmarks/e2e/tracing.py passes it
    ) -> SubQueryExecution:
        with self._lock:
            return self.inner.execute(
                subquery,
                default_collection=default_collection,
                timeout=timeout,
            )


@dataclass
class SubQueryFailure:
    """One sub-query that exhausted all its attempts."""

    site: str
    fragment: str
    query: str
    attempts: int
    error: Exception
    timed_out: bool = False
    #: Site targeted by each attempt, in order (shows failover rotation).
    attempt_sites: list = field(default_factory=list)

    def describe(self) -> str:
        kind = "timed out" if self.timed_out else "failed"
        rotation = ""
        if len(set(self.attempt_sites)) > 1:
            rotation = f" (tried sites {', '.join(self.attempt_sites)})"
        return (
            f"sub-query for fragment {self.fragment!r} at site {self.site!r}"
            f" {kind} after {self.attempts} attempt(s){rotation}: {self.error}"
        )


@dataclass
class DispatchOutcome:
    """Everything a round of concurrent dispatch produced: ``round``
    holds one execution per dispatched sub-query, in plan order
    (``round.executions[i]`` answered ``subqueries[i]``), plus the
    measured wall-clock; ``notes`` report the failovers."""

    round: ParallelRound
    notes: list[str] = field(default_factory=list)


class ParallelDispatcher:
    """Executes one round of sub-queries concurrently across sites.

    The dispatcher owns its lane threads: they start on demand, idle
    between rounds and end with :meth:`close` (or when the dispatcher is
    garbage-collected — the pool's threads only hold a weak reference).

    Parameters
    ----------
    site_health:
        The shared :class:`~repro.cluster.health.SiteHealth` tracker
        retry rotation consults and reports into. Pass the instance the
        plan lowerer uses so ejections steer both retries *and* new
        plans; defaults to a private tracker.
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    clock:
        Injection point for the monotonic clock driving wall timing and
        the shared retry deadline (defaults to ``time.perf_counter``;
        tests pass a fake clock advanced by their ``sleep`` stub so
        timing assertions never depend on real sleeps).
    """

    def __init__(
        self,
        site_health: Optional[SiteHealth] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.perf_counter,
    ):
        self.site_health = site_health if site_health is not None else SiteHealth()
        self._sleep = sleep
        self._clock = clock
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _hand_off(self, work: Callable[[], None]) -> Future:
        """Start ``work`` on a pool thread. The pool is created on first
        use (and again after :meth:`close`); submitting under the lock
        means a concurrent ``close()`` can never shut down the pool
        between the lookup and the submit."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=_LANE_POOL_CEILING,
                    thread_name_prefix="partix-dispatch",
                )
            return self._pool.submit(work)

    def close(self) -> None:
        """Wait for running lanes and probes and end the pool threads
        (idempotent; the next :meth:`dispatch` that needs one starts a
        fresh pool)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    def dispatch(
        self,
        cluster: Union[Cluster, Transport],
        subqueries: Sequence["SubQuery"],
        default_collection: Optional[str] = None,
        subquery_timeout: Optional[float] = None,
    ) -> DispatchOutcome:
        """Run ``subqueries`` concurrently; one worker lane per site.

        ``cluster`` may be a :class:`Cluster` (wrapped in an
        :class:`InProcessTransport`) or any :class:`Transport` — socket
        lanes to real site servers run through the exact same code path.

        ``subquery_timeout`` is each sub-query's budget for this round
        (``None``: no budget) — the coordinator threads each query's
        remaining deadline through here. Raises
        :class:`~repro.errors.DispatchError` when any sub-query exhausts
        its attempts.
        """
        transport = (
            cluster
            if isinstance(cluster, Transport)
            else InProcessTransport(cluster)
        )
        lanes: dict[str, list[tuple[int, "SubQuery"]]] = {}
        for index, subquery in enumerate(subqueries):
            lanes.setdefault(subquery.site, []).append((index, subquery))
        # Resolve sites up front: an unknown site is a plan error, not a
        # runtime sub-query failure.
        transport.resolve(list(lanes))

        results: list[Optional[SubQueryExecution]] = [None] * len(subqueries)
        failures: list[SubQueryFailure] = []
        cancel = threading.Event()

        wall_started = self._clock()
        # Every worker of the round — the caller first among them — takes
        # the next unstarted lane until none is left, so short lanes are
        # not kept waiting for a pool thread to wake up. A lane runs its
        # site's sub-queries in plan order; the first exhausted one
        # cancels every sub-query not yet started.
        pending = collections.deque(lanes.values())

        def run_lanes() -> None:
            while not cancel.is_set():
                try:
                    lane = pending.popleft()
                except IndexError:
                    return
                for index, subquery in lane:
                    if cancel.is_set():
                        return
                    failure = self._run_subquery(
                        transport,
                        index,
                        subquery,
                        default_collection,
                        results,
                        cancel,
                        subquery_timeout,
                    )
                    if failure is not None:
                        failures.append(failure)  # list.append is atomic
                        cancel.set()
                        return

        workers = len(lanes) if transport.concurrent else 1
        helpers: list[Future] = []
        try:
            for _ in range(workers - 1):
                helpers.append(self._hand_off(run_lanes))
            run_lanes()
        finally:
            # The round ends — by return or by raise — only once every
            # lane has: nothing may touch ``results`` after dispatch()
            # is over. A helper that never got to start
            # (the caller finished the short lanes first) is withdrawn;
            # exception() blocks until a started one is done.
            errors = [
                helper.exception() for helper in helpers if not helper.cancel()
            ]
        for error in errors:
            if error is not None:
                raise error
        wall_seconds = self._clock() - wall_started

        if failures:
            raise DispatchError(
                "; ".join(failure.describe() for failure in failures),
                failures=failures,
            )
        notes = [
            f"failover: fragment {result.fragment!r} answered by"
            f" {result.site!r} after {result.failover_count}"
            f" failover(s) (tried {', '.join(result.attempt_sites)})"
            for result in results
            if result.failover_count
        ]
        return DispatchOutcome(
            round=ParallelRound(
                executions=results, measured_wall_seconds=wall_seconds
            ),
            notes=notes,
        )

    # ------------------------------------------------------------------
    def _usable(self, transport: Transport, site: str) -> bool:
        """Is ``site`` usable as a sub-query target right now?

        A healthy site is. An ejected one is only if its readmission
        probe is due and the transport's PING answers within
        ``PROBE_WAIT_SECONDS``. The probe runs on the lane pool, so a
        PING that hangs (a dead TCP site's connect timeout) costs the
        lane only the wait, and its late success still readmits the site.
        """
        health = self.site_health
        if not health.is_ejected(site):
            return True
        if not health.begin_probe(site):
            return False

        def probe() -> None:
            try:
                alive = bool(transport.ping(site))
            except Exception:
                alive = False
            health.end_probe(site, alive)

        wait([self._hand_off(probe)], timeout=PROBE_WAIT_SECONDS)
        return not health.is_ejected(site)

    def _next_target(
        self, transport: Transport, targets, cursor: int
    ) -> int:
        """Index of the next attempt's target after a failure at
        ``targets[cursor]``.

        Rotation prefers the next *usable* replica (cyclically, the
        just-failed target considered last). When every replica is
        ejected the rotation still advances: a possibly-dead replica
        beats giving up while attempts are left.
        """
        if len(targets) == 1:
            return cursor
        for step in range(1, len(targets) + 1):
            candidate = (cursor + step) % len(targets)
            if self._usable(transport, targets[candidate].site):
                return candidate
        return (cursor + 1) % len(targets)

    def _run_subquery(
        self,
        transport: Transport,
        index: int,
        subquery: "SubQuery",
        default_collection: Optional[str],
        results: list[Optional[SubQueryExecution]],
        cancel: threading.Event,
        budget: Optional[float],
    ) -> Optional[SubQueryFailure]:
        """One sub-query with its retry/backoff/timeout/failover envelope.

        It gets one attempt per replica target, and at least two. The
        ``budget`` bounds the sub-query's *total* time: every attempt's
        duration plus the backoff waits between them all draw down one
        shared deadline — each attempt is handed only the *remaining*
        budget, and a retry whose backoff would cross the deadline is
        not taken. On failure the retry rotates to the fragment's next
        usable replica (see :meth:`_next_target`). Only an accepted
        attempt's execution — and so only its answer text — reaches
        ``results``: what a failed attempt received dies with it.
        """
        failure: Optional[SubQueryFailure] = None
        targets = subquery.targets()
        attempts = max(2, len(targets))
        cursor = 0
        failover_count = 0
        attempt_sites: list[str] = []
        deadline = self._clock() + budget if budget is not None else None

        def failed(attempt_subquery: "SubQuery", error: Exception):
            return SubQueryFailure(
                site=attempt_subquery.site,
                fragment=subquery.fragment,
                query=attempt_subquery.query,
                attempts=len(attempt_sites),
                error=error,
                timed_out=isinstance(error, TimeoutError),
                attempt_sites=list(attempt_sites),
            )

        for attempt in range(attempts):
            if cancel.is_set():
                return failure
            attempt_subquery = subquery.retarget(targets[cursor])
            attempt_sites.append(attempt_subquery.site)
            attempt_timeout = None
            if deadline is not None:
                attempt_timeout = deadline - self._clock()
                if attempt_timeout <= 0:
                    return failed(
                        attempt_subquery,
                        TimeoutError(
                            f"retry budget exhausted after {attempt + 1}"
                            f" attempt(s): the {budget:.3f}s deadline"
                            f" passed before the attempt could start;"
                            f" last error: {failure.error if failure else None}"
                        ),
                    )
            started = self._clock()
            try:
                execution = transport.execute(
                    attempt_subquery,
                    default_collection=default_collection,
                    timeout=attempt_timeout,
                )
            except Exception as exc:
                self.site_health.record_failure(attempt_subquery.site)
                failure = failed(attempt_subquery, exc)
            else:
                now = self._clock()
                if deadline is not None and now > deadline:
                    self.site_health.record_failure(attempt_subquery.site)
                    failure = failed(
                        attempt_subquery,
                        TimeoutError(
                            f"exceeded {budget:.3f}s budget"
                            f" (took {now - started:.3f}s)"
                        ),
                    )
                else:
                    self.site_health.record_success(attempt_subquery.site)
                    execution.failover_count = failover_count
                    execution.attempt_sites = list(attempt_sites)
                    # Each slot is written by exactly one lane thread.
                    results[index] = execution
                    return None
            if attempt + 1 < attempts:
                next_cursor = self._next_target(transport, targets, cursor)
                backoff = BACKOFF_SECONDS * 2 ** attempt
                if deadline is not None and backoff >= deadline - self._clock():
                    return failed(
                        attempt_subquery,
                        TimeoutError(
                            f"retry budget exhausted after {attempt + 1}"
                            f" attempt(s): next backoff ({backoff:.3f}s)"
                            f" would overshoot the {budget:.3f}s deadline;"
                            f" last error: {failure.error}"
                        ),
                    )
                self._sleep(backoff)
                if next_cursor != cursor:
                    failover_count += 1
                    cursor = next_cursor
        return failure
