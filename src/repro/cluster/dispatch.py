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
thread, and a round with nothing to overlap (one lane, ``max_workers=1``,
a non-``concurrent`` transport) never leaves the caller's thread.

Failure handling is explicit because real dispatch can fail in ways the
sequential loop never did:

* every sub-query gets ``retries`` extra attempts with exponential
  backoff (transient driver errors). When the sub-query carries replica
  targets (``SubQuery.replicas``), a retry *rotates* to the next healthy
  replica instead of hammering the site that just failed — only a
  sub-query whose every replica is exhausted falls through to the
  failure policy;
* a shared :class:`~repro.cluster.health.SiteHealth` tracker remembers
  attempt outcomes across sub-queries and rounds: a site failing
  ``ejection_threshold`` times in a row is ejected, and retry rotation
  (plus plan lowering, which consults the same tracker) stops targeting
  it until a timed PING probe readmits it;
* a per-sub-query ``subquery_timeout`` bounds how long one sub-query may
  take. In-process engine threads cannot be preempted, so the timeout is
  enforced *after the fact*: an over-budget attempt is discarded and
  counted as a failure (a driver for a remote DBMS would enforce the same
  budget on the wire);
* an exhausted sub-query is handled per ``failure_policy`` —
  ``"fail_fast"`` cancels the remaining work and raises
  :class:`~repro.errors.DispatchError`, ``"degrade"`` drops the fragment
  from the answer and records a note so the caller can surface the
  partial-result caveat.

The dispatcher is transport-agnostic: it drives a :class:`Transport`,
which decides where a sub-query physically runs. The built-in
:class:`InProcessTransport` calls a :class:`Cluster`'s engines directly;
:class:`repro.net.client.TcpTransport` sends the same sub-queries to
site-server processes over sockets. The fan-out / retry / fail-fast /
degrade logic is identical either way — only the lane's ``execute``
changes, and whatever it does, a lane's answer is the text on the
:class:`SubQueryExecution` it returns: the dispatcher sees no chunks, and
a retried attempt starts from nothing because a failed one returned
nothing.
"""

from __future__ import annotations

import abc
import collections
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union, TYPE_CHECKING

from repro.cluster.health import SiteHealth
from repro.cluster.site import Cluster, ParallelRound, SubQueryExecution
from repro.engine.stats import ExecOptions
from repro.errors import ClusterError, DispatchError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plan.spec import SubQuery

FAIL_FAST = "fail_fast"
DEGRADE = "degrade"

#: Sentinel distinguishing "argument omitted" from an explicit ``None``
#: (which means "no budget") for per-dispatch timeout overrides.
_UNSET = object()

#: Ceiling of a dispatcher's lane pool, not its size: the executor starts
#: a thread only when none is idle, so the pool grows to the peak number
#: of lanes ever running at once — across concurrent rounds — and a lane
#: never queues behind another round's stalled lane.
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
    """Everything a round of concurrent dispatch produced.

    ``executions_by_index`` aligns with the dispatched sub-query list —
    ``None`` marks a sub-query that failed (degrade policy) or was
    cancelled — so the caller can re-pair results with their plan entries
    in deterministic plan order. ``round`` holds the surviving executions
    (already in plan order) plus the measured wall-clock.
    """

    round: ParallelRound
    executions_by_index: list[Optional[SubQueryExecution]]
    failures: list[SubQueryFailure] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    cancelled: int = 0

    @property
    def complete(self) -> bool:
        return not self.failures and not self.cancelled


class ParallelDispatcher:
    """Executes one round of sub-queries concurrently across sites.

    The dispatcher owns its lane threads: they start on demand, idle
    between rounds and end with :meth:`close` (or when the dispatcher is
    garbage-collected — the pool's threads only hold a weak reference).

    Parameters
    ----------
    max_workers:
        Upper bound on one round's concurrent site lanes. Defaults to one
        worker per distinct site in the round (full fan-out).
    subquery_timeout:
        Per-sub-query budget in seconds (see module docstring for the
        after-the-fact enforcement caveat). ``None`` disables it.
    retries:
        Extra attempts per sub-query after the first failure/timeout.
    backoff_seconds / backoff_multiplier:
        Exponential backoff between attempts: the wait before retry *n*
        (0-based) is ``backoff_seconds * backoff_multiplier ** n``.
    backoff_jitter / jitter_seed:
        ``backoff_jitter`` spreads each wait by a uniform factor in
        ``[1 - j, 1 + j]`` so retries against a struggling site do not
        synchronize. The spread is *deterministic*: it is seeded from
        ``jitter_seed`` plus the sub-query's site/fragment/attempt, so a
        rerun of the same round waits the same amounts (the property the
        differential fuzz harness depends on). Defaults to 0 (off).
    failure_policy:
        ``"fail_fast"`` (default) — cancel outstanding work and raise
        :class:`DispatchError` once any sub-query exhausts its attempts;
        ``"degrade"`` — keep going, drop the failed fragment from the
        answer, and record an explanatory note. Either policy only
        triggers once every replica target of the sub-query is exhausted.
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
        max_workers: Optional[int] = None,
        subquery_timeout: Optional[float] = None,
        retries: int = 1,
        backoff_seconds: float = 0.02,
        backoff_multiplier: float = 2.0,
        backoff_jitter: float = 0.0,
        jitter_seed: int = 0,
        failure_policy: str = FAIL_FAST,
        site_health: Optional[SiteHealth] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if failure_policy not in (FAIL_FAST, DEGRADE):
            raise ValueError(
                f"failure_policy must be {FAIL_FAST!r} or {DEGRADE!r},"
                f" got {failure_policy!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if not 0.0 <= backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")
        self.max_workers = max_workers
        self.subquery_timeout = subquery_timeout
        self.retries = retries
        self.backoff_seconds = backoff_seconds
        self.backoff_multiplier = backoff_multiplier
        self.backoff_jitter = backoff_jitter
        self.jitter_seed = jitter_seed
        self.failure_policy = failure_policy
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
        """Wait for running lanes and end the lane threads (idempotent;
        the next :meth:`dispatch` that needs one starts a fresh pool)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _backoff_wait(
        self,
        subquery: "SubQuery",
        attempt: int,
        target_site: Optional[str] = None,
    ) -> float:
        """Wait before retry ``attempt`` (0-based), jitter applied.

        The jitter key includes the retry's *target* site (which can
        differ from ``subquery.site`` once rotation retargets a replica)
        so two replicas of one fragment never share a jitter schedule.
        """
        wait = self.backoff_seconds * self.backoff_multiplier ** attempt
        if self.backoff_jitter:
            site = target_site if target_site is not None else subquery.site
            key = (
                f"{self.jitter_seed}:{site}:{subquery.fragment}:"
                f"{attempt}"
            )
            spread = self.backoff_jitter * (
                2.0 * random.Random(key).random() - 1.0
            )
            wait = max(0.0, wait * (1.0 + spread))
        return wait

    # ------------------------------------------------------------------
    def dispatch(
        self,
        cluster: Union[Cluster, Transport],
        subqueries: Sequence["SubQuery"],
        default_collection: Optional[str] = None,
        subquery_timeout: Optional[float] = _UNSET,
    ) -> DispatchOutcome:
        """Run ``subqueries`` concurrently; one worker lane per site.

        ``cluster`` may be a :class:`Cluster` (wrapped in an
        :class:`InProcessTransport`) or any :class:`Transport` — socket
        lanes to real site servers run through the exact same code path.

        ``subquery_timeout`` overrides the dispatcher's configured budget
        for this round only — the coordinator threads each query's
        remaining deadline through here. Omitting it keeps the configured
        value; an explicit ``None`` disables the budget for the round.
        """
        if subquery_timeout is _UNSET:
            subquery_timeout = self.subquery_timeout
        transport = (
            cluster
            if isinstance(cluster, Transport)
            else InProcessTransport(cluster)
        )
        lanes: dict[str, list[tuple[int, "SubQuery"]]] = {}
        for index, subquery in enumerate(subqueries):
            lanes.setdefault(subquery.site, []).append((index, subquery))
        # Resolve sites up front: an unknown site is a plan error, not a
        # runtime sub-query failure, and raises regardless of policy.
        transport.resolve(list(lanes))

        results: list[Optional[SubQueryExecution]] = [None] * len(subqueries)
        failures: list[SubQueryFailure] = []
        failures_lock = threading.Lock()
        cancel = threading.Event()
        skipped = [0]

        wall_started = self._clock()
        # Every worker of the round — the caller first among them — takes
        # the next unstarted lane until none is left, so at most
        # ``workers`` lanes run at once and short lanes are not kept
        # waiting for a pool thread to wake up.
        pending = collections.deque(lanes.values())

        def run_lanes() -> None:
            while True:
                try:
                    lane = pending.popleft()
                except IndexError:
                    return
                self._run_lane(
                    transport,
                    lane,
                    default_collection,
                    results,
                    failures,
                    failures_lock,
                    cancel,
                    skipped,
                    subquery_timeout,
                )

        workers = len(lanes) if transport.concurrent else 1
        if self.max_workers is not None:
            workers = min(workers, self.max_workers)
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

        if failures and self.failure_policy == FAIL_FAST:
            raise DispatchError(
                "; ".join(failure.describe() for failure in failures),
                failures=failures,
            )
        notes = [f"degraded: {failure.describe()}" for failure in failures]
        for result in results:
            if result is not None and result.failover_count:
                notes.append(
                    f"failover: fragment {result.fragment!r} answered by"
                    f" {result.site!r} after {result.failover_count}"
                    f" failover(s) (tried {', '.join(result.attempt_sites)})"
                )
        if skipped[0]:
            notes.append(
                f"cancelled: {skipped[0]} sub-quer"
                f"{'y' if skipped[0] == 1 else 'ies'} never dispatched"
            )
        round_ = ParallelRound(
            executions=[result for result in results if result is not None],
            measured_wall_seconds=wall_seconds,
        )
        return DispatchOutcome(
            round=round_,
            executions_by_index=results,
            failures=failures,
            notes=notes,
            cancelled=skipped[0],
        )

    # ------------------------------------------------------------------
    def _run_lane(
        self,
        transport: Transport,
        lane: list[tuple[int, "SubQuery"]],
        default_collection: Optional[str],
        results: list[Optional[SubQueryExecution]],
        failures: list[SubQueryFailure],
        failures_lock: threading.Lock,
        cancel: threading.Event,
        skipped: list[int],
        subquery_timeout: Optional[float] = None,
    ) -> None:
        """One site's sub-queries, in plan order, with retry + timeout."""
        for position, (index, subquery) in enumerate(lane):
            if cancel.is_set():
                with failures_lock:
                    skipped[0] += len(lane) - position
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
                with failures_lock:
                    failures.append(failure)
                    if self.failure_policy == FAIL_FAST:
                        skipped[0] += len(lane) - position - 1
                if self.failure_policy == FAIL_FAST:
                    cancel.set()
                    return

    def _next_target(
        self, transport: Transport, targets, cursor: int
    ) -> int:
        """Index of the next attempt's target after a failure at
        ``targets[cursor]``.

        Rotation prefers the next *healthy* replica (cyclically, the
        just-failed target considered last); an ejected site is only
        eligible if its readmission probe — the transport's PING — is
        due and succeeds. When every replica is ejected the rotation
        still advances: a possibly-dead replica beats giving up while
        the retry budget lasts.
        """
        if len(targets) == 1:
            return cursor
        for step in range(1, len(targets) + 1):
            candidate = (cursor + step) % len(targets)
            site = targets[candidate].site
            if self.site_health.check(
                site, prober=lambda probed=site: transport.ping(probed)
            ):
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
        subquery_timeout: Optional[float] = None,
    ) -> Optional[SubQueryFailure]:
        """One sub-query with its retry/backoff/timeout/failover envelope.

        ``subquery_timeout`` bounds the sub-query's *total* budget:
        every attempt's duration plus the backoff waits between them all
        draw down one shared deadline — each attempt is handed only the
        *remaining* budget, and a retry whose backoff would cross the
        deadline is not taken, so total wall time can never reach the
        old ~(retries+1)× overshoot. On failure the retry rotates to
        the fragment's next healthy replica (see :meth:`_next_target`);
        the failure policy only sees sub-queries whose whole replica
        set was exhausted. Only an accepted attempt's execution — and so
        only its answer text — reaches ``results``: what a failed
        attempt received dies with it.
        """
        failure: Optional[SubQueryFailure] = None
        targets = subquery.targets()
        cursor = 0
        failover_count = 0
        attempt_sites: list[str] = []
        budget = subquery_timeout
        deadline = self._clock() + budget if budget is not None else None
        for attempt in range(self.retries + 1):
            if cancel.is_set():
                return failure
            target = targets[cursor]
            attempt_sites.append(target.site)
            attempt_timeout = budget
            if deadline is not None:
                attempt_timeout = deadline - self._clock()
                if attempt_timeout <= 0:
                    return SubQueryFailure(
                        site=target.site,
                        fragment=subquery.fragment,
                        query=target.query,
                        attempts=attempt + 1,
                        error=TimeoutError(
                            f"retry budget exhausted after {attempt + 1}"
                            f" attempt(s): the"
                            f" {budget:.3f}s deadline"
                            f" passed before the attempt could start;"
                            f" last error: {failure.error if failure else None}"
                        ),
                        timed_out=True,
                        attempt_sites=list(attempt_sites),
                    )
            attempt_subquery = subquery.retarget(target)
            started = self._clock()
            try:
                execution = transport.execute(
                    attempt_subquery,
                    default_collection=default_collection,
                    timeout=attempt_timeout,
                )
            except Exception as exc:
                self.site_health.record_failure(target.site)
                failure = SubQueryFailure(
                    site=target.site,
                    fragment=subquery.fragment,
                    query=attempt_subquery.query,
                    attempts=attempt + 1,
                    error=exc,
                    timed_out=isinstance(exc, TimeoutError),
                    attempt_sites=list(attempt_sites),
                )
            else:
                now = self._clock()
                if deadline is not None and now > deadline:
                    self.site_health.record_failure(target.site)
                    failure = SubQueryFailure(
                        site=target.site,
                        fragment=subquery.fragment,
                        query=attempt_subquery.query,
                        attempts=attempt + 1,
                        error=TimeoutError(
                            f"exceeded {budget:.3f}s budget"
                            f" (took {now - started:.3f}s)"
                        ),
                        timed_out=True,
                        attempt_sites=list(attempt_sites),
                    )
                else:
                    self.site_health.record_success(target.site)
                    execution.failover_count = failover_count
                    execution.attempt_sites = list(attempt_sites)
                    # Each slot is written by exactly one lane thread.
                    results[index] = execution
                    return None
            if attempt < self.retries:
                next_cursor = self._next_target(transport, targets, cursor)
                wait = self._backoff_wait(
                    subquery, attempt, targets[next_cursor].site
                )
                if deadline is not None:
                    remaining = deadline - self._clock()
                    if remaining <= 0 or wait >= remaining:
                        return SubQueryFailure(
                            site=target.site,
                            fragment=subquery.fragment,
                            query=attempt_subquery.query,
                            attempts=attempt + 1,
                            error=TimeoutError(
                                f"retry budget exhausted after {attempt + 1}"
                                f" attempt(s): next backoff ({wait:.3f}s)"
                                f" would overshoot the"
                                f" {budget:.3f}s deadline;"
                                f" last error: {failure.error}"
                            ),
                            timed_out=True,
                            attempt_sites=list(attempt_sites),
                        )
                self._sleep(wait)
                if next_cursor != cursor:
                    failover_count += 1
                    cursor = next_cursor
        return failure
