"""Unit tests for the concurrent sub-query dispatcher."""

import threading
import time

import pytest

from repro.cluster import (
    Cluster,
    InProcessTransport,
    ParallelDispatcher,
    Site,
    SiteHealth,
    Transport,
)
from repro.cluster.dispatch import (
    BACKOFF_SECONDS,
    PROBE_WAIT_SECONDS,
    SerialTransport,
)
from repro.cluster.health import EJECTION_THRESHOLD, PROBE_INTERVAL_SECONDS
from repro.engine.stats import QueryResult
from repro.errors import DispatchError
from repro.partix.decomposer import SubQuery
from repro.partix.driver import PartixDriver
from repro.plan.spec import SubQueryTarget
from tests.fake_clock import FakeClock
from tests.lane_threads import lane_threads as _lane_threads


def _query_result(text: str = "ok") -> QueryResult:
    return QueryResult(
        items=[],
        result_text=text,
        result_bytes=len(text.encode()),
        elapsed_seconds=0.001,
        parse_seconds=0.0,
        documents_parsed=0,
        bytes_parsed=0,
        documents_scanned=0,
        documents_pruned=0,
    )


class StubDriver(PartixDriver):
    """Scriptable driver: optional sleep, optional failures, call log."""

    def __init__(
        self,
        delay=0.0,
        fail_times=0,
        error=RuntimeError("boom"),
        sleep=time.sleep,
    ):
        self.delay = delay
        self.fail_times = fail_times
        self.error = error
        self.sleep = sleep
        self.calls = []
        self.threads = []  # ident of the thread each call ran on
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()

    def create_collection(self, name):
        pass

    def store_document(self, collection, document, name=None, origin=None):
        pass

    def retain_documents(self, collection, keep):
        pass

    def document_count(self, collection):
        return 0

    def collection_bytes(self, collection):
        return 0

    def execute(self, query, options=None):
        with self._lock:
            self.calls.append(query)
            self.threads.append(threading.get_ident())
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            if self.delay:
                self.sleep(self.delay)
            with self._lock:
                remaining = self.fail_times
                if remaining > 0:
                    self.fail_times -= 1
            if remaining > 0:
                raise self.error
            return _query_result(f"result:{query}")
        finally:
            with self._lock:
                self.active -= 1


def _cluster(drivers):
    return Cluster(
        Site(f"site{i}", driver=driver) for i, driver in enumerate(drivers)
    )


def _subqueries(count, site_for=None):
    site_for = site_for or (lambda i: f"site{i}")
    return [
        SubQuery(
            fragment=f"F{i}", site=site_for(i), collection="C", query=f"q{i}"
        )
        for i in range(count)
    ]


def _replicated_subquery(sites, fragment="F0", query="q0"):
    return SubQuery(
        fragment=fragment,
        site=sites[0],
        collection="C",
        query=query,
        replicas=tuple(
            SubQueryTarget(site=site, collection="C", query=query)
            for site in sites[1:]
        ),
    )


def _ejected_health(site):
    """A tracker on a fake clock with ``site`` ejected and its
    readmission probe due."""
    now = [0.0]
    health = SiteHealth(clock=lambda: now[0])
    for _ in range(EJECTION_THRESHOLD):
        health.record_failure(site)
    now[0] = PROBE_INTERVAL_SECONDS
    return health


class _SlowPing(InProcessTransport):
    """In-process lanes whose PING blocks until ``release`` is set."""

    def __init__(self, cluster, release):
        super().__init__(cluster)
        self.release = release
        self.pings = []

    def ping(self, site):
        self.pings.append(site)
        self.release.wait(5.0)
        return super().ping(site)


class TestDispatchBasics:
    def test_all_subqueries_run_and_stay_in_plan_order(self):
        drivers = [StubDriver() for _ in range(3)]
        outcome = ParallelDispatcher().dispatch(
            _cluster(drivers), _subqueries(3)
        )
        assert [e.fragment for e in outcome.round.executions] == [
            "F0",
            "F1",
            "F2",
        ]
        assert [
            e.result.result_text for e in outcome.round.executions
        ] == ["result:q0", "result:q1", "result:q2"]
        assert outcome.round.measured_wall_seconds > 0.0

    def test_sites_actually_overlap(self):
        drivers = [StubDriver(delay=0.15) for _ in range(4)]
        started = time.perf_counter()
        outcome = ParallelDispatcher().dispatch(
            _cluster(drivers), _subqueries(4)
        )
        wall = time.perf_counter() - started
        assert len(outcome.round.executions) == 4
        # Four 150ms sub-queries: sequential would be >= 600ms.
        assert wall < 0.45
        assert outcome.round.measured_wall_seconds < 0.45

    def test_same_site_subqueries_serialize_in_one_lane(self):
        driver = StubDriver(delay=0.02)
        outcome = ParallelDispatcher().dispatch(
            _cluster([driver]), _subqueries(4, site_for=lambda i: "site0")
        )
        assert len(outcome.round.executions) == 4
        assert driver.max_active == 1
        assert driver.calls == ["q0", "q1", "q2", "q3"]

    def test_empty_round(self):
        outcome = ParallelDispatcher().dispatch(Cluster(), [])
        assert outcome.round.executions == []

    def test_hanging_prober_cannot_stall_a_lane_beyond_the_budget(self):
        """Regression: probes run on the lane pool with a per-lane wait
        budget. A PING that blocks (a dead TCP site's connect timeout)
        must not stall the calling lane for its full duration — and its
        late success must still readmit the site."""
        health = _ejected_health("site1")
        release = threading.Event()
        transport = _SlowPing(
            _cluster([StubDriver(fail_times=10), StubDriver()]), release
        )
        dispatcher = ParallelDispatcher(site_health=health, sleep=lambda s: None)
        try:
            started = time.monotonic()
            with pytest.raises(DispatchError) as info:
                dispatcher.dispatch(
                    transport, [_replicated_subquery(["site0", "site1"])]
                )
            waited = time.monotonic() - started
            # The verdict was not in within the budget: the ejected replica
            # was passed over and the lane did not wait out the hang.
            (failure,) = info.value.failures
            assert failure.attempt_sites == ["site0", "site0"]
            assert waited < PROBE_WAIT_SECONDS + 0.75
            assert health.is_ejected("site1")

            release.set()  # the probe finishes late, on the lane pool
            deadline = time.monotonic() + 2.0
            while health.is_ejected("site1") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not health.is_ejected("site1")  # late success readmitted it
        finally:
            release.set()
            dispatcher.close()

    def test_concurrent_lanes_share_one_probe_in_flight(self):
        """While a probe is in flight, other lanes find the site ejected
        at once instead of piling up duplicate pings."""
        health = _ejected_health("site0")
        release = threading.Event()
        transport = _SlowPing(_cluster([StubDriver()]), release)
        dispatcher = ParallelDispatcher(site_health=health)
        try:
            assert not dispatcher._usable(transport, "site0")
            started = time.monotonic()
            assert not dispatcher._usable(transport, "site0")
            assert time.monotonic() - started < PROBE_WAIT_SECONDS
            release.set()
            deadline = time.monotonic() + 2.0
            while health.is_ejected("site0") and time.monotonic() < deadline:
                time.sleep(0.01)
            assert transport.pings == ["site0"]
        finally:
            release.set()
            dispatcher.close()

    def test_invalid_configuration_rejected(self):
        # The dispatcher has no tuning knobs left: only the test seams
        # (site_health, sleep, clock) are accepted.
        for knob in ("failure_policy", "max_workers", "retries",
                     "subquery_timeout", "backoff_jitter"):
            with pytest.raises(TypeError):
                ParallelDispatcher(**{knob: 1})


class TestRetries:
    def test_transient_failure_retried_with_backoff(self):
        # One driver behind three replica sites: three attempts, and the
        # backoff doubles per retry.
        waits = []
        driver = StubDriver(fail_times=2)
        dispatcher = ParallelDispatcher(sleep=waits.append)
        outcome = dispatcher.dispatch(
            _cluster([driver] * 3),
            [_replicated_subquery(["site0", "site1", "site2"])],
        )
        assert outcome.round.executions[0].site == "site2"
        assert driver.calls == ["q0", "q0", "q0"]
        assert waits == [
            pytest.approx(BACKOFF_SECONDS),
            pytest.approx(2 * BACKOFF_SECONDS),
        ]

    def test_retries_exhausted_fails(self):
        drivers = [StubDriver(fail_times=3)]
        dispatcher = ParallelDispatcher(sleep=lambda s: None)
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(
                _cluster(drivers), _subqueries(1, site_for=lambda i: "site0")
            )
        (failure,) = info.value.failures
        assert failure.attempts == 2
        assert failure.fragment == "F0"
        assert "boom" in str(info.value)


class TestFailurePolicies:
    def test_fail_fast_cancels_rest_of_lane(self):
        driver = StubDriver(fail_times=2)
        dispatcher = ParallelDispatcher(sleep=lambda s: None)
        with pytest.raises(DispatchError):
            dispatcher.dispatch(
                _cluster([driver]),
                _subqueries(3, site_for=lambda i: "site0"),
            )
        # q0 failed twice; q1/q2 never dispatched.
        assert driver.calls == ["q0", "q0"]

    def test_degrade_drops_failed_fragment_and_notes_it(self):
        # There is no degrade: a fragment that exhausted its attempts
        # fails the round, even when every other fragment answered.
        failing = StubDriver(fail_times=5)
        healthy = StubDriver()
        dispatcher = ParallelDispatcher(sleep=lambda s: None)
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(_cluster([failing, healthy]), _subqueries(2))
        (failure,) = info.value.failures
        assert failure.fragment == "F0"
        assert failure.attempts == 2
        assert failure.attempt_sites == ["site0", "site0"]

    def test_unknown_site_raises_regardless_of_policy(self):
        from repro.errors import ClusterError

        with pytest.raises(ClusterError) as info:
            ParallelDispatcher().dispatch(Cluster(), _subqueries(1))
        assert not isinstance(info.value, DispatchError)  # a plan error


class TestBackoffJitter:
    def test_jitter_defaults_off(self):
        # The backoff has no jitter: every rerun waits the exact schedule.
        waits = []
        driver = StubDriver(fail_times=3)
        ParallelDispatcher(sleep=waits.append).dispatch(
            _cluster([driver] * 4),
            [_replicated_subquery(["site0", "site1", "site2", "site3"])],
        )
        assert waits == [BACKOFF_SECONDS * 2 ** n for n in range(3)]


class TestRetryDeadline:
    def test_backoff_never_overshoots_the_subquery_deadline(self):
        clock = FakeClock()
        waits = []
        drivers = [StubDriver(fail_times=10)]
        dispatcher = ParallelDispatcher(sleep=waits.append, clock=clock)
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(
                _cluster(drivers),
                _subqueries(1, site_for=lambda i: "site0"),
                # The first backoff alone exceeds the budget.
                subquery_timeout=BACKOFF_SECONDS / 2,
            )
        (failure,) = info.value.failures
        assert failure.timed_out
        assert failure.attempts == 1  # no retry was taken
        assert "retry budget exhausted" in str(failure.error)
        assert "boom" in str(failure.error)  # the last real error survives
        assert waits == []  # the overshooting sleep never happened

    def test_retries_within_budget_still_happen(self):
        waits = []
        driver = StubDriver(fail_times=2)
        dispatcher = ParallelDispatcher(sleep=waits.append)
        outcome = dispatcher.dispatch(
            _cluster([driver] * 3),
            [_replicated_subquery(["site0", "site1", "site2"])],
            subquery_timeout=10.0,
        )
        assert len(outcome.round.executions) == 1
        assert len(waits) == 2


class TestReplicaFailover:
    def test_retry_rotates_to_the_next_replica(self):
        drivers = [StubDriver(fail_times=10), StubDriver()]
        dispatcher = ParallelDispatcher(sleep=lambda s: None)
        outcome = dispatcher.dispatch(
            _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
        )
        (execution,) = outcome.round.executions
        assert execution.site == "site1"
        assert execution.failover_count == 1
        assert execution.attempt_sites == ["site0", "site1"]
        assert drivers[0].calls == ["q0"]  # dead primary tried exactly once
        assert drivers[1].calls == ["q0"]
        assert any("failover" in note for note in outcome.notes)

    def test_rotation_walks_replicas_in_declared_order(self):
        drivers = [
            StubDriver(fail_times=10),
            StubDriver(fail_times=10),
            StubDriver(),
        ]
        dispatcher = ParallelDispatcher(sleep=lambda s: None)
        outcome = dispatcher.dispatch(
            _cluster(drivers),
            [_replicated_subquery(["site0", "site1", "site2"])],
        )
        (execution,) = outcome.round.executions
        assert execution.attempt_sites == ["site0", "site1", "site2"]
        assert execution.failover_count == 2
        assert execution.site == "site2"

    def test_all_replicas_dead_fails_and_names_every_site_tried(self):
        drivers = [StubDriver(fail_times=10), StubDriver(fail_times=10)]
        dispatcher = ParallelDispatcher(sleep=lambda s: None)
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(
                _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
            )
        (failure,) = info.value.failures
        assert failure.attempts == 2
        assert failure.attempt_sites == ["site0", "site1"]
        assert "tried sites site0, site1" in failure.describe()

    def test_rotation_skips_an_ejected_replica(self):
        health = SiteHealth(clock=lambda: 0.0)
        for _ in range(EJECTION_THRESHOLD):
            health.record_failure("site1")
        assert health.is_ejected("site1")
        drivers = [StubDriver(fail_times=10), StubDriver(), StubDriver()]
        dispatcher = ParallelDispatcher(
            site_health=health, sleep=lambda s: None
        )
        outcome = dispatcher.dispatch(
            _cluster(drivers),
            [_replicated_subquery(["site0", "site1", "site2"])],
        )
        (execution,) = outcome.round.executions
        assert execution.site == "site2"
        assert execution.attempt_sites == ["site0", "site2"]
        assert drivers[1].calls == []  # the ejected replica was never hit

    def test_due_probe_readmits_an_ejected_replica(self):
        # Probe timer expired; InProcessTransport PING is up.
        health = _ejected_health("site1")
        drivers = [StubDriver(fail_times=10), StubDriver()]
        dispatcher = ParallelDispatcher(
            site_health=health, sleep=lambda s: None
        )
        try:
            outcome = dispatcher.dispatch(
                _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
            )
        finally:
            dispatcher.close()
        (execution,) = outcome.round.executions
        assert execution.site == "site1"
        assert not health.is_ejected("site1")

    def test_successful_primary_reports_no_failover(self):
        drivers = [StubDriver(), StubDriver()]
        outcome = ParallelDispatcher().dispatch(
            _cluster(drivers), [_replicated_subquery(["site0", "site1"])]
        )
        (execution,) = outcome.round.executions
        assert execution.failover_count == 0
        assert execution.attempt_sites == ["site0"]
        assert drivers[1].calls == []


class TestSiteHealthTracker:
    def test_ejects_after_consecutive_failures(self):
        health = SiteHealth(clock=lambda: 0.0)
        for _ in range(EJECTION_THRESHOLD - 1):
            assert not health.record_failure("s0")
        assert health.record_failure("s0")  # crossing returns True
        assert health.is_ejected("s0")

    def test_success_resets_the_streak(self):
        health = SiteHealth()
        for _ in range(EJECTION_THRESHOLD - 1):
            health.record_failure("s0")
        health.record_success("s0")
        for _ in range(EJECTION_THRESHOLD - 1):
            health.record_failure("s0")
        assert not health.is_ejected("s0")

    def test_probe_gates_readmission_on_the_timer_and_the_prober(self):
        now = [0.0]
        health = SiteHealth(clock=lambda: now[0])
        for _ in range(EJECTION_THRESHOLD):
            health.record_failure("s0")
        assert not health.begin_probe("s0")  # timer not due
        now[0] = PROBE_INTERVAL_SECONDS
        assert health.begin_probe("s0")
        assert not health.begin_probe("s0")  # one probe in flight
        health.end_probe("s0", alive=False)
        assert health.is_ejected("s0")
        now[0] = 2 * PROBE_INTERVAL_SECONDS - 1.0
        assert not health.begin_probe("s0")  # failed probe re-armed the timer
        now[0] = 2 * PROBE_INTERVAL_SECONDS
        assert health.begin_probe("s0")
        health.end_probe("s0", alive=True)  # probe readmits
        assert not health.is_ejected("s0")

    def test_invalid_configuration_rejected(self):
        # Ejection and probing run on constants; the clock is the only
        # seam.
        for knob in ("ejection_threshold", "probe_interval_seconds",
                     "probe_wait_seconds"):
            with pytest.raises(TypeError):
                SiteHealth(**{knob: 1})

    def test_healthy_site_checks_true_without_probing(self):
        transport = _SlowPing(_cluster([StubDriver()]), threading.Event())
        assert ParallelDispatcher()._usable(transport, "site0")
        assert transport.pings == []


class _BudgetRecorder(Transport):
    """Wraps another transport and records the timeout of each execute
    and the fragment of each one that answered."""

    def __init__(self, inner):
        self.inner = inner
        self.timeouts = []
        self.answered = []

    def resolve(self, site_names):
        self.inner.resolve(site_names)

    def ping(self, site):
        return self.inner.ping(site)

    def execute(self, subquery, default_collection=None, timeout=None):
        self.timeouts.append(timeout)
        execution = self.inner.execute(
            subquery, default_collection=default_collection, timeout=timeout
        )
        self.answered.append(subquery.fragment)
        return execution


class TestRetryBudget:
    def test_each_attempt_receives_only_the_remaining_budget(self):
        clock = FakeClock()
        drivers = [
            StubDriver(delay=0.03, fail_times=1, sleep=clock.sleep),
            StubDriver(sleep=clock.sleep),
        ]
        recorder = _BudgetRecorder(InProcessTransport(_cluster(drivers)))
        dispatcher = ParallelDispatcher(sleep=clock.sleep, clock=clock)
        dispatcher.dispatch(
            recorder,
            [_replicated_subquery(["site0", "site1"])],
            subquery_timeout=1.0,
        )
        assert len(recorder.timeouts) == 2
        # The first attempt gets the whole budget; the retry exactly what
        # the failed attempt (0.03) and the backoff left over.
        assert recorder.timeouts[0] == pytest.approx(1.0)
        assert recorder.timeouts[1] == pytest.approx(
            1.0 - 0.03 - BACKOFF_SECONDS
        )

    def test_total_wall_stays_within_the_budget_plus_slack(self):
        # Dead primary that burns 150ms, slow replica that answers after
        # another 150ms: the retry gets only what the budget has left, so
        # the whole envelope stays within subquery_timeout + one
        # attempt's overshoot. On the fake clock the bound is exact, not
        # slack-padded.
        clock = FakeClock()
        drivers = [
            StubDriver(delay=0.15, fail_times=50, sleep=clock.sleep),
            StubDriver(delay=0.15, sleep=clock.sleep),
        ]
        dispatcher = ParallelDispatcher(sleep=clock.sleep, clock=clock)
        started = clock()
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(
                _cluster(drivers),
                [_replicated_subquery(["site0", "site1"])],
                subquery_timeout=0.2,
            )
        wall = clock() - started
        (failure,) = info.value.failures
        assert failure.timed_out
        assert failure.attempt_sites == ["site0", "site1"]
        # Budget 0.2s + at most one in-flight attempt (0.15s), exactly.
        assert wall <= 0.2 + 0.15


class TestTimeouts:
    def test_overbudget_subquery_counts_as_timeout(self):
        clock = FakeClock()
        drivers = [StubDriver(delay=0.05, sleep=clock.sleep)]
        dispatcher = ParallelDispatcher(sleep=clock.sleep, clock=clock)
        with pytest.raises(DispatchError) as info:
            dispatcher.dispatch(
                _cluster(drivers),
                _subqueries(1, site_for=lambda i: "site0"),
                subquery_timeout=0.005,
            )
        (failure,) = info.value.failures
        assert failure.timed_out
        assert isinstance(failure.error, TimeoutError)
        assert "timed out" in str(info.value)

    def test_fast_subquery_passes_timeout(self):
        drivers = [StubDriver()]
        outcome = ParallelDispatcher().dispatch(
            _cluster(drivers),
            _subqueries(1, site_for=lambda i: "site0"),
            subquery_timeout=5.0,
        )
        assert len(outcome.round.executions) == 1


class _Gate:
    """A ``sleep`` stand-in for :class:`StubDriver`: the call parks until
    the gate opens (bounded, so a broken dispatcher fails, not hangs)."""

    def __init__(self):
        self.opened = threading.Event()
        self.entered = threading.Semaphore(0)
        self.reached = threading.Event()  # by at least one call

    def __call__(self, seconds):
        self.entered.release()
        self.reached.set()
        assert self.opened.wait(10.0), "gate never opened"

    def wait_entered(self, count=1):
        for _ in range(count):
            assert self.entered.acquire(timeout=10.0), "no lane reached the gate"


def _in_thread(target):
    thread = threading.Thread(target=target)
    thread.start()
    return thread


def _joined(thread):
    thread.join(10.0)
    assert not thread.is_alive()


class TestSharedLanePool:
    """Rounds share one long-lived pool; the caller runs lanes itself."""

    def test_fail_fast_raises_only_after_every_lane_of_the_round_ended(self):
        clock = FakeClock()
        gate = _Gate()
        # Fails once the other lane is parked: a failure any earlier
        # would cancel that lane before it started.
        failing = StubDriver(
            delay=1.0, fail_times=2, sleep=lambda _: gate.reached.wait(10.0)
        )
        parked = StubDriver(delay=1.0, sleep=gate)
        dispatcher = ParallelDispatcher(clock=clock, sleep=clock.sleep)
        subqueries = _subqueries(3, site_for=lambda i: f"site{min(i, 1)}")
        recorder = _BudgetRecorder(
            InProcessTransport(_cluster([failing, parked]))
        )
        events = []

        def _round():
            try:
                dispatcher.dispatch(recorder, subqueries)
            except DispatchError as exc:
                events.append(
                    f"raised:{len(exc.failures)} after {recorder.answered}"
                )

        try:
            caller = _in_thread(_round)
            gate.wait_entered()
            deadline = time.monotonic() + 10.0
            while failing.fail_times and time.monotonic() < deadline:
                time.sleep(0.001)
            assert failing.fail_times == 0  # the failure is in already...
            caller.join(0.1)
            assert caller.is_alive()  # ...yet the round waits for its lane
            assert events == []
            gate.opened.set()
            _joined(caller)
        finally:
            gate.opened.set()
            dispatcher.close()
        # q1 had answered before dispatch() raised, q2 was skipped.
        assert events == ["raised:1 after ['F1']"]
        assert parked.calls == ["q1"]

    def test_a_parked_lane_of_one_round_does_not_delay_another_round(self):
        gate = _Gate()
        parked = [StubDriver(delay=1.0, sleep=gate) for _ in range(4)]
        free = [StubDriver() for _ in range(4)]
        dispatcher = ParallelDispatcher()
        outcomes = {}

        def _round_a():
            outcomes["a"] = dispatcher.dispatch(
                _cluster(parked), _subqueries(4)
            )

        try:
            round_a = _in_thread(_round_a)
            gate.wait_entered(4)  # caller + 3 pool threads, all parked
            outcomes["b"] = dispatcher.dispatch(
                _cluster(free), _subqueries(4)
            )
            assert round_a.is_alive() and "a" not in outcomes
            gate.opened.set()
            _joined(round_a)
        finally:
            gate.opened.set()
            dispatcher.close()
        assert len(outcomes["a"].round.executions) == 4
        assert [
            e.result.result_text for e in outcomes["b"].round.executions
        ] == [f"result:q{i}" for i in range(4)]

    def test_a_one_lane_round_starts_no_thread(self):
        driver = StubDriver()
        dispatcher = ParallelDispatcher()
        before = _lane_threads()
        outcome = dispatcher.dispatch(
            _cluster([driver]), _subqueries(3, site_for=lambda i: "site0")
        )
        assert len(outcome.round.executions) == 3
        assert driver.threads == [threading.get_ident()] * 3
        assert _lane_threads() <= before

    def test_a_serial_transport_keeps_the_round_on_the_calling_thread(self):
        drivers = [StubDriver() for _ in range(4)]
        dispatcher = ParallelDispatcher()
        before = _lane_threads()
        outcome = dispatcher.dispatch(
            SerialTransport(InProcessTransport(_cluster(drivers))),
            _subqueries(4),
        )
        assert len(outcome.round.executions) == 4
        assert [driver.threads for driver in drivers] == [
            [threading.get_ident()]
        ] * 4
        assert _lane_threads() <= before

    def test_rounds_reuse_the_lane_threads(self):
        drivers = [StubDriver(delay=0.01) for _ in range(4)]
        dispatcher = ParallelDispatcher()
        before = _lane_threads()
        try:
            dispatcher.dispatch(_cluster(drivers), _subqueries(4))
            first = _lane_threads() - before
            for _ in range(5):
                dispatcher.dispatch(_cluster(drivers), _subqueries(4))
            assert 1 <= len(first) <= 3  # the caller took a lane itself
            assert _lane_threads() - before == first
        finally:
            dispatcher.close()

    def test_close_ends_the_lane_threads_and_the_pool_comes_back(self):
        drivers = [StubDriver(delay=0.01) for _ in range(4)]
        dispatcher = ParallelDispatcher()
        before = _lane_threads()
        dispatcher.dispatch(_cluster(drivers), _subqueries(4))
        mine = _lane_threads() - before
        assert mine
        dispatcher.close()
        assert not any(thread.is_alive() for thread in mine)
        dispatcher.close()  # idempotent
        try:
            outcome = dispatcher.dispatch(_cluster(drivers), _subqueries(4))
            assert len(outcome.round.executions) == 4
            assert _lane_threads() - before
        finally:
            dispatcher.close()
        assert _lane_threads() <= before

    def test_concurrent_rounds_keep_their_results_apart(self):
        """Stress: more dispatching threads than cores on one dispatcher,
        short switch interval — every round gets exactly its own answers."""
        import sys

        dispatcher = ParallelDispatcher()
        drivers = [StubDriver() for _ in range(4)]
        cluster = _cluster(drivers)
        wrong = []

        def _client(tag):
            subqueries = [
                SubQuery(
                    fragment=f"F{i}",
                    site=f"site{i}",
                    collection="C",
                    query=f"{tag}-{i}",
                )
                for i in range(4)
            ]
            for _ in range(40):
                outcome = dispatcher.dispatch(cluster, subqueries)
                texts = [
                    e.result.result_text for e in outcome.round.executions
                ]
                if texts != [f"result:{tag}-{i}" for i in range(4)]:
                    wrong.append(texts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                _in_thread(lambda tag=tag: _client(tag)) for tag in "abcdefgh"
            ]
            for client in clients:
                client.join(30.0)
            assert not any(client.is_alive() for client in clients)
        finally:
            sys.setswitchinterval(interval)
            dispatcher.close()
        assert not wrong
        assert sum(len(driver.calls) for driver in drivers) == 8 * 40 * 4
