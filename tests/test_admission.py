"""Admission-control and deadline tests, all on the fake clock.

The admission controller is pure slot accounting, so its tests need no
sockets and no event loop; the deadline tests inject
:class:`tests.fake_clock.FakeClock` into the dispatcher so every timing
assertion is exact — no real sleeps anywhere in this file.
"""

import pytest

from repro.cluster import ParallelDispatcher
from repro.coordinate.admission import AdmissionController
from repro.errors import AdmissionRejected, DispatchError
from repro.partix.middleware import Partix
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)
from repro.cluster.site import Cluster
from tests.fake_clock import FakeClock
from tests.test_cluster_dispatch import (
    StubDriver,
    _cluster,
    _replicated_subquery,
    _subqueries,
)


class TestAdmissionController:
    def test_slots_fill_up_to_max_active(self):
        admission = AdmissionController(max_active=2, queue_limit=4)
        assert admission.try_start()
        assert admission.try_start()
        assert not admission.try_start()
        assert admission.active == 2

    def test_finish_frees_a_slot_when_nobody_waits(self):
        admission = AdmissionController(max_active=1, queue_limit=4)
        assert admission.try_start()
        assert admission.finish() is None
        assert admission.active == 0
        assert admission.try_start()

    def test_finish_transfers_the_slot_to_the_oldest_waiter(self):
        admission = AdmissionController(max_active=1, queue_limit=4)
        assert admission.try_start()
        admission.enqueue("first")
        admission.enqueue("second")
        # The slot moves, it is not freed: active stays 1 and the oldest
        # waiter is handed back for wake-up.
        assert admission.finish() == "first"
        assert admission.active == 1
        assert admission.queued == 1

    def test_full_queue_sheds_with_the_typed_error(self):
        admission = AdmissionController(max_active=1, queue_limit=1)
        assert admission.try_start()
        admission.enqueue("waiting")
        with pytest.raises(AdmissionRejected) as info:
            admission.enqueue("one too many")
        assert "retry later" in str(info.value)
        assert admission.snapshot()["shed"] == 1

    def test_zero_queue_limit_sheds_immediately(self):
        admission = AdmissionController(max_active=1, queue_limit=0)
        assert admission.try_start()
        with pytest.raises(AdmissionRejected):
            admission.enqueue("anyone")

    def test_abandon_removes_a_parked_waiter(self):
        admission = AdmissionController(max_active=1, queue_limit=4)
        assert admission.try_start()
        admission.enqueue("impatient")
        assert admission.abandon("impatient")
        assert admission.queued == 0
        # The freed queue spot is usable again.
        admission.enqueue("patient")
        assert admission.queued == 1

    def test_abandon_after_promotion_reports_false(self):
        admission = AdmissionController(max_active=1, queue_limit=4)
        assert admission.try_start()
        admission.enqueue("racer")
        assert admission.finish() == "racer"  # promoted
        # Too late to abandon: the caller now owns the slot.
        assert not admission.abandon("racer")
        assert admission.active == 1

    def test_snapshot_counts_admissions_and_peaks(self):
        admission = AdmissionController(max_active=2, queue_limit=2)
        admission.try_start()
        admission.try_start()
        admission.enqueue("w1")
        snapshot = admission.snapshot()
        assert snapshot["admitted"] == 2
        assert snapshot["peak_active"] == 2
        assert snapshot["peak_queued"] == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(max_active=0)
        with pytest.raises(ValueError):
            AdmissionController(queue_limit=-1)


class TestDispatchTimeoutOverride:
    """The per-dispatch ``subquery_timeout`` behind per-query deadlines:
    it bounds a round, or is None to run without a budget."""

    def test_explicit_none_disables_the_budget(self):
        clock = FakeClock()
        drivers = [StubDriver(delay=60.0, sleep=clock.sleep)]
        dispatcher = ParallelDispatcher(sleep=clock.sleep, clock=clock)
        outcome = dispatcher.dispatch(
            _cluster(drivers),
            _subqueries(1, site_for=lambda i: "site0"),
            subquery_timeout=None,
        )
        assert len(outcome.round.executions) == 1

    def test_total_wall_respects_the_override_budget(self):
        # Attempts + backoffs draw down one deadline: a dead primary
        # burns 150ms, the replica answers 150ms later — past the 0.2s
        # budget, by at most that one in-flight attempt.
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
        (failure,) = info.value.failures
        assert failure.timed_out
        assert clock() - started <= 0.2 + 0.15


class _RecordingDispatcher(ParallelDispatcher):
    """Captures the subquery_timeout each dispatch was handed."""

    def __init__(self):
        super().__init__()
        self.seen_timeouts = []

    def dispatch(self, transport, subqueries, default_collection=None,
                 subquery_timeout=None):
        self.seen_timeouts.append(subquery_timeout)
        return super().dispatch(
            transport,
            subqueries,
            default_collection=default_collection,
            subquery_timeout=subquery_timeout,
        )


class TestMiddlewareDeadline:
    def _partix(self, dispatcher):
        collection = build_items_collection(12, kind="small", seed=11)
        cluster = Cluster.with_sites(2)
        partix = Partix(cluster, dispatcher=dispatcher)
        partix.publish(collection, items_horizontal_fragmentation(2))
        return partix, collection

    def test_deadline_seconds_overrides_the_dispatcher_default(self):
        dispatcher = _RecordingDispatcher()
        partix, collection = self._partix(dispatcher)
        partix.execute(
            'count(collection("%s")//Item)' % collection.name,
            collection=collection.name,
            deadline_seconds=0.75,
        )
        assert dispatcher.seen_timeouts == [0.75]

    def test_no_deadline_keeps_the_dispatcher_default(self):
        # The dispatcher's default is no budget at all.
        dispatcher = _RecordingDispatcher()
        partix, collection = self._partix(dispatcher)
        partix.execute(
            'count(collection("%s")//Item)' % collection.name,
            collection=collection.name,
        )
        assert dispatcher.seen_timeouts == [None]
