"""The coordinator concurrency battery.

Everything here runs against a real coordinator on a real socket: the
threaded frame server of ``repro.net.server``, admitting each QUERY on
its connection thread and executing it on the coordinator's pool. The
core property is the one the serial tests cannot check: under heavy
concurrency — 32+ clients, mixed workload, republishes and slow sites
happening mid-flight — every answer stays byte-identical to a serial
``Partix.execute`` baseline, overload is shed with a typed error
instead of latency collapse, and shutdown drains cleanly.
"""

import threading
import time
from unittest.mock import ANY

import pytest

from repro.cluster import ParallelDispatcher
from repro.cluster.site import Cluster, Site
from repro.coordinate import Coordinator, CoordinatorClient, run_traffic
from repro.coordinate.traffic import WorkloadQuery
from repro.datamodel import Collection, doc, elem
from repro.errors import AdmissionRejected, QueryDeadlineExceeded
from repro.net import protocol
from repro.net.protocol import (
    Frame,
    FrameType,
    PROTOCOL_VERSION,
    recv_frame,
    send_frame,
)
from repro.partix.catalog import FragmentAllocation
from repro.partix.driver import PartixDriver
from repro.partix.fragments import FragmentationSchema, HorizontalFragment
from repro.partix.middleware import Partix
from repro.paths import eq, ne
from repro.workloads.queries import items_queries
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)


def _published_partix(fragment_count=2, item_count=24, dispatcher=None):
    collection = build_items_collection(item_count, kind="small", seed=11)
    cluster = Cluster.with_sites(max(fragment_count, 4))
    partix = Partix(cluster, dispatcher=dispatcher)
    design = items_horizontal_fragmentation(fragment_count)
    partix.publish(
        collection, design, allocations=_allocations(design, "a")
    )
    return partix, collection


def _allocations(design, suffix, site_offset=0):
    """One site per fragment, stored collections tagged per publication
    so a republish never collides with previously stored data."""
    return [
        FragmentAllocation(
            fragment=fragment.name,
            site=f"site{index + site_offset}",
            stored_collection=f"{fragment.name}__{suffix}",
        )
        for index, fragment in enumerate(design.fragments)
    ]


def _workload(partix, collection, count=3):
    """The first ``count`` bench queries with serial baselines attached.

    Q1's point lookup is aimed at a Code stored on ``site0``: lookups
    are routed by value, and the stalled-site tests need their first
    query to reach the site they gate."""
    primary = partix.distribution_catalog.allocations(collection.name)[0]
    assert primary.site == "site0"
    code = partix.execute_centralized(
        f'collection("{primary.stored_collection}")/Item/Code/text()', "site0"
    ).result_text.split("\n")[0]
    entries = []
    for query in items_queries(collection.name)[:count]:
        text = query.text.replace("I-000050", code)
        baseline = partix.execute(
            text, collection=collection.name, execution_mode="simulated"
        )
        entries.append(
            WorkloadQuery(
                qid=query.qid,
                text=text,
                expected_text=baseline.result_text,
                collection=collection.name,
            )
        )
    return entries


class _GatedDriver(PartixDriver):
    """Wraps a live driver; queries block until the gate opens."""

    def __init__(self, inner, max_wait=5.0):
        self.inner = inner
        self.gate = threading.Event()
        self.max_wait = max_wait
        self.calls = 0

    def create_collection(self, name):
        self.inner.create_collection(name)

    def store_document(self, collection, document, name=None, origin=None):
        self.inner.store_document(collection, document, name=name, origin=origin)

    def retain_documents(self, collection, keep):
        self.inner.retain_documents(collection, keep)

    def document_count(self, collection):
        return self.inner.document_count(collection)

    def collection_bytes(self, collection):
        return self.inner.collection_bytes(collection)

    def execute(self, query, options=None):
        self.calls += 1
        self.gate.wait(timeout=self.max_wait)
        return self.inner.execute(query, options)


class TestConcurrentServing:
    def test_32_concurrent_clients_stay_byte_identical(self):
        partix, collection = _published_partix()
        workload = _workload(partix, collection)
        coordinator = Coordinator(
            partix, execution_mode="threads", max_active=8, queue_limit=256
        ).serve_in_thread()
        try:
            report = run_traffic(
                coordinator.host,
                coordinator.port,
                workload,
                clients=32,
                requests_per_client=3,
                seed=7,
            )
        finally:
            assert coordinator.close()
        assert report.total == 32 * 3
        assert report.incorrect == 0
        assert report.errors == 0, report.error_messages
        assert report.shed == 0  # queue_limit 256 absorbs all 32 clients
        assert report.ok == 32 * 3
        # Every query planned through the middleware's one cache: one
        # lookup each — the serial baselines _workload() computed up
        # front took the only misses, so every served query was a hit —
        # and one cached logical plan per distinct query at the end.
        cache = coordinator.plan_cache.stats()
        assert coordinator.plan_cache is partix.plan_cache
        assert cache["misses"] == len(workload)
        assert cache["hits"] == report.ok
        assert cache["entries"] == len(workload)

    def test_pool_reuse_and_admission_peaks_are_reported(self):
        partix, collection = _published_partix()
        workload = _workload(partix, collection, count=2)
        coordinator = Coordinator(
            partix, execution_mode="threads", max_active=4, queue_limit=256
        ).serve_in_thread()
        try:
            run_traffic(
                coordinator.host,
                coordinator.port,
                workload,
                clients=16,
                requests_per_client=2,
                seed=3,
            )
            stats = coordinator.stats_payload()
        finally:
            assert coordinator.close()
        assert stats["queries_served"] == 32
        admission = stats["admission"]
        assert admission["active"] == 0 and admission["queued"] == 0
        assert admission["peak_active"] <= 4  # the bound held under load
        assert admission["admitted"] == 32

    def test_streamed_answers_match_monolithic(self, monkeypatch):
        # One query() whatever the answer's size: the coordinator sends
        # an answer that fills the connection's chunk as RESULT_CHUNK
        # frames (7 bytes: multi-byte characters split across frames)
        # and a shorter one inline; the payload is the same either way.
        names = ["café ☃", "naïve \U0001f409", "plain", "ü"]
        collection = Collection(
            "C",
            [
                doc(
                    elem("Item", elem("Name", name), elem("Odd", str(index % 2))),
                    name=f"{index}.xml",
                )
                for index, name in enumerate(names)
            ],
        )
        design = FragmentationSchema(
            "C",
            [
                HorizontalFragment("F_odd", "C", predicate=eq("/Item/Odd", "1")),
                HorizontalFragment("F_even", "C", predicate=ne("/Item/Odd", "1")),
            ],
            root_label="Item",
        )
        long_query = 'for $i in collection("C")/Item return $i/Name'
        with Partix(Cluster.with_sites(2)) as partix:
            partix.publish(collection, design)
            long_answer = partix.execute(long_query, collection="C").result_text
            assert all(name in long_answer for name in names)
            coordinator = Coordinator(
                partix, execution_mode="threads"
            ).serve_in_thread()
            client = CoordinatorClient(
                coordinator.host, coordinator.port, chunk_bytes=7
            )
            wide = CoordinatorClient(coordinator.host, coordinator.port)
            try:
                frames = _record_chunks(client)
                reply = client.query(long_query, collection="C")
                assert reply["result_text"] == long_answer
                assert reply["result_bytes"] == len(long_answer.encode("utf-8"))
                assert len(frames) > 1
                assert all(len(raw) <= 7 for raw in frames)
                assert b"".join(frames).decode("utf-8") == long_answer
                del frames[:]
                short = client.query(
                    'count(collection("C")/Item)', collection="C"
                )
                assert short["result_text"] == "4" and not frames
                assert short.keys() == reply.keys()
                # Under a chunk size it does not fill, an answer still
                # leaves the JSON frame once it passes the inline cap.
                frames = _record_chunks(wide)
                assert wide.query(long_query, collection="C") == {
                    **reply, "elapsed_seconds": ANY
                }
                assert not frames
                monkeypatch.setattr(protocol, "MAX_INLINE_RESULT_BYTES", 10)
                capped = wide.query(long_query, collection="C")
                assert capped["result_text"] == long_answer
                assert [raw.decode("utf-8") for raw in frames] == [long_answer]
            finally:
                client.close()
                wide.close()
                assert coordinator.close()


def _record_chunks(client):
    """The RESULT_CHUNK payloads ``client`` receives from here on."""
    frames = []
    real_exchange = client._exchange

    def recording_exchange(*args, on_chunk, **kwargs):
        def record(raw):
            frames.append(raw)
            on_chunk(raw)

        return real_exchange(*args, on_chunk=record, **kwargs)

    client._exchange = recording_exchange
    return frames


class TestRepublishInvalidation:
    def test_overlapping_republish_keeps_answers_identical(self):
        # Traffic flows while the collection is republished: the same
        # fragmentation moves to fresh sites (site2/site3), so answers
        # must stay byte-identical while the catalog-version bump
        # invalidates every cached plan (visible as fresh cache misses).
        partix, collection = _published_partix(fragment_count=2)
        workload = _workload(partix, collection)
        version_before = partix.distribution_catalog.version
        coordinator = Coordinator(
            partix, execution_mode="threads", max_active=4, queue_limit=256
        ).serve_in_thread()
        new_design = items_horizontal_fragmentation(2)

        failures = []

        def _republish():
            time.sleep(0.05)  # let the first wave cache its plans
            try:
                partix.publish(
                    collection,
                    new_design,
                    allocations=_allocations(new_design, "b", site_offset=2),
                    replace=True,
                )
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        # Warm the cache under the old design first, so the version bump
        # demonstrably strands one cached plan per query.
        warmer = CoordinatorClient(coordinator.host, coordinator.port)
        try:
            for entry in workload:
                warmer.query(entry.text, collection=entry.collection)
        finally:
            warmer.close()
        assert coordinator.plan_cache.stats()["entries"] == len(workload)

        republisher = threading.Thread(target=_republish)
        republisher.start()
        try:
            report = run_traffic(
                coordinator.host,
                coordinator.port,
                workload,
                clients=8,
                requests_per_client=6,
                seed=5,
            )
            republisher.join()
            # Post-republish queries must replan (the version bump
            # stranded every cached entry) and still answer identically.
            checker = CoordinatorClient(coordinator.host, coordinator.port)
            try:
                for entry in workload:
                    reply = checker.query(
                        entry.text, collection=entry.collection
                    )
                    assert reply["result_text"] == entry.expected_text
            finally:
                checker.close()
        finally:
            cache = coordinator.plan_cache.stats()
            assert coordinator.close()
        assert not failures
        assert report.incorrect == 0
        assert report.errors == 0, report.error_messages
        assert report.ok == 8 * 6
        assert partix.distribution_catalog.version > version_before
        # One plan generation per design: the first wave missed once per
        # query, and after the version bump each query missed again.
        assert cache["misses"] >= 2 * len(workload)

    def test_shrinking_republish_answers_from_the_new_documents_only(self):
        # 64 → 72 → 64 documents into the same stored collections: the
        # coordinator's answers track the publication, with no document
        # of an earlier one left behind (this used to answer 93).
        design = items_horizontal_fragmentation(4, "Chot")
        small, large = (
            build_items_collection(count, kind="small", seed=seed, name="Chot")
            for count, seed in ((64, 1), (72, 2))
        )
        partix = Partix(Cluster.with_sites(4))
        partix.publish(small, design)
        coordinator = Coordinator(
            partix, execution_mode="threads"
        ).serve_in_thread()
        client = CoordinatorClient(coordinator.host, coordinator.port)
        count = 'count(collection("Chot")/Item)'
        try:
            assert client.query(count)["result_text"] == "64"
            for variant, expected in ((large, "72"), (small, "64")):
                partix.publish(variant, design, replace=True)
                assert client.query(count)["result_text"] == expected
        finally:
            client.close()
            assert coordinator.close()
            partix.close()

    def test_republished_design_actually_routes_to_new_sites(self):
        partix, collection = _published_partix(fragment_count=2)
        query = items_queries(collection.name)[1].text
        before = partix.execute(query, collection=collection.name)
        sites_before = {e.site for e in before.round.executions}
        assert sites_before and sites_before <= {"site0", "site1"}
        new_design = items_horizontal_fragmentation(2)
        partix.publish(
            collection,
            new_design,
            allocations=_allocations(new_design, "b", site_offset=2),
            replace=True,
        )
        after = partix.execute(query, collection=collection.name)
        assert after.result_text == before.result_text
        sites_after = {e.site for e in after.round.executions}
        assert sites_after and sites_after <= {"site2", "site3"}


def _publish_fast_lane(partix):
    """A second collection on ungated sites (site2/site3), so a fast
    query can run while site0 is stalled; returns (query, expected)."""
    fast_collection = build_items_collection(
        8, kind="small", seed=23, name="Cfast"
    )
    fast_design = items_horizontal_fragmentation(2, collection="Cfast")
    partix.publish(
        fast_collection,
        fast_design,
        allocations=[
            FragmentAllocation(
                fragment=fragment.name,
                site=f"site{2 + index}",
                stored_collection=f"Cfast__{fragment.name}",
            )
            for index, fragment in enumerate(fast_design.fragments)
        ],
    )
    fast_query = 'count(collection("Cfast")/Item)'
    fast_expected = partix.execute(
        fast_query, collection="Cfast", execution_mode="simulated"
    ).result_text
    return fast_query, fast_expected


class TestNoHeadOfLineBlocking:
    def test_fast_queries_overtake_a_stalled_one_on_the_same_connection(self):
        # Two QUERY frames pipelined on ONE connection: the first stalls
        # on a gated site, the second is fast. The fast reply must arrive
        # first — request ids, not arrival order, pair replies to queries.
        partix, collection = _published_partix(fragment_count=2)
        workload = _workload(partix, collection, count=2)
        gated = _GatedDriver(partix.cluster.site("site0").driver)
        partix.cluster.site("site0").driver = gated
        fast_query, fast_expected = _publish_fast_lane(partix)

        coordinator = Coordinator(
            partix, execution_mode="threads", max_active=4
        ).serve_in_thread()
        import socket as socketlib

        sock = socketlib.create_connection(
            (coordinator.host, coordinator.port), timeout=10.0
        )
        try:
            send_frame(
                sock,
                Frame(
                    type=FrameType.HELLO,
                    request_id=1,
                    payload={"version": PROTOCOL_VERSION},
                ),
            )
            welcome, _ = recv_frame(sock)
            assert welcome.type is FrameType.WELCOME

            slow_entry = workload[0]
            send_frame(
                sock,
                Frame(
                    type=FrameType.QUERY,
                    request_id=100,
                    payload={
                        "query": slow_entry.text,
                        "collection": slow_entry.collection,
                    },
                ),
            )
            send_frame(
                sock,
                Frame(
                    type=FrameType.QUERY,
                    request_id=200,
                    payload={"query": fast_query, "collection": "Cfast"},
                ),
            )
            first, _ = recv_frame(sock)
            assert first.request_id == 200  # the fast one overtook
            assert first.type is FrameType.QUERY_RESULT
            assert first.payload["result_text"] == fast_expected

            gated.gate.set()
            second, _ = recv_frame(sock)
            assert second.request_id == 100
            assert second.type is FrameType.QUERY_RESULT
            assert second.payload["result_text"] == slow_entry.expected_text
        finally:
            sock.close()
            assert coordinator.close()

    def test_a_stalled_site_does_not_block_other_connections(self):
        partix, collection = _published_partix(fragment_count=2)
        workload = _workload(partix, collection, count=1)
        gated = _GatedDriver(partix.cluster.site("site0").driver)
        partix.cluster.site("site0").driver = gated
        fast_query, fast_expected = _publish_fast_lane(partix)
        coordinator = Coordinator(
            partix, execution_mode="threads", max_active=4
        ).serve_in_thread()
        slow_client = CoordinatorClient(coordinator.host, coordinator.port)
        fast_client = CoordinatorClient(coordinator.host, coordinator.port)
        slow_reply = {}

        def _slow():
            slow_reply["payload"] = slow_client.query(
                workload[0].text, collection=workload[0].collection
            )

        slow_thread = threading.Thread(target=_slow)
        slow_thread.start()
        try:
            deadline = time.perf_counter() + 5.0
            while gated.calls == 0 and time.perf_counter() < deadline:
                time.sleep(0.005)  # wait until the slow query is stalled
            assert gated.calls > 0
            started = time.perf_counter()
            reply = fast_client.query(fast_query, collection="Cfast")
            fast_elapsed = time.perf_counter() - started
            assert reply["result_text"] == fast_expected
            assert fast_elapsed < 2.0  # did not wait for the gate
        finally:
            gated.gate.set()
            slow_thread.join(timeout=10.0)
            slow_client.close()
            fast_client.close()
            assert coordinator.close()
        assert slow_reply["payload"]["result_text"] == workload[0].expected_text


class TestAdmissionOverTheWire:
    def _gated_coordinator(self, max_active, queue_limit):
        partix, collection = _published_partix(fragment_count=2)
        workload = _workload(partix, collection, count=1)
        gated = _GatedDriver(partix.cluster.site("site0").driver)
        partix.cluster.site("site0").driver = gated
        coordinator = Coordinator(
            partix,
            execution_mode="threads",
            max_active=max_active,
            queue_limit=queue_limit,
        ).serve_in_thread()
        return coordinator, workload[0], gated

    def test_overflow_is_shed_with_the_typed_error(self):
        coordinator, entry, gated = self._gated_coordinator(
            max_active=1, queue_limit=0
        )
        blocker = CoordinatorClient(coordinator.host, coordinator.port)
        shed_client = CoordinatorClient(coordinator.host, coordinator.port)
        blocked = threading.Thread(
            target=lambda: blocker.query(entry.text, collection=entry.collection)
        )
        blocked.start()
        try:
            deadline = time.perf_counter() + 5.0
            while gated.calls == 0 and time.perf_counter() < deadline:
                time.sleep(0.005)
            started = time.perf_counter()
            with pytest.raises(AdmissionRejected) as info:
                shed_client.query(entry.text, collection=entry.collection)
            assert time.perf_counter() - started < 1.0  # shed, not queued
            assert "retry later" in str(info.value)
        finally:
            gated.gate.set()
            blocked.join(timeout=10.0)
            blocker.close()
            shed_client.close()
            stats = coordinator.stats_payload()
            assert coordinator.close()
        assert stats["admission"]["shed"] == 1

    def test_deadline_expires_in_the_admission_queue(self):
        coordinator, entry, gated = self._gated_coordinator(
            max_active=1, queue_limit=8
        )
        blocker = CoordinatorClient(coordinator.host, coordinator.port)
        waiting = CoordinatorClient(coordinator.host, coordinator.port)
        blocked = threading.Thread(
            target=lambda: blocker.query(entry.text, collection=entry.collection)
        )
        blocked.start()
        try:
            deadline = time.perf_counter() + 5.0
            while gated.calls == 0 and time.perf_counter() < deadline:
                time.sleep(0.005)
            with pytest.raises(QueryDeadlineExceeded) as info:
                waiting.query(
                    entry.text,
                    collection=entry.collection,
                    deadline_seconds=0.15,
                )
            assert "admission queue" in str(info.value)
        finally:
            gated.gate.set()
            blocked.join(timeout=10.0)
            blocker.close()
            waiting.close()
            assert coordinator.close()

    def test_deadline_expires_during_dispatch(self):
        # A site that stalls longer than the per-query deadline turns
        # the reply into QueryDeadlineExceeded once the budgeted attempt
        # expires.
        partix, collection = _published_partix(
            fragment_count=2,
            dispatcher=ParallelDispatcher(sleep=lambda s: None),
        )
        entry = _workload(partix, collection, count=1)[0]
        gated = _GatedDriver(
            partix.cluster.site("site0").driver, max_wait=0.6
        )
        partix.cluster.site("site0").driver = gated
        coordinator = Coordinator(
            partix, execution_mode="threads", max_active=2
        ).serve_in_thread()
        client = CoordinatorClient(coordinator.host, coordinator.port)
        try:
            with pytest.raises(QueryDeadlineExceeded):
                client.query(
                    entry.text,
                    collection=entry.collection,
                    deadline_seconds=0.1,
                )
        finally:
            client.close()
            assert coordinator.close()


class TestShutdown:
    def test_close_is_clean_with_idle_connections_open(self):
        partix, _ = _published_partix(fragment_count=2)
        coordinator = Coordinator(partix, execution_mode="threads").serve_in_thread()
        client = CoordinatorClient(coordinator.host, coordinator.port)
        client.ping()  # leaves a pooled, idle connection open
        try:
            assert coordinator.close()
        finally:
            client.close()

    def test_close_drains_an_in_flight_query(self):
        partix, collection = _published_partix(fragment_count=2)
        entry = _workload(partix, collection, count=1)[0]
        gated = _GatedDriver(partix.cluster.site("site0").driver)
        partix.cluster.site("site0").driver = gated
        coordinator = Coordinator(partix, execution_mode="threads").serve_in_thread()
        client = CoordinatorClient(coordinator.host, coordinator.port)
        reply = {}

        def _query():
            reply["payload"] = client.query(
                entry.text, collection=entry.collection
            )

        querier = threading.Thread(target=_query)
        querier.start()
        deadline = time.perf_counter() + 5.0
        while gated.calls == 0 and time.perf_counter() < deadline:
            time.sleep(0.005)
        opener = threading.Timer(0.2, gated.gate.set)
        opener.start()
        try:
            # close() must wait for the in-flight query, whose reply must
            # still reach the client before the connection is torn down.
            assert coordinator.close()
            querier.join(timeout=10.0)
            assert reply["payload"]["result_text"] == entry.expected_text
        finally:
            opener.cancel()
            gated.gate.set()
            client.close()

    def test_shutdown_frame_drains_the_service(self):
        partix, _ = _published_partix(fragment_count=2)
        coordinator = Coordinator(partix, execution_mode="threads").serve_in_thread()
        client = CoordinatorClient(coordinator.host, coordinator.port)
        try:
            assert client.shutdown_server()
            deadline = time.perf_counter() + 5.0
            while (
                coordinator._thread is not None
                and coordinator._thread.is_alive()
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
            assert coordinator.close()
        finally:
            client.close()
