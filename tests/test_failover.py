"""End-to-end failover: killing one replica must not change the answer.

Every collection here is published twice — each fragment's primary on
its own site plus a replica of everything on a ``mirror`` site — so a
dead primary leaves exactly one live copy. The middleware must answer
byte-identically through the replica (simulated and tcp transports),
report the failover, and only degrade / fail fast once *every* replica
of a fragment is gone.
"""

import pytest

from repro.cluster import DEGRADE, ParallelDispatcher
from repro.cluster.site import Cluster, Site
from repro.errors import DispatchError
from repro.partix.catalog import FragmentAllocation
from repro.partix.driver import PartixDriver
from repro.partix.middleware import Partix
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)


class _DeadDriver(PartixDriver):
    """An in-process site that lost power: every call raises."""

    def _die(self, *args, **kwargs):
        raise RuntimeError("site is down")

    create_collection = _die
    store_document = _die
    retain_documents = _die
    document_count = _die
    collection_bytes = _die
    execute = _die


def _replicated_partix(fragment_count=2, item_count=24, dispatcher=None):
    """A published Partix where the ``mirror`` site replicates every
    fragment (primaries keep the default one-site-per-fragment layout)."""
    collection = build_items_collection(item_count, kind="small", seed=11)
    cluster = Cluster.with_sites(fragment_count)
    cluster.add(Site("mirror"))
    cluster.add(Site("central"))
    partix = Partix(cluster, dispatcher=dispatcher)
    design = items_horizontal_fragmentation(fragment_count)
    allocations = []
    for index, fragment in enumerate(design.fragments):
        allocations.append(
            FragmentAllocation(
                fragment=fragment.name,
                site=f"site{index % fragment_count}",
                stored_collection=fragment.name,
            )
        )
        allocations.append(
            FragmentAllocation(
                fragment=fragment.name,
                site="mirror",
                stored_collection=fragment.name,
            )
        )
    partix.publish(collection, design, allocations=allocations)
    partix.publish_centralized(collection, "central")
    return partix, collection


def _item_query(collection):
    return 'for $i in collection("%s")//Item return $i/Code' % collection.name


def _count_query(collection):
    return 'count(collection("%s")//Item)' % collection.name


class TestSimulatedFailover:
    def test_killed_primary_fails_over_byte_identical(self):
        partix, collection = _replicated_partix()
        query = _item_query(collection)
        healthy = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        victim = healthy.round.executions[0].site
        assert victim != "mirror"  # healthy lowering picks the primary

        partix.cluster.site(victim).driver = _DeadDriver()
        result = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        assert result.result_text == healthy.result_text
        assert result.failover_count >= 1
        assert any(e.site == "mirror" for e in result.round.executions)
        assert not any("degraded" in note for note in result.notes)
        assert any("failover" in note for note in result.notes)

    def test_failed_over_count_matches_the_centralized_oracle(self):
        partix, collection = _replicated_partix()
        query = _count_query(collection)
        central = partix.execute_centralized(query, "central").result_text
        partix.cluster.site("site0").driver = _DeadDriver()
        result = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        assert result.result_text == central
        assert result.failover_count >= 1

    def test_all_replicas_dead_fail_fast_raises(self):
        partix, collection = _replicated_partix()
        partix.cluster.site("site0").driver = _DeadDriver()
        partix.cluster.site("mirror").driver = _DeadDriver()
        with pytest.raises(DispatchError) as info:
            partix.execute(
                _item_query(collection),
                collection=collection.name,
                execution_mode="simulated",
            )
        assert "tried sites" in str(info.value)

    def test_all_replicas_dead_degrade_reports_the_dropped_fragment(self):
        dispatcher = ParallelDispatcher(
            retries=1, failure_policy=DEGRADE, sleep=lambda s: None
        )
        partix, collection = _replicated_partix(dispatcher=dispatcher)
        query = _item_query(collection)
        healthy = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        partix.cluster.site("site0").driver = _DeadDriver()
        partix.cluster.site("mirror").driver = _DeadDriver()
        result = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        assert result.result_text != healthy.result_text  # fragment dropped
        degraded = [note for note in result.notes if "degraded" in note]
        assert len(degraded) == 1
        assert "tried sites site0, mirror" in degraded[0]

    def test_lowering_routes_new_plans_away_from_an_ejected_site(self):
        partix, collection = _replicated_partix()
        query = _item_query(collection)
        before = partix.explain(query, collection.name)
        assert any(sq.site == "site0" for sq in before.subqueries)

        for _ in range(partix.site_health.ejection_threshold):
            partix.site_health.record_failure("site0")
        after = partix.explain(query, collection.name)
        assert not any(sq.site == "site0" for sq in after.subqueries)
        assert any(
            "avoided ejected site" in note for note in after.notes
        )
        # Readmission restores the original routing.
        partix.site_health.readmit("site0")
        restored = partix.explain(query, collection.name)
        assert restored.render() == before.render()


def _vertical_partix(dispatcher):
    """XBench articles, three vertical fragments, no replica."""
    from repro.workloads import (
        build_xbench_collection,
        xbench_vertical_fragmentation,
    )

    partix = Partix(Cluster.with_sites(3), dispatcher=dispatcher)
    partix.publish(
        build_xbench_collection(6, doc_bytes=4_000, seed=3),
        xbench_vertical_fragmentation(),
    )
    return partix


class TestJoinsNeverDegrade:
    """A join that lost an input is not a subset of the answer: under
    ``degrade`` a horizontal union drops the fragment, a join raises."""

    def _degrading(self):
        return ParallelDispatcher(
            retries=0, failure_policy=DEGRADE, sleep=lambda s: None
        )

    def test_semijoin_missing_its_key_lane_raises(self):
        partix = _vertical_partix(self._degrading())
        # Without the body's keys *every* title would be the answer.
        query = (
            'for $a in collection("Cpapers")/article'
            ' where contains($a/body/abstract, "novel")'
            " return $a/prolog/title/text()"
        )
        assert partix.explain(query, "Cpapers").key_lanes
        partix.cluster.site("site1").driver = _DeadDriver()  # F2papers
        with pytest.raises(DispatchError) as info:
            partix.execute(query, collection="Cpapers")
        assert [failure.fragment for failure in info.value.failures] == ["F2papers"]

    def test_semijoin_missing_its_answer_lane_only_degrades(self):
        partix = _vertical_partix(self._degrading())
        query = (
            'for $a in collection("Cpapers")/article'
            ' where $a/prolog/genre != "none" return $a/body/abstract/text()'
        )
        assert partix.explain(query, "Cpapers").key_lanes
        partix.cluster.site("site1").driver = _DeadDriver()  # F2papers answers
        result = partix.execute(query, collection="Cpapers")
        assert result.result_text == ""
        assert any("degraded" in note for note in result.notes)

    def test_reconstruction_missing_an_input_raises(self):
        partix = _vertical_partix(self._degrading())
        query = (
            'for $a in collection("Cpapers")/article'
            ' where not(contains($a/body/abstract, "novel"))'
            " return $a/prolog/title/text()"
        )
        assert partix.explain(query, "Cpapers").composition.kind == "reconstruct"
        partix.cluster.site("site1").driver = _DeadDriver()
        with pytest.raises(DispatchError) as info:
            partix.execute(query, collection="Cpapers")
        assert [failure.fragment for failure in info.value.failures] == ["F2papers"]

    def test_horizontal_union_still_drops_the_fragment(self):
        partix, collection = _replicated_partix(dispatcher=self._degrading())
        partix.cluster.site("site0").driver = _DeadDriver()
        partix.cluster.site("mirror").driver = _DeadDriver()
        result = partix.execute(_item_query(collection), collection=collection.name)
        assert result.result_text
        assert any("degraded" in note for note in result.notes)


class TestTcpFailover:
    def test_killed_tcp_replica_fails_over_byte_identical(self):
        partix, collection = _replicated_partix()
        query = _item_query(collection)
        central = partix.execute_centralized(
            _count_query(collection), "central"
        ).result_text
        partix.start_tcp()
        try:
            healthy = partix.execute(
                query, collection=collection.name, execution_mode="tcp"
            )
            victim = healthy.round.executions[0].site
            assert victim != "mirror"

            # The server process dies while the coordinator holds pooled
            # sockets to it — the retry discovers the corpse mid-use.
            partix.tcp.kill(victim)
            result = partix.execute(
                query, collection=collection.name, execution_mode="tcp"
            )
            assert result.result_text == healthy.result_text
            assert result.failover_count >= 1
            assert any(e.site == "mirror" for e in result.round.executions)
            assert not any("degraded" in note for note in result.notes)

            counted = partix.execute(
                _count_query(collection),
                collection=collection.name,
                execution_mode="tcp",
            )
            assert counted.result_text == central
        finally:
            partix.stop_tcp()

    def test_all_tcp_replicas_dead_fail_fast_raises(self):
        partix, collection = _replicated_partix()
        partix.start_tcp()
        try:
            partix.tcp.kill("site0")
            partix.tcp.kill("mirror")
            with pytest.raises(DispatchError):
                partix.execute(
                    _item_query(collection),
                    collection=collection.name,
                    execution_mode="tcp",
                )
        finally:
            partix.stop_tcp()

    def test_tcp_transport_ping_tracks_liveness(self):
        partix, _ = _replicated_partix()
        tcp = partix.start_tcp()
        try:
            transport = tcp.transport()
            assert transport.ping("site0")
            assert not transport.ping("nonexistent")
            tcp.kill("site0")
            assert not transport.ping("site0")
        finally:
            partix.stop_tcp()


class TestKillSiteFuzzMode:
    def test_kill_site_oracle_converges_through_the_replica(self):
        from repro.fuzz.generator import spec_for_iteration
        from repro.fuzz.runner import run_case

        spec = spec_for_iteration(20060807, 0)
        outcome = run_case(spec, modes=("simulated", "tcp"), kill_site=True)
        assert outcome.ok, [m.detail for m in outcome.mismatches]
        assert any("killed tcp site" in note for note in outcome.notes)
        failover_notes = [
            note
            for note in outcome.notes
            if note.startswith("replica failovers observed:")
        ]
        assert failover_notes, outcome.notes

    def test_kill_site_requires_a_tcp_mode(self):
        from repro.fuzz.generator import spec_for_iteration
        from repro.fuzz.runner import run_case

        with pytest.raises(ValueError, match="tcp"):
            run_case(
                spec_for_iteration(20060807, 0),
                modes=("simulated",),
                kill_site=True,
            )
