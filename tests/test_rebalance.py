"""The online-rebalancing battery: Rebalancer, RebalanceAction, QueryLog.

The core property mirrors the fuzz ``--migrate`` oracle: every
migration — split, move, promote, replicate, merge — must preserve
query answers across the catalog swap. Answers are byte-identical
except where a split legitimately reorders a multi-fragment
concatenation, in which case the line multiset must match.
"""

import threading

import pytest

from repro.cluster.site import Cluster
from repro.datamodel import Collection, doc, elem
from repro.coordinate import Coordinator, CoordinatorClient
from repro.errors import CatalogContention, RebalanceError
from repro.net.protocol import FrameType
from repro.partix.fragments import FragmentationSchema, HorizontalFragment
from repro.partix.middleware import Partix
from repro.paths import eq, ne
from repro.plan.cache import PlanCache
from repro.rebalance import QueryLog, RebalanceAction, Rebalancer
from repro.workloads.queries import items_queries
from repro.workloads.virtual_store import (
    build_items_collection,
    items_horizontal_fragmentation,
)
from repro.xmltext.serializer import serialize


def _published_partix(fragment_count=2, item_count=24, sites=4, **kwargs):
    collection = build_items_collection(item_count, kind="small", seed=11)
    cluster = Cluster.with_sites(sites)
    partix = Partix(cluster, **kwargs)
    partix.publish(collection, items_horizontal_fragmentation(fragment_count))
    return partix, collection


def _baselines(partix, collection):
    """qid -> (query text, serial answer) before any migration."""
    return {
        query.qid: (
            query.text,
            partix.execute(
                query.text,
                collection=collection.name,
                execution_mode="simulated",
            ).result_text,
        )
        for query in items_queries(collection.name)
    }


def _assert_answers_preserved(partix, collection, baselines):
    for qid, (text, expected) in baselines.items():
        actual = partix.execute(
            text, collection=collection.name, execution_mode="simulated"
        ).result_text
        if actual != expected:
            assert sorted(actual.splitlines()) == sorted(
                expected.splitlines()
            ), f"{qid} diverged beyond reordering"


def _fill_log(partix, collection, repetitions=3):
    """Execute the bench workload and record it like the coordinator."""
    log = QueryLog()
    catalog = partix.distribution_catalog
    for _ in range(repetitions):
        for query in items_queries(collection.name):
            result = partix.execute(
                query.text,
                collection=collection.name,
                execution_mode="simulated",
            )
            log.record_result(
                query.text,
                collection.name,
                result,
                elapsed_seconds=0.01,
                catalog_version=catalog.version,
            )
    return log


class TestSplit:
    def test_split_preserves_answers_and_bumps_version(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        catalog = partix.distribution_catalog
        version = catalog.version

        report = Rebalancer(partix).split(collection.name, "F1")

        assert report.completed
        assert report.kind == "split"
        assert report.catalog_version_before == version
        assert catalog.version > version
        assert report.catalog_version_after == catalog.version
        design = catalog.fragmentation(collection.name)
        names = design.fragment_names()
        assert "F1" not in names
        for child in report.new_fragments:
            assert child in names
        _assert_answers_preserved(partix, collection, baselines)

    def test_split_halves_are_both_non_empty(self):
        partix, collection = _published_partix()
        catalog = partix.distribution_catalog
        parent_docs = catalog.statistics(
            collection.name, "F1", catalog.allocation(collection.name, "F1").site
        ).documents

        report = Rebalancer(partix).split(collection.name, "F1")

        assert report.documents_moved == parent_docs
        assert report.split_path == "/Item/Section"
        assert report.split_values
        for child in report.new_fragments:
            primary = catalog.allocation(collection.name, child)
            stats = catalog.statistics(collection.name, child, primary.site)
            assert stats is not None and stats.documents >= 1

    def test_split_infers_its_boundary_from_the_stored_tables(self):
        # F_cd's documents agree on the predicate's own path, so the
        # boundary must be inferred from the leaf children of the roots —
        # read off the node tables, the only form the source site holds.
        documents = [
            doc(
                elem(
                    "Item",
                    elem("Code", f"I{i}"),
                    elem("Section", "CD" if i < 6 else "DVD"),
                    elem("Shelf", "north" if i % 2 else "süd"),
                ),
                name=f"i{i}.xml",
            )
            for i in range(8)
        ]
        design = FragmentationSchema(
            "C",
            [
                HorizontalFragment("F_cd", "C", predicate=eq("/Item/Section", "CD")),
                HorizontalFragment("F_rest", "C", predicate=ne("/Item/Section", "CD")),
            ],
            root_label="Item",
        )
        partix = Partix(Cluster.with_sites(3))
        partix.publish(Collection("C", documents), design)
        catalog = partix.distribution_catalog
        source = catalog.allocation("C", "F_cd")
        held = partix.cluster.site(source.site).driver.engine.store.collection(
            source.stored_collection
        )
        before = {
            name: serialize(held.get(name).binary.root) for name in held.names()
        }
        assert not any(hasattr(held.get(name), "data") for name in before)
        query = 'for $i in collection("C")/Item return $i/Shelf'
        expected = partix.execute(query, collection="C").result_text

        report = Rebalancer(partix).split("C", "F_cd")

        assert report.completed and report.split_path == "/Item/Code"
        moved = {}
        for child in report.new_fragments:
            placed = catalog.allocation("C", child)
            stored = partix.cluster.site(placed.site).driver.engine.store.collection(
                placed.stored_collection
            )
            moved.update(
                (name, serialize(stored.get(name).binary.root))
                for name in stored.names()
            )
        assert moved == before
        actual = partix.execute(query, collection="C").result_text
        assert sorted(actual.splitlines()) == sorted(expected.splitlines())

    def test_split_respects_explicit_target_sites(self):
        partix, collection = _published_partix()
        report = Rebalancer(partix).split(
            collection.name, "F1", target_sites=("site2", "site3")
        )
        catalog = partix.distribution_catalog
        assert report.target_sites == ["site2", "site3"]
        placed = {
            catalog.allocation(collection.name, child).site
            for child in report.new_fragments
        }
        assert placed == {"site2", "site3"}

    def test_split_invalidates_cached_plans_via_version_bump(self):
        partix, collection = _published_partix(plan_cache=PlanCache())
        query = items_queries(collection.name)[0].text
        baseline = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        ).result_text

        Rebalancer(partix).split(collection.name, "F1")
        after = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )

        assert after.result_text == baseline
        # The replan saw the new design: no lane scans the dead parent.
        assert all(
            execution.fragment != "F1"
            for execution in after.round.executions
        )

    def test_split_unknown_fragment_raises_typed_error(self):
        partix, collection = _published_partix()
        with pytest.raises(RebalanceError):
            Rebalancer(partix).split(collection.name, "nope")

    def test_split_needs_exactly_two_targets(self):
        partix, collection = _published_partix()
        with pytest.raises(RebalanceError, match="exactly 2 target sites"):
            Rebalancer(partix).split(
                collection.name, "F1", target_sites=("site2",)
            )


class TestMoveAndReplicate:
    def test_move_re_places_the_primary(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        catalog = partix.distribution_catalog
        version = catalog.version

        report = Rebalancer(partix).move(collection.name, "F1", "site2")

        assert report.completed and report.kind == "move"
        assert catalog.allocation(collection.name, "F1").site == "site2"
        assert catalog.version > version
        assert report.documents_moved > 0
        _assert_answers_preserved(partix, collection, baselines)

    def test_move_to_replica_site_promotes_without_copying(self):
        partix, collection = _published_partix()
        rebalancer = Rebalancer(partix)
        rebalancer.replicate(collection.name, "F1", "site3")

        report = rebalancer.move(collection.name, "F1", "site3")

        assert report.kind == "promote"
        assert report.documents_moved == 0
        catalog = partix.distribution_catalog
        assert catalog.allocation(collection.name, "F1").site == "site3"

    def test_move_to_current_primary_rejected(self):
        partix, collection = _published_partix()
        primary = partix.distribution_catalog.allocation(
            collection.name, "F1"
        ).site
        with pytest.raises(RebalanceError, match="already primary"):
            Rebalancer(partix).move(collection.name, "F1", primary)

    def test_replicate_adds_a_replica_and_preserves_answers(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        report = Rebalancer(partix).replicate(collection.name, "F1", "site3")

        assert report.completed and report.kind == "replicate"
        replicas = partix.distribution_catalog.replicas(
            collection.name, "F1"
        )
        assert [r.site for r in replicas][-1] == "site3"
        _assert_answers_preserved(partix, collection, baselines)

    def test_replicate_duplicate_site_rejected(self):
        partix, collection = _published_partix()
        rebalancer = Rebalancer(partix)
        rebalancer.replicate(collection.name, "F1", "site3")
        with pytest.raises(RebalanceError, match="already has a replica"):
            rebalancer.replicate(collection.name, "F1", "site3")


class TestMerge:
    def test_merge_fuses_two_siblings(self):
        partix, collection = _published_partix(fragment_count=4)
        baselines = _baselines(partix, collection)
        catalog = partix.distribution_catalog
        before = len(catalog.fragmentation(collection.name).fragments)

        report = Rebalancer(partix).merge(collection.name, "F1", "F2")

        assert report.completed and report.kind == "merge"
        design = catalog.fragmentation(collection.name)
        assert len(design.fragments) == before - 1
        assert "F1" not in design.fragment_names()
        assert "F2" not in design.fragment_names()
        assert report.new_fragments[0] in design.fragment_names()
        _assert_answers_preserved(partix, collection, baselines)

    def test_apply_merge_without_partner_rejected(self):
        partix, collection = _published_partix(fragment_count=4)
        action = RebalanceAction(
            kind="merge", collection=collection.name, fragment="F1"
        )
        with pytest.raises(RebalanceError, match="partner fragment"):
            Rebalancer(partix).apply(action)

    def test_apply_unknown_kind_rejected(self):
        partix, collection = _published_partix()
        action = RebalanceAction(
            kind="defragment", collection=collection.name, fragment="F1"
        )
        with pytest.raises(RebalanceError, match="unknown rebalance action"):
            Rebalancer(partix).apply(action)


class TestQueryLog:
    def test_ring_buffer_bounds_and_counts(self):
        log = QueryLog(capacity=3)
        partix, collection = _published_partix()
        result = partix.execute(
            "doc('i')", collection=collection.name, execution_mode="simulated"
        )
        for index in range(5):
            log.record_result(
                f"q{index}", collection.name, result, 0.01, catalog_version=1
            )
        assert len(log) == 3
        assert log.stats_payload()["recorded"] == 5
        assert [e.query for e in log.entries()] == ["q2", "q3", "q4"]

    def test_record_result_builds_lane_observations(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection, repetitions=1)
        lanes = [
            lane
            for entry in log.entries(collection.name)
            for lane in entry.lanes
        ]
        assert lanes, "executions should become lane observations"
        for lane in lanes:
            assert lane.site and lane.fragment
            assert lane.result_bytes >= 0

    def test_stats_payload_counts_distinct_queries(self):
        partix, collection = _published_partix()
        log = _fill_log(partix, collection, repetitions=2)
        payload = log.stats_payload()
        assert payload["entries"] == 2 * len(items_queries(collection.name))
        assert payload["distinct_queries"] == len(
            items_queries(collection.name)
        )
        assert payload["busiest_sites"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryLog(capacity=0)


class TestRebalanceAction:
    def test_action_round_trips_through_dict(self):
        action = RebalanceAction(
            kind="split",
            collection="C",
            fragment="F1",
            target_sites=("a", "b"),
            split_path="/Item/Section",
        )
        assert RebalanceAction.from_dict(action.to_dict()) == action


class TestCoordinatorRebalanceFrames:
    def _serve(self, partix):
        return Coordinator(
            partix, execution_mode="threads", max_active=4, queue_limit=64
        ).serve_in_thread()

    def _client(self, coordinator):
        return CoordinatorClient(
            coordinator.host, coordinator.port, site="test"
        )

    def test_rebalance_over_the_wire(self):
        partix, collection = _published_partix()
        baselines = _baselines(partix, collection)
        coordinator = self._serve(partix)
        client = None
        try:
            client = self._client(coordinator)
            for qid, (text, expected) in baselines.items():
                payload = client.query(text, collection=collection.name)
                assert payload["result_text"] == expected, qid
            version = partix.distribution_catalog.version

            action = RebalanceAction(
                kind="split", collection=collection.name, fragment="F1"
            ).to_dict()
            reply = client.rebalance(action=action, read_timeout=60.0)
            assert reply["report"]["completed"]
            assert reply["catalog_version"] > version
            assert reply["action"] == action

            for qid, (text, expected) in baselines.items():
                payload = client.query(text, collection=collection.name)
                actual = payload["result_text"]
                if actual != expected:
                    assert sorted(actual.splitlines()) == sorted(
                        expected.splitlines()
                    ), qid
        finally:
            if client is not None:
                client.close()
            coordinator.close()

    def test_rebalance_without_an_action_is_refused(self):
        partix, collection = _published_partix()
        coordinator = self._serve(partix)
        client = None
        try:
            client = self._client(coordinator)
            with pytest.raises(RebalanceError, match="needs an action"):
                client.call(
                    FrameType.REBALANCE, {"collection": collection.name}
                )
        finally:
            if client is not None:
                client.close()
            coordinator.close()

    def test_rebalance_with_bogus_action_raises_typed_error(self):
        partix, collection = _published_partix()
        coordinator = self._serve(partix)
        client = None
        try:
            client = self._client(coordinator)
            action = RebalanceAction(
                kind="defragment", collection=collection.name, fragment="F1"
            ).to_dict()
            with pytest.raises(RebalanceError, match="unknown"):
                client.rebalance(action=action)
        finally:
            if client is not None:
                client.close()
            coordinator.close()

    @pytest.mark.parametrize(
        "action, message",
        [
            ({"kind": "move", "fragment": "F1"}, "target site"),
            ({"kind": "replicate", "fragment": "F1"}, "target site"),
            ({"fragment": "F1", "target_sites": ["site3"]}, "kind"),
            ({"kind": "split", "collection": None}, "collection, fragment"),
            ({"kind": "split"}, "fragment"),
            ({"kind": "move", "target_sites": ["site3"]}, "fragment"),
        ],
    )
    def test_malformed_actions_raise_typed_errors_over_the_wire(
        self, action, message
    ):
        # Refused as RebalanceError, not as an IndexError / KeyError from
        # inside the handler; the placement is untouched.
        partix, collection = _published_partix()
        coordinator = self._serve(partix)
        client = None
        version = partix.distribution_catalog.version
        try:
            client = self._client(coordinator)
            with pytest.raises(RebalanceError, match=message):
                client.rebalance(
                    action={"collection": collection.name, **action}
                )
        finally:
            if client is not None:
                client.close()
            coordinator.close()
        assert partix.distribution_catalog.version == version


class _ChurningCatalog:
    """Delegates to a real catalog but reports a new version per read —
    the shape of a replace/rebalance storm racing the planner."""

    def __init__(self, inner):
        self._inner = inner
        self._reads = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def version(self):
        self._reads += 1
        return self._inner.version + self._reads


class TestPlanRetryBound:
    def test_catalog_contention_is_typed_and_bounded(self):
        partix, collection = _published_partix(plan_cache=PlanCache())
        query = items_queries(collection.name)[0].text
        partix.distribution_catalog = _ChurningCatalog(
            partix.distribution_catalog
        )
        with pytest.raises(CatalogContention, match="consecutive planning"):
            partix.execute(
                query, collection=collection.name, execution_mode="simulated"
            )

    def test_settled_catalog_plans_normally_through_the_cache(self):
        partix, collection = _published_partix(plan_cache=PlanCache())
        query = items_queries(collection.name)[0].text
        first = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        second = partix.execute(
            query, collection=collection.name, execution_mode="simulated"
        )
        assert first.result_text == second.result_text
        assert partix.plan_cache.stats()["hits"] >= 1
