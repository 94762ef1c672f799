"""Unit tests for the Partix middleware facade and cluster accounting."""

import gc
import threading
import time

import pytest

from repro.cluster import (
    Cluster,
    NetworkModel,
    ParallelDispatcher,
    ParallelRound,
    Site,
    SubQueryExecution,
)
from repro.engine.stats import QueryResult
from repro.errors import ClusterError
from repro.partix import (
    CompositionSpec,
    FragmentationSchema,
    HorizontalFragment,
    Partix,
    SubQuery,
    annotated,
)
from repro.paths import eq, ne
from tests.lane_threads import lane_threads as _lane_threads


@pytest.fixture
def partix(items_collection):
    cluster = Cluster.with_sites(2)
    cluster.add(Site("central"))
    px = Partix(cluster)
    design = FragmentationSchema("Citems", [
        HorizontalFragment("F_cd", "Citems", predicate=eq("/Item/Section", "CD")),
        HorizontalFragment("F_rest", "Citems", predicate=ne("/Item/Section", "CD")),
    ], root_label="Item")
    px.publish(items_collection, design)
    px.publish_centralized(items_collection, "central")
    return px


class TestCluster:
    def test_with_sites(self):
        cluster = Cluster.with_sites(3)
        assert cluster.site_names() == ["site0", "site1", "site2"]
        assert len(cluster) == 3
        assert "site1" in cluster

    def test_duplicate_site_rejected(self):
        cluster = Cluster.with_sites(1)
        with pytest.raises(ClusterError):
            cluster.add(Site("site0"))

    def test_unknown_site(self):
        with pytest.raises(ClusterError):
            Cluster().site("nope")


class TestParallelRound:
    def _execution(self, site, elapsed, size=10):
        result = QueryResult(
            items=[], result_text="x" * size, result_bytes=size,
            elapsed_seconds=elapsed, parse_seconds=0, documents_parsed=0,
            bytes_parsed=0, documents_scanned=0, documents_pruned=0,
        )
        return SubQueryExecution(site, "F", "q", result)

    def test_parallel_is_slowest_site(self):
        round_ = ParallelRound([
            self._execution("s0", 0.5),
            self._execution("s1", 0.2),
        ])
        assert round_.parallel_seconds == 0.5
        assert round_.sequential_seconds == pytest.approx(0.7)

    def test_same_site_work_serializes(self):
        round_ = ParallelRound([
            self._execution("s0", 0.3),
            self._execution("s0", 0.4),
            self._execution("s1", 0.5),
        ])
        assert round_.parallel_seconds == pytest.approx(0.7)

    def test_result_sizes(self):
        round_ = ParallelRound([
            self._execution("s0", 0.1, 5),
            self._execution("s1", 0.1, 7),
        ])
        assert round_.result_sizes == [5, 7]
        assert round_.total_result_bytes == 12


class TestNetworkModel:
    def test_transfer_time(self):
        network = NetworkModel(bandwidth_bits_per_second=1e9, latency_seconds=0)
        assert network.transfer_seconds(125_000_000) == pytest.approx(1.0)

    def test_gather_serializes_results(self):
        network = NetworkModel(bandwidth_bits_per_second=1e9, latency_seconds=0)
        one = network.gather_seconds([125_000_000])
        two = network.gather_seconds([125_000_000, 125_000_000])
        assert two == pytest.approx(2 * one)

    def test_free_network(self):
        from repro.cluster import FREE_NETWORK

        assert FREE_NETWORK.gather_seconds([10 ** 9]) == 0.0

    def test_gather_charges_real_query_sizes(self):
        """Regression: dispatch cost uses actual sub-query text sizes,
        not a fixed 256-byte guess per sub-query."""
        network = NetworkModel(bandwidth_bits_per_second=1e9, latency_seconds=0)
        small = network.gather_seconds([0, 0], query_sizes=[100, 100])
        large = network.gather_seconds([0, 0], query_sizes=[10_000, 30_000])
        assert large == pytest.approx(200 * small)
        # Without explicit sizes the legacy fallback still applies.
        legacy = network.gather_seconds([0], query_bytes=256)
        assert legacy == pytest.approx(network.transfer_seconds(256) * 1)

    def test_middleware_transmission_uses_plan_query_sizes(self, partix):
        query = 'count(collection("Citems")/Item)'
        result = partix.execute(query)
        network = partix.network
        expected = network.gather_seconds(
            result.round.result_sizes,
            query_sizes=[
                len(sq.query.encode("utf-8")) for sq in result.plan.subqueries
            ],
        )
        assert result.transmission_seconds == pytest.approx(expected)
        # The fixed-guess estimate differs whenever the real sub-query
        # texts do not happen to be 256 bytes each.
        guessed = network.gather_seconds(result.round.result_sizes)
        sizes = [len(sq.query.encode()) for sq in result.plan.subqueries]
        if any(size != 256 for size in sizes):
            assert result.transmission_seconds != pytest.approx(guessed)


class TestExecution:
    def test_distributed_matches_centralized(self, partix):
        query = (
            'for $i in collection("Citems")/Item'
            ' where contains($i/Description, "good") return $i/Code/text()'
        )
        distributed = partix.execute(query)
        centralized = partix.execute_centralized(query, "central")
        assert sorted(distributed.result_text.split()) == sorted(
            centralized.result_text.split()
        )

    def test_aggregate_distributed(self, partix):
        query = 'count(collection("Citems")/Item)'
        assert partix.execute(query).result_text == "12"

    def test_timing_fields(self, partix):
        result = partix.execute('count(collection("Citems")/Item)')
        assert result.parallel_seconds > 0
        assert result.total_seconds > result.parallel_seconds
        assert result.sequential_seconds >= result.round.parallel_seconds

    def test_annotated_plan_execution(self, partix):
        plan = annotated(
            "Citems",
            [
                SubQuery("F_cd", "site0", "F_cd",
                         'count(collection("F_cd")/Item)'),
                SubQuery("F_rest", "site1", "F_rest",
                         'count(collection("F_rest")/Item)'),
            ],
            CompositionSpec(kind="aggregate", aggregate="count"),
        )
        result = partix.execute("count(...)", plan=plan)
        assert result.result_text == "12"

    def test_empty_plan_aggregate_identity(self, partix):
        result = partix.execute(
            'count(for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" and $i/Section = "DVD" return $i)'
        )
        assert result.result_text == "0"

    def test_notes_propagated(self, partix):
        result = partix.execute(
            'for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" return $i/Code/text()'
        )
        assert any("pruned" in note for note in result.notes)


class TestExplain:
    def test_explain_returns_plan_without_running(self, partix):
        plan = partix.explain(
            'for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" return $i/Name/text()'
        )
        assert plan.fragment_names == ["F_cd"]
        # No query reached any site.
        for site in partix.cluster.sites():
            assert site.driver.engine.stats.queries_executed == 0


ALL_ITEMS = 'for $i in collection("Citems")/Item return $i/Code'


def _all_ended(threads, within=10.0):
    deadline = time.monotonic() + within
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return not any(thread.is_alive() for thread in threads)


class TestLifetime:
    def test_simulated_mode_never_leaves_the_callers_thread(self, partix):
        idents = []
        for site in partix.cluster.sites():
            def execute(query, options=None, _inner=site.driver.execute):
                idents.append(threading.get_ident())
                return _inner(query, options)

            site.driver.execute = execute
        before = _lane_threads()
        first = partix.execute(ALL_ITEMS, collection="Citems")
        second = partix.execute(ALL_ITEMS, collection="Citems")
        assert second.result_text == first.result_text
        assert len(idents) == 4  # two fragments, two rounds
        assert set(idents) == {threading.get_ident()}
        assert _lane_threads() <= before

    def test_close_ends_the_lane_threads_and_the_instance_stays_usable(
        self, partix
    ):
        before = _lane_threads()
        first = partix.execute(
            ALL_ITEMS, collection="Citems", execution_mode="threads"
        )
        mine = _lane_threads() - before
        assert mine
        partix.close()
        assert not any(thread.is_alive() for thread in mine)
        partix.close()  # idempotent
        with partix as same:
            assert same is partix
            again = partix.execute(
                ALL_ITEMS, collection="Citems", execution_mode="threads"
            )
            assert again.result_text == first.result_text
            assert _lane_threads() - before
        assert _lane_threads() <= before

    def test_close_leaves_a_caller_supplied_dispatcher_running(
        self, items_collection
    ):
        dispatcher = ParallelDispatcher()
        before = _lane_threads()
        try:
            with Partix(Cluster.with_sites(2), dispatcher=dispatcher) as px:
                px.publish(
                    items_collection,
                    FragmentationSchema("Citems", [
                        HorizontalFragment(
                            "F_cd", "Citems",
                            predicate=eq("/Item/Section", "CD"),
                        ),
                        HorizontalFragment(
                            "F_rest", "Citems",
                            predicate=ne("/Item/Section", "CD"),
                        ),
                    ], root_label="Item"),
                )
                px.execute(
                    ALL_ITEMS, collection="Citems", execution_mode="threads"
                )
            mine = _lane_threads() - before
            assert mine and all(thread.is_alive() for thread in mine)
        finally:
            dispatcher.close()
        assert _lane_threads() <= before

    def test_an_unreachable_partix_gives_its_threads_back(self, partix):
        before = _lane_threads()
        partix.execute(
            ALL_ITEMS, collection="Citems", execution_mode="threads"
        )
        mine = _lane_threads() - before
        assert mine
        # A second middleware over the same repository that only this
        # test points at, used and never closed.
        lone = Partix(
            partix.cluster, distribution_catalog=partix.distribution_catalog
        )
        lone.execute(ALL_ITEMS, collection="Citems", execution_mode="threads")
        lone_threads = _lane_threads() - before - mine
        assert lone_threads
        del lone
        gc.collect()
        assert _all_ended(lone_threads)
        assert all(thread.is_alive() for thread in mine)  # still owned
        partix.close()
        assert not any(thread.is_alive() for thread in mine)


class TestSitesOwnIndexAccess:
    """Index access is each site's own setting: the plan renders plain
    scans, and every site reads the way it was configured, in every
    execution mode."""

    def test_mixed_sites_each_keep_their_setting(self, items_collection):
        cluster = Cluster([
            Site("indexed0"),
            Site("indexed1"),
            Site("scanning", use_indexes=False),
        ])
        design = FragmentationSchema("Citems", [
            HorizontalFragment("F_cd", "Citems", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F_dvd", "Citems", predicate=eq("/Item/Section", "DVD")),
            HorizontalFragment("F_rest", "Citems", predicate=(
                ne("/Item/Section", "CD") & ne("/Item/Section", "DVD"))),
        ], root_label="Item")
        query = (
            'for $i in collection("Citems")/Item'
            ' where contains($i/Description, "good") return $i/Code'
        )
        with Partix(cluster) as px:
            px.publish(items_collection, design)
            plan = px.explain(query, "Citems")
            assert plan.key_lanes == []
            assert [lane.node_id for lane in plan.lanes] == [
                "scan0", "scan1", "scan2"
            ]
            assert "index-scan" not in plan.render()
            assert "pred=" not in plan.render()
            px.start_tcp()
            answers = set()
            for mode in ("simulated", "threads", "tcp"):
                result = px.execute(query, "Citems", execution_mode=mode)
                answers.add(result.result_text)
                lookups = {
                    execution.site: execution.result.index_lookups
                    for execution in result.round.executions
                }
                assert set(lookups) == {"indexed0", "indexed1", "scanning"}
                assert lookups["indexed0"] > 0 and lookups["indexed1"] > 0
                assert lookups["scanning"] == 0, mode
            assert len(answers) == 1 and answers.pop().count("<Code>") == 3
