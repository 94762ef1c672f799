"""Integration tests: the three experiments end-to-end at tiny scale.

For every benchmark query of every experiment, the fragmented execution
must return the same answer as the centralized baseline — this is the
operational meaning of the §3.3 correctness rules.
"""

import pytest

from repro.bench.scenarios import CENTRAL_SITE, _result_signature
from repro.cluster import Cluster, Site
from repro.partix import FragMode, Partix
from repro.workloads import (
    build_items_collection,
    build_store_collection,
    build_xbench_collection,
    items_horizontal_fragmentation,
    items_queries,
    store_hybrid_fragmentation,
    store_queries,
    xbench_queries,
    xbench_vertical_fragmentation,
)


def make_partix(fragment_sites):
    cluster = Cluster.with_sites(fragment_sites)
    cluster.add(Site(CENTRAL_SITE))
    return Partix(cluster)


def assert_equivalent(partix, query):
    distributed = partix.execute(query.text)
    centralized = partix.execute_centralized(query.text, CENTRAL_SITE)
    assert _result_signature(distributed.result_text) == _result_signature(
        centralized.result_text
    ), f"{query.qid}: fragmented result differs\nplan notes: {distributed.notes}"
    return distributed


class TestHorizontalExperiment:
    @pytest.fixture(scope="class", params=[2, 4, 8])
    def setup(self, request):
        collection = build_items_collection(40, kind="small", seed=11)
        partix = make_partix(request.param)
        partix.publish(collection, items_horizontal_fragmentation(request.param))
        partix.publish_centralized(collection, CENTRAL_SITE)
        return partix

    @pytest.mark.parametrize("qid", [f"Q{i}" for i in range(1, 9)])
    def test_query_equivalence(self, setup, qid):
        query = {q.qid: q for q in items_queries()}[qid]
        assert_equivalent(setup, query)

    def test_matching_query_uses_single_fragment(self, setup):
        query = {q.qid: q for q in items_queries()}["Q2"]
        result = setup.execute(query.text)
        assert len(result.plan.subqueries) == 1


class TestVerticalExperiment:
    @pytest.fixture(scope="class")
    def setup(self):
        collection = build_xbench_collection(6, doc_bytes=4_000, seed=3)
        partix = make_partix(3)
        partix.publish(collection, xbench_vertical_fragmentation())
        partix.publish_centralized(collection, CENTRAL_SITE)
        return partix

    @pytest.mark.parametrize("qid", [f"Q{i}" for i in range(1, 11)])
    def test_query_equivalence(self, setup, qid):
        query = {q.qid: q for q in xbench_queries()}[qid]
        assert_equivalent(setup, query)

    def test_single_fragment_queries_avoid_join(self, setup):
        queries = {q.qid: q for q in xbench_queries()}
        for qid in ("Q1", "Q2", "Q3", "Q6"):
            result = setup.execute(queries[qid].text)
            assert result.plan.composition.kind != "reconstruct", qid
            assert len(result.plan.subqueries) == 1, qid

    def test_multi_fragment_queries_reconstruct(self, setup):
        # A filter in one fragment and a return from another is a
        # semi-join; only a return reading two fragments is rebuilt.
        queries = {q.qid: q for q in xbench_queries()}
        for qid in ("Q4", "Q8", "Q9"):
            result = setup.execute(queries[qid].text)
            assert result.plan.key_lanes, qid
            assert result.plan.composition.kind == "concat", qid
        result = setup.execute(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/body/abstract, "novel")'
            " return element hit {$a/prolog/title/text(), $a/epilog/country/text()}"
        )
        assert result.plan.composition.kind == "reconstruct"
        assert not result.plan.key_lanes


class TestHybridExperiment:
    @pytest.fixture(
        scope="class",
        params=[FragMode.INDEPENDENT_DOCUMENTS, FragMode.SINGLE_DOCUMENT],
        ids=["FragMode1", "FragMode2"],
    )
    def setup(self, request):
        collection = build_store_collection(40, seed=13)
        partix = make_partix(5)
        partix.publish(
            collection,
            store_hybrid_fragmentation(4),
            frag_mode=request.param,
        )
        partix.publish_centralized(collection, CENTRAL_SITE)
        return partix

    @pytest.mark.parametrize("qid", [f"Q{i}" for i in range(1, 12)])
    def test_query_equivalence(self, setup, qid):
        query = {q.qid: q for q in store_queries()}[qid]
        assert_equivalent(setup, query)

    def test_pruning_queries_hit_remainder_only(self, setup):
        queries = {q.qid: q for q in store_queries()}
        for qid in ("Q9", "Q10"):
            result = setup.execute(queries[qid].text)
            assert result.plan.fragment_names == ["F1"], qid

    def test_section_query_localizes(self, setup):
        queries = {q.qid: q for q in store_queries()}
        result = setup.execute(queries["Q2"].text)
        assert len(result.plan.subqueries) == 1


class TestLargeDocumentHorizontalExperiment:
    """ItemsLHor at tiny scale: equivalence holds for 80KB documents too."""

    @pytest.fixture(scope="class")
    def setup(self):
        collection = build_items_collection(6, kind="large", seed=19)
        partix = make_partix(2)
        partix.publish(collection, items_horizontal_fragmentation(2))
        partix.publish_centralized(collection, CENTRAL_SITE)
        return partix

    @pytest.mark.parametrize("qid", ["Q2", "Q4", "Q5", "Q7", "Q8"])
    def test_query_equivalence(self, setup, qid):
        query = {q.qid: q for q in items_queries()}[qid]
        assert_equivalent(setup, query)

    def test_large_items_have_picture_lists(self, setup):
        result = setup.execute(
            'count(for $i in collection("Citems")/Item'
            " where $i/PictureList return $i)"
        )
        assert result.result_text == "6"


class TestReplicatedExperiment:
    """Full replication across two sites still answers every query."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.partix import FragmentAllocation

        collection = build_items_collection(20, kind="small", seed=23)
        partix = make_partix(2)
        design = items_horizontal_fragmentation(4)
        allocations = [
            FragmentAllocation(name, site, name)
            for name in design.fragment_names()
            for site in ("site0", "site1")
        ]
        partix.publish(collection, design, allocations=allocations)
        partix.publish_centralized(collection, CENTRAL_SITE)
        return partix

    @pytest.mark.parametrize("qid", ["Q1", "Q2", "Q5", "Q8"])
    def test_query_equivalence(self, setup, qid):
        query = {q.qid: q for q in items_queries()}[qid]
        assert_equivalent(setup, query)

    def test_plan_balances_sites(self, setup):
        # Cost-based lane scheduling over fully replicated fragments:
        # the seed-23 collection is skewed (F1 holds 12 of 20 documents),
        # so the planner isolates the heavy fragment on one site and
        # packs the three light ones onto the other — a better projected
        # makespan than spreading by sub-query count.
        plan = setup.explain('count(collection("Citems")/Item)')
        sites = [sq.site for sq in plan.subqueries]
        assert set(sites) == {"site0", "site1"}
        heavy_site = next(
            sq.site for sq in plan.subqueries if sq.fragment == "F1"
        )
        assert sites.count(heavy_site) == 1
        busy: dict[str, float] = {}
        for lane in plan.lanes:
            busy[lane.subquery.site] = (
                busy.get(lane.subquery.site, 0.0)
                + lane.estimate.total_seconds
            )
        light_site = next(s for s in busy if s != heavy_site)
        # Greedy min-projected-busy: the light site's total stays under
        # the heavy fragment's cost (otherwise a lane would have moved).
        assert busy[light_site] <= busy[heavy_site]
