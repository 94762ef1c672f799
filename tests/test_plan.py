"""Plan IR tests: logical shapes, lowering, EXPLAIN, execution modes.

The decomposer emits a logical plan (what happens), lowering commits it
to sites with the cost model (where it happens), and the physical plan
is what ``Partix.explain`` renders and the single executor runs. These
tests pin the plan *shapes* per fragmentation kind and the mode parser's
contract; end-to-end answer equivalence lives in test_integration.py.
"""

import json

import pytest

from repro.cluster import Cluster
from repro.partix import (
    CompositionSpec,
    DataPublisher,
    FragmentationSchema,
    HorizontalFragment,
    QueryDecomposer,
    SubQuery,
    VerticalFragment,
    annotated,
)
from repro.paths import eq, ne
from repro.plan import (
    Compose,
    ExecutionMode,
    FragmentScan,
    IdJoin,
    MergeAggregate,
    PartialAggregate,
    Union,
    lower,
    plan_from_dict,
)


def _publish(collection, design, sites=4):
    cluster = Cluster.with_sites(sites)
    publisher = DataPublisher(cluster)
    publisher.publish(collection, design)
    return QueryDecomposer(publisher.catalog)


@pytest.fixture
def horizontal(items_collection):
    design = FragmentationSchema("Citems", [
        HorizontalFragment("F_cd", "Citems", predicate=eq("/Item/Section", "CD")),
        HorizontalFragment("F_dvd", "Citems", predicate=eq("/Item/Section", "DVD")),
        HorizontalFragment("F_rest", "Citems", predicate=(
            ne("/Item/Section", "CD") & ne("/Item/Section", "DVD"))),
    ], root_label="Item")
    return _publish(items_collection, design)


@pytest.fixture
def vertical(papers_collection):
    design = FragmentationSchema("Cpapers", [
        VerticalFragment("F_prolog", "Cpapers", path="/article/prolog"),
        VerticalFragment("F_body", "Cpapers", path="/article/body"),
        VerticalFragment("F_epilog", "Cpapers", path="/article/epilog"),
    ], root_label="article")
    return _publish(papers_collection, design)


class TestLogicalShapes:
    def test_concat_is_compose_union_of_scans(self, horizontal):
        logical = horizontal.decompose_logical(
            'for $i in collection("Citems")/Item return $i/Code/text()'
        )
        assert isinstance(logical.root, Compose)
        assert isinstance(logical.root.child, Union)
        scans = logical.scans()
        assert [scan.fragment for scan in scans] == ["F_cd", "F_dvd", "F_rest"]
        assert all(isinstance(scan, FragmentScan) for scan in scans)
        assert all(scan.purpose == "answer" for scan in scans)

    def test_aggregate_is_merge_of_partials(self, horizontal):
        logical = horizontal.decompose_logical(
            'count(for $i in collection("Citems")/Item return $i)'
        )
        merge = logical.root.child
        assert isinstance(merge, MergeAggregate)
        assert merge.op == "count"
        assert all(
            isinstance(partial, PartialAggregate) and partial.op == "count"
            for partial in merge.children
        )
        assert len(merge.children) == 3

    def test_all_fragments_pruned_keeps_shape_with_zero_scans(self, horizontal):
        logical = horizontal.decompose_logical(
            'for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" and $i/Section = "DVD" return $i'
        )
        assert isinstance(logical.root.child, Union)
        assert logical.scans() == []
        plan = lower(logical)
        assert plan.lanes == []
        assert plan.subqueries == []
        assert plan.estimated_parallel_seconds == 0.0
        # The empty plan still renders: header plus compose/union nodes.
        rendered = plan.render()
        assert "lanes=0" in rendered
        assert "union" in rendered

    def test_single_fragment_vertical_rewrite(self, vertical):
        logical = vertical.decompose_logical(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/prolog/title, "x")'
            " return $a/prolog/title/text()"
        )
        assert isinstance(logical.root.child, Union)
        (scan,) = logical.scans()
        assert scan.fragment == "F_prolog"
        # Every candidate carries the sub-query rewritten for that
        # replica's stored collection and the fragment-local path shape.
        for candidate in scan.candidates:
            assert f'collection("{candidate.stored_collection}")' in candidate.query
        plan = lower(logical)
        assert plan.fragment_names == ["F_prolog"]
        assert plan.composition.kind == "concat"
        assert "scan F_prolog" in plan.render()

    def test_multi_fragment_id_join_shape(self, vertical):
        logical = vertical.decompose_logical(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/body/abstract, "novel") return $a'
        )
        join = logical.root.child
        assert isinstance(join, IdJoin)
        assert join.root_label == "article"
        fetched = {scan.fragment for scan in join.children}
        assert fetched == {"F_prolog", "F_body", "F_epilog"}
        assert all(scan.purpose == "fetch" for scan in join.children)
        plan = lower(logical)
        assert plan.composition.kind == "reconstruct"
        rendered = plan.render()
        assert "id-join root=article" in rendered
        assert "purpose=fetch" in rendered


class TestLowering:
    def test_lanes_mirror_scan_order_with_estimates(self, horizontal):
        plan = horizontal.decompose(
            'for $i in collection("Citems")/Item return $i/Code/text()'
        )
        assert [lane.index for lane in plan.lanes] == [0, 1, 2]
        assert [lane.node_id for lane in plan.lanes] == ["scan0", "scan1", "scan2"]
        for lane in plan.lanes:
            assert lane.estimate is not None
            assert lane.estimate.total_seconds > 0.0
        assert plan.estimated_parallel_seconds > 0.0
        assert set(plan.estimated_lane_seconds()) == {"scan0", "scan1", "scan2"}

    def test_aggregate_pushdown_estimates_scalar_results(self, horizontal):
        plan = horizontal.decompose(
            'count(for $i in collection("Citems")/Item return $i)'
        )
        # A pushed-down partial returns one scalar, not the fragment's
        # bytes — the cost model must reflect that in every lane.
        for lane in plan.lanes:
            assert lane.estimate.result_bytes <= 64
        rendered = plan.render()
        assert "merge-aggregate(count)" in rendered
        assert "partial-aggregate(count)" in rendered

    def test_annotated_lowering_keeps_given_sites(self, horizontal):
        subqueries = [
            SubQuery(
                fragment="F_cd",
                site="site3",
                collection="F_cd",
                query='collection("F_cd")/Item/Code/text()',
            )
        ]
        plan = annotated("Citems", subqueries, CompositionSpec(kind="concat"))
        (lane,) = plan.lanes
        assert lane.subquery.site == "site3"
        assert lane.candidates == 1
        assert "scan F_cd @ site3/F_cd" in plan.render()

    def test_a_plan_carries_no_execution_attributes(self, horizontal):
        logical = horizontal.decompose_logical(
            'for $i in collection("Citems")/Item return $i/Code/text()'
        )
        with pytest.raises(TypeError):
            lower(logical, streaming=True)
        with pytest.raises(TypeError):
            lower(logical, chunk_bytes=512)
        plan = lower(logical)
        assert not hasattr(plan, "streaming")
        assert not hasattr(plan, "chunk_bytes")
        assert "streaming" not in plan.render()
        # Kept for benchmarks/e2e/tracing.py only: a no-op.
        assert plan.with_execution(streaming=True, chunk_bytes=512) is plan


class TestExplainStability:
    QUERIES = [
        'for $i in collection("Citems")/Item return $i/Code/text()',
        'count(for $i in collection("Citems")/Item return $i)',
        'for $i in collection("Citems")/Item'
        ' where $i/Section = "CD" return $i/Name/text()',
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_planning_is_deterministic(self, horizontal, query):
        first = horizontal.decompose(query)
        second = horizontal.decompose(query)
        assert first.render() == second.render()
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("query", QUERIES)
    def test_explain_round_trips_through_json(self, horizontal, query):
        plan = horizontal.decompose(query)
        payload = json.loads(json.dumps(plan.to_dict()))
        restored = plan_from_dict(payload)
        assert restored.render() == plan.render()
        assert [sq.site for sq in restored.subqueries] == [
            sq.site for sq in plan.subqueries
        ]


    def test_a_stored_plan_still_carrying_a_shard_degree_loads(self, horizontal):
        # Plans serialized before the shard pipeline went may carry
        # ``parallel_degree`` on a lane and its scan node: ignored.
        plan = horizontal.decompose(self.QUERIES[0])
        payload = json.loads(json.dumps(plan.to_dict()))
        payload["lanes"][0]["subquery"]["parallel_degree"] = 2
        payload["root"]["children"][0]["children"][0]["detail"][
            "parallel_degree"
        ] = 2
        restored = plan_from_dict(payload)
        assert restored.subqueries == plan.subqueries
        assert restored.render() == plan.render()

    def test_a_stored_plan_still_carrying_streaming_keys_loads(self, horizontal):
        # Plans serialized while a plan recorded ``streaming`` and
        # ``chunk_bytes`` still carry the keys: ignored.
        plan = horizontal.decompose(self.QUERIES[0])
        payload = json.loads(json.dumps(plan.to_dict()))
        assert "streaming" not in payload and "chunk_bytes" not in payload
        payload["streaming"] = True
        payload["chunk_bytes"] = 512
        restored = plan_from_dict(payload)
        assert restored.subqueries == plan.subqueries
        assert restored.render() == plan.render()


class TestExecutionMode:
    def test_registry_covers_public_modes(self):
        assert ExecutionMode.names() == ("simulated", "threads", "tcp")

    def test_simulated_is_serial_in_process(self):
        mode = ExecutionMode.parse("simulated")
        assert (mode.transport, mode.concurrent) == ("in-process", False)

    def test_tcp_stream_is_a_spelling_of_tcp(self):
        # benchmarks/e2e still spells the mode "tcp-stream" and reads
        # ``.streaming`` off it; nothing is selected by either.
        assert ExecutionMode.parse("tcp-stream") is ExecutionMode.parse("tcp")
        assert ExecutionMode.parse("tcp").streaming is False

    def test_parse_takes_no_streaming_flag(self):
        with pytest.raises(TypeError):
            ExecutionMode.parse("threads", streaming=True)

    def test_invalid_mode_lists_valid_names(self):
        with pytest.raises(ValueError) as excinfo:
            ExecutionMode.parse("turbo")
        message = str(excinfo.value)
        assert "'turbo'" in message
        for name in ExecutionMode.names():
            assert repr(name) in message
