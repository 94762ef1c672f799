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
from repro.plan import CostModel, ExecutionMode, FragmentScan, lower, plan_from_dict
from repro.plan.spec import SubQueryTarget


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


def _tree(plan):
    """The EXPLAIN tree's lines without the header, notes and estimates."""
    return [
        line.split("  est[")[0]
        for line in plan.render().splitlines()[1:]
        if not line.startswith("note: ")
    ]


class TestLogicalShapes:
    def test_concat_is_compose_union_of_scans(self, horizontal):
        logical = horizontal.decompose_logical(
            'for $i in collection("Citems")/Item return $i/Code/text()'
        )
        assert logical.composition.kind == "concat"
        assert logical.key_scans == ()
        scans = logical.scans
        assert [scan.fragment for scan in scans] == ["F_cd", "F_dvd", "F_rest"]
        assert all(isinstance(scan, FragmentScan) for scan in scans)
        assert all(scan.purpose == "answer" for scan in scans)
        assert all(
            isinstance(candidate, SubQueryTarget)
            for scan in scans
            for candidate in scan.candidates
        )
        assert _tree(lower(logical)) == [
            "compose [concat]",
            "└─ union",
            "   ├─ scan F_cd @ site0/F_cd",
            "   ├─ scan F_dvd @ site1/F_dvd",
            "   └─ scan F_rest @ site2/F_rest",
        ]

    def test_aggregate_is_merge_of_partials(self, horizontal):
        logical = horizontal.decompose_logical(
            'count(for $i in collection("Citems")/Item return $i)'
        )
        assert logical.composition.kind == "aggregate"
        assert logical.composition.aggregate == "count"
        assert len(logical.scans) == 3
        assert _tree(lower(logical)) == [
            "compose [aggregate]",
            "└─ merge-aggregate(count)",
            "   ├─ partial-aggregate(count)",
            "   │  └─ scan F_cd @ site0/F_cd",
            "   ├─ partial-aggregate(count)",
            "   │  └─ scan F_dvd @ site1/F_dvd",
            "   └─ partial-aggregate(count)",
            "      └─ scan F_rest @ site2/F_rest",
        ]

    def test_all_fragments_pruned_keeps_shape_with_zero_scans(self, horizontal):
        logical = horizontal.decompose_logical(
            'for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" and $i/Section = "DVD" return $i'
        )
        assert logical.composition.kind == "concat"
        assert logical.scans == ()
        plan = lower(logical)
        assert plan.lanes == []
        assert plan.subqueries == []
        assert plan.estimated_parallel_seconds == 0.0
        # The empty plan still renders: header plus compose/union nodes.
        assert "lanes=0" in plan.render()
        assert _tree(plan) == ["compose [concat]", "└─ union"]

    def test_single_fragment_vertical_rewrite(self, vertical):
        logical = vertical.decompose_logical(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/prolog/title, "x")'
            " return $a/prolog/title/text()"
        )
        assert logical.composition.kind == "concat"
        (scan,) = logical.scans
        assert scan.fragment == "F_prolog"
        # Every candidate carries the sub-query rewritten for that
        # replica's stored collection and the fragment-local path shape.
        for candidate in scan.candidates:
            assert isinstance(candidate, SubQueryTarget)
            assert f'collection("{candidate.collection}")' in candidate.query
        plan = lower(logical)
        assert plan.fragment_names == ["F_prolog"]
        assert plan.composition.kind == "concat"
        assert _tree(plan) == [
            "compose [concat]",
            "└─ union",
            "   └─ scan F_prolog @ site0/F_prolog",
        ]

    def test_multi_fragment_id_join_shape(self, vertical):
        logical = vertical.decompose_logical(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/body/abstract, "novel") return $a'
        )
        assert logical.composition.kind == "reconstruct"
        assert logical.composition.root_label == "article"
        fetched = {scan.fragment for scan in logical.scans}
        assert fetched == {"F_prolog", "F_body", "F_epilog"}
        assert all(scan.purpose == "fetch" for scan in logical.scans)
        plan = lower(logical)
        assert plan.composition.kind == "reconstruct"
        assert _tree(plan) == [
            "compose [reconstruct]",
            "└─ id-join root=article",
            "   ├─ scan F_prolog @ site0/F_prolog purpose=fetch project=[.]",
            "   ├─ scan F_body @ site1/F_body purpose=fetch project=[.]",
            "   └─ scan F_epilog @ site2/F_epilog purpose=fetch project=[.]",
        ]


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

    def test_est_parallel_is_the_slowest_lane_plus_the_merge(self, horizontal):
        # Each partial aggregate's scan is priced once, as its lane: the
        # estimate is the slowest site's lanes plus the merge's CPU.
        plan = horizontal.decompose(
            'count(for $i in collection("Citems")/Item return $i)'
        )
        estimates = [lane.estimate for lane in plan.lanes]
        assert len({lane.subquery.site for lane in plan.lanes}) == 3
        slowest = max(estimate.total_seconds for estimate in estimates)
        merge = CostModel().merge_estimate(estimates).cpu_seconds
        assert merge == pytest.approx(3e-05)
        assert plan.estimated_parallel_seconds == pytest.approx(slowest + merge)

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
        # ``parallel_degree`` on a lane and on its scan node, inside the
        # node tree (``root``) that plans no longer keep: both ignored.
        plan = horizontal.decompose(self.QUERIES[0])
        payload = json.loads(json.dumps(plan.to_dict()))
        assert "root" not in payload
        payload["lanes"][0]["subquery"]["parallel_degree"] = 2
        scan = {
            "op": "scan",
            "node_id": "scan0",
            "detail": {"fragment": "F_cd", "parallel_degree": 2},
            "children": [],
        }
        union = {"op": "union", "node_id": "union", "children": [scan]}
        payload["root"] = {
            "op": "compose",
            "node_id": "compose",
            "children": [union],
        }
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


PUBLIC_MODES = ("simulated", "threads", "tcp")


class TestExecutionMode:
    def test_registry_covers_public_modes(self):
        for name in PUBLIC_MODES:
            assert ExecutionMode.parse(name).name == name

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
        for name in PUBLIC_MODES:
            assert repr(name) in message
