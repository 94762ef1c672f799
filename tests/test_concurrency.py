"""Concurrent execution: threads-vs-simulated determinism, engine
thread-safety under hammering, and the real-parallelism acceptance check."""

import sys
import threading

import pytest

from repro.bench import build_items_scenario, build_xbench_scenario
from repro.cluster import Cluster, ParallelDispatcher, Site
from repro.datamodel import doc, elem
from repro.datamodel.binary import KIND_ELEMENT, BinaryXMLDocument, StringPool
from repro.datamodel.tree import NodeKind
from repro.engine.database import XMLEngine
from repro.errors import DispatchError
from repro.partix import (
    CompositionSpec,
    FragmentationSchema,
    HorizontalFragment,
    Partix,
    SubQuery,
    annotated,
)
from repro.paths import eq, ne

TINY = 1 / 2000


class TestModeDeterminism:
    """``threads`` must answer byte-identically to ``simulated``."""

    def _assert_modes_agree(self, scenario):
        for query in scenario.queries:
            simulated = scenario.partix.execute(
                query.text, collection=scenario.collection_name
            )
            threaded = scenario.partix.execute(
                query.text,
                collection=scenario.collection_name,
                execution_mode="threads",
            )
            assert simulated.result_text == threaded.result_text, query.qid
            assert threaded.round.measured_wall_seconds > 0.0
            # Every lane carries the plan node it realized and the
            # planner's estimate next to its measurement, in both modes
            # (a lookup of a value no fragment holds plans no lane; a
            # semi-join whose key lanes answer no key sends no more).
            for result in (simulated, threaded):
                sent = len(result.plan.subqueries)
                if result.plan.key_lanes and not result.result_text:
                    sent = len(result.plan.key_lanes)
                assert len(result.round.executions) == sent, query.qid
                for execution in result.round.executions:
                    assert execution.plan_node.startswith(("scan", "keys"))
                    assert execution.estimated_seconds > 0.0
                    assert execution.elapsed > 0.0

    def test_items_horizontal_queries(self):
        self._assert_modes_agree(
            build_items_scenario(
                "small", paper_mb=100, fragment_count=4, scale=TINY
            )
        )

    def test_xbench_vertical_queries(self):
        self._assert_modes_agree(
            build_xbench_scenario(paper_mb=100, scale=TINY)
        )

    def test_invalid_mode_rejected(self):
        scenario = build_items_scenario(
            "small", paper_mb=100, fragment_count=2, scale=TINY
        )
        with pytest.raises(ValueError):
            scenario.partix.execute(
                scenario.queries[0].text,
                collection=scenario.collection_name,
                execution_mode="warp",
            )


class TestRealParallelismAcceptance:
    def test_threads_wall_below_sequential_on_four_sites(self):
        scenario = build_items_scenario(
            "small", paper_mb=100, fragment_count=4, scale=TINY
        )
        query = scenario.queries[7]  # Q8: touches every fragment
        result = scenario.partix.execute(
            query.text,
            collection=scenario.collection_name,
            execution_mode="threads",
        )
        assert len({e.site for e in result.round.executions}) >= 4
        assert result.measured_wall_seconds < result.sequential_seconds


class TestEngineThreadSafety:
    THREADS = 8
    QUERIES_PER_THREAD = 25
    DOCS = 12

    def _engine(self) -> XMLEngine:
        engine = XMLEngine("stress", use_indexes=False)
        for i in range(self.DOCS):
            engine.store_document(
                "c", f"<Item><Code>I{i}</Code></Item>", name=f"{i}.xml"
            )
        return engine

    def _hammer(self, engine: XMLEngine, text=None) -> list:
        """``text(thread, round)`` picks each query (default: one path)."""
        errors = []

        def worker(thread: int):
            try:
                for round_ in range(self.QUERIES_PER_THREAD):
                    query = (
                        text(thread, round_)
                        if text is not None
                        else 'collection("c")/Item/Code'
                    )
                    result = engine.execute(query)
                    assert result.documents_scanned == self.DOCS
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return errors

    def test_no_lost_stat_updates_without_cache(self):
        engine = self._engine()
        assert self._hammer(engine) == []
        total = self.THREADS * self.QUERIES_PER_THREAD
        assert engine.stats.queries_executed == total
        assert engine.stats.documents_scanned == total * self.DOCS
        # A path query evaluates on the node tables: no tree is built.
        assert engine.stats.documents_parsed == 0
        assert engine.stats.cache_hits == 0

    def test_no_lost_stat_updates_with_lru_cache(self):
        """Distinct constructor texts from every thread: the engine's
        one LRU (compiled queries) churns under contention while each
        query decodes one embedded subtree per document."""
        from repro.engine.database import COMPILE_CACHE_CAPACITY

        def text(thread: int, round_: int) -> str:
            return (
                'for $i in collection("c")/Item'
                f" return element r{thread}n{round_ * 7 % 40} {{ $i/Code }}"
            )

        engine = self._engine()
        assert self._hammer(engine, text) == []
        total = self.THREADS * self.QUERIES_PER_THREAD
        assert engine.stats.queries_executed == total
        assert engine.stats.documents_scanned == total * self.DOCS
        # The decode counters lose no update: one copied subtree per
        # document per query, each a tree built from storage.
        assert engine.stats.documents_parsed == total * self.DOCS
        assert engine.stats.binary_decodes == total * self.DOCS
        # LRU integrity: never over capacity, keys all valid.
        assert len(engine._compiled) <= COMPILE_CACHE_CAPACITY
        valid = {
            text(thread, round_)
            for thread in range(self.THREADS)
            for round_ in range(self.QUERIES_PER_THREAD)
        }
        assert set(engine._compiled) <= valid

    def test_one_site_hammered_through_partix_threads_mode(self):
        """≥8 concurrent lanes all funnel into a single engine."""
        engine = self._engine()
        site = Site("solo", driver=None)
        site.driver.engine = engine  # type: ignore[attr-defined]
        cluster = Cluster([site])
        partix = Partix(cluster)
        plan = annotated(
            "c",
            [
                SubQuery(
                    fragment=f"F{i}",
                    site="solo",
                    collection="c",
                    query='collection("c")/Item/Code',
                )
                for i in range(8)
            ],
            CompositionSpec(kind="concat"),
        )
        result = partix.execute(
            'collection("c")/Item/Code', plan=plan, execution_mode="threads"
        )
        assert len(result.round.executions) == 8
        assert engine.stats.queries_executed == 8
        assert engine.stats.documents_scanned == 8 * self.DOCS


class TestRangeIndexConcurrentFirstLookup:
    """The range index sorts its posting lists lazily, on the first
    lookup after an ingest. ``list.sort`` empties the list while it
    sorts, so an unsynchronised sort let a concurrent lookup see no
    entries and prune every document — a wrong answer, not a slow one.
    Candidates must always be a superset."""

    THREADS = 4
    ROUNDS = 12
    DOCS = 1500

    def test_lookups_racing_the_first_sort_never_lose_documents(self):
        engine = XMLEngine("range-race")
        for i in range(self.DOCS):
            engine.store_document(
                "c", f"<Item><Price>{i}</Price></Item>", name=f"{i}.xml"
            )
        ranges = engine.store.collection("c").index.values
        expected = self.DOCS - 10
        found = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(self.ROUNDS):
                # Every ingest leaves the lists unsorted again.
                engine.store_document(
                    "c", "<Item><Price>5</Price></Item>", name=f"x{round_index}"
                )
                barrier = threading.Barrier(self.THREADS)

                def worker():
                    barrier.wait(timeout=10.0)
                    found.append(len(ranges.lookup("Price", ">=", 10)))

                threads = [
                    threading.Thread(target=worker) for _ in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert found == [expected] * (self.THREADS * self.ROUNDS)


class TestNamePostingConcurrentFirstUse:
    """A table builds its name postings on the first named step and
    publishes them with one attribute store, without a lock. Lanes
    racing on that first step must each get the whole answer: a
    half-built map seen by another lane would drop nodes."""

    THREADS = 8
    ROUNDS = 6

    def test_racing_first_steps_all_see_every_node(self):
        document = doc(
            elem("r", *[elem("a", elem("b", str(i)), elem("c")) for i in range(1500)]),
            name="wide.xml",
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(self.ROUNDS):
                table = BinaryXMLDocument.encode(document, StringPool())
                name_id = table.pool.lookup("b")
                expected = [
                    i
                    for i in range(len(table))
                    if table.kinds[i] == KIND_ELEMENT and table.names[i] == name_id
                ]
                barrier = threading.Barrier(self.THREADS)
                answers = []

                def worker():
                    barrier.wait(timeout=10.0)
                    selected = table.root.select(NodeKind.ELEMENT, "b", descend=True)
                    answers.append([handle.index for handle in selected])

                threads = [
                    threading.Thread(target=worker) for _ in range(self.THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                assert answers == [expected] * self.THREADS
        finally:
            sys.setswitchinterval(interval)


class TestDegradedExecutionThroughMiddleware:
    def test_degrade_policy_surfaces_notes_and_partial_answer(self):
        # No partial answer: the fragment that fails raises, even though
        # the other one answered.
        cluster = Cluster.with_sites(2)
        for i in range(4):
            cluster.site("site0").driver.store_document(
                "frag0", f"<Item><Code>A{i}</Code></Item>", name=f"a{i}.xml"
            )
        partix = Partix(
            cluster, dispatcher=ParallelDispatcher(sleep=lambda s: None)
        )
        plan = annotated(
            "frag0",
            [
                SubQuery(
                    fragment="F_ok",
                    site="site0",
                    collection="frag0",
                    query='collection("frag0")/Item/Code',
                ),
                SubQuery(
                    fragment="F_missing",
                    site="site1",
                    collection="nope",
                    query='collection("nope")/Item/Code',
                ),
            ],
            CompositionSpec(kind="concat"),
        )
        with pytest.raises(DispatchError) as info:
            partix.execute(
                'collection("frag0")/Item/Code',
                plan=plan,
                execution_mode="threads",
            )
        partix.close()
        (failure,) = info.value.failures
        assert failure.fragment == "F_missing"
        assert failure.attempt_sites == ["site1", "site1"]
