"""Vertical semi-join: keys from the filtering fragments, the answer
from the returning fragment restricted to those keys.

Every answer is held to the centralized bytes, in ``simulated``,
``threads`` and ``tcp``; every declined shape must still plan the
reconstruction (and answer the same bytes through it).
"""

from __future__ import annotations

import pytest

from repro.cluster import ParallelDispatcher
from repro.cluster.dispatch import Transport
from repro.cluster.site import Cluster, Site
from repro.datamodel import Collection, doc, elem
from repro.engine import XMLEngine
from repro.errors import DispatchError, XQueryEvaluationError
from repro.partix import FragmentationSchema, Partix, VerticalFragment
from repro.partix.catalog import FragmentAllocation
from repro.plan.physical import PhysicalPlan
from repro.plan.spec import SubQuery, SubQueryTarget, origin_restricted
from repro.workloads import (
    build_store_collection,
    build_xbench_collection,
    store_hybrid_fragmentation,
    xbench_queries,
    xbench_vertical_fragmentation,
)
from repro.xquery.evaluator import evaluate_query
from repro.xquery.unparse import unparse
from repro.xquery.ast_nodes import FunctionCall, Literal

MODES = ("simulated", "threads", "tcp")
CENTRAL = "central"


def article(index, genre="demo", novel=True, country="BR", name=None):
    abstract = ("novel " if novel else "plain ") + f"abstract {index}"
    return doc(
        elem(
            "article",
            elem(
                "prolog",
                elem("title", f"title {index:04d}"),
                elem("genre", genre),
            ),
            elem(
                "body",
                elem("abstract", abstract),
                elem("section", elem("title", f"s{index}"), elem("p", f"text {index}")),
            ),
            elem(
                "epilog",
                elem("country", country),
                elem("references", elem("a_id", f"r{index}"), elem("a_id", "r")),
            ),
        ),
        name=name or f"a{index:04d}.xml",
    )


def three_way(collection="C"):
    return FragmentationSchema(
        collection,
        [
            VerticalFragment("Fp", collection, path="/article/prolog"),
            VerticalFragment("Fb", collection, path="/article/body"),
            VerticalFragment("Fe", collection, path="/article/epilog"),
        ],
        root_label="article",
    )


class Repository:
    """A collection published fragmented and centralized, with the
    answers of the first compared to the bytes of the second."""

    def __init__(self, collection, design, sites=3, tcp=True, **publish):
        self.name = collection.name
        self.partix = Partix(Cluster.with_sites(sites))
        self.partix.publish(collection, design, **publish)
        # The reference is the paper-faithful scan: the indexed fragment
        # sites face an answer no index helped compute.
        self.central = Partix(Cluster([Site(CENTRAL, use_indexes=False)]))
        self.central.publish_centralized(collection, CENTRAL)
        self.modes = MODES if tcp else MODES[:2]
        if tcp:
            self.partix.start_tcp()

    def close(self):
        self.partix.close()
        self.central.close()

    def centralized(self, query):
        return self.central.execute_centralized(query, CENTRAL).result_text

    def answer(self, query):
        """The simulated result, after every mode answered the
        centralized bytes."""
        expected = self.centralized(query)
        results = [
            self.partix.execute(
                query, collection=self.name, execution_mode=mode
            )
            for mode in self.modes
        ]
        for mode, result in zip(self.modes, results):
            assert result.result_text == expected, (mode, query)
        return results[0]

    def explain(self, query):
        return self.partix.explain(query, self.name)


def stages(plan):
    return (
        [lane.subquery.fragment for lane in plan.key_lanes],
        [lane.subquery.fragment for lane in plan.lanes],
    )


# ----------------------------------------------------------------------
# The engine construct and the template
# ----------------------------------------------------------------------
class TestRestrictedCollection:
    @pytest.fixture(scope="class")
    def engine(self):
        engine = XMLEngine("e")
        for index in range(6):
            engine.store_document(
                "F",
                f'<body pxorigin="o {index}"><t>{index}</t></body>',
                name=f"d{index}",
                origin=f"o {index}",
            )
        return engine

    def test_selects_by_stored_origin_in_store_order(self, engine):
        result = engine.execute(
            'px:collection("F", "o 4", "o 1", "nowhere")/body/t/text()'
        )
        assert result.result_text == "1\n4"
        assert (result.documents_scanned, result.documents_pruned) == (2, 4)

    def test_no_key_selects_nothing(self, engine):
        assert engine.execute('count(px:collection("F")/body)').result_text == "0"

    def test_the_where_clause_still_filters(self, engine):
        query = (
            'for $b in px:collection("F", "o 1", "o 2", "o 3")/body'
            " where $b/t > 1 return string($b/@pxorigin)"
        )
        for use_indexes in (True, False):
            engine.use_indexes = use_indexes
            assert engine.execute(query).result_text == "o 2\no 3"

    def test_needs_stored_documents(self):
        with pytest.raises(XQueryEvaluationError, match="no document provider"):
            evaluate_query('px:collection("F", "k")')

    def test_key_slot_is_what_unparse_writes(self):
        for name, keys in [("F", ()), ('F"q', ("a b", 'say "hi"', "x"))]:
            call = FunctionCall(
                "px:collection", (Literal(name), *map(Literal, keys))
            )
            assert origin_restricted(name, keys) == unparse(call)

    def test_every_target_gets_the_keys_and_literals_are_left_alone(self):
        template = SubQuery(
            fragment="Fb",
            site="s0",
            collection="Fb",
            query=(
                'for $a in px:collection("Fb")/body where'
                ' contains($a/abstract, "px:collection(""Fb"")") return $a'
            ),
            replicas=(
                SubQueryTarget(
                    "s1", "Fb_copy", 'for $a in px:collection("Fb_copy")/body return $a'
                ),
            ),
        )
        filled = template.restricted_to(["k 1", "k2"])
        assert filled.query == (
            'for $a in px:collection("Fb", "k 1", "k2")/body where'
            ' contains($a/abstract, "px:collection(""Fb"")") return $a'
        )
        assert filled.replicas[0].query == (
            'for $a in px:collection("Fb_copy", "k 1", "k2")/body return $a'
        )


# ----------------------------------------------------------------------
# XBench: the five join queries
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def xbench():
    repository = Repository(
        build_xbench_collection(8, doc_bytes=6_000, seed=7),
        xbench_vertical_fragmentation(),
    )
    yield repository
    repository.close()


XBENCH_STAGES = {
    "Q4": (["F2papers"], ["F1papers"]),
    "Q8": (["F2papers"], ["F3papers"]),
    "Q9": (["F2papers", "F3papers"], ["F1papers"]),
    "Q10": (["F1papers"], ["F2papers"]),
}


class TestXBenchJoins:
    @pytest.mark.parametrize("qid", sorted(XBENCH_STAGES))
    def test_plans_keys_then_answer(self, xbench, qid):
        query = {q.qid: q.text for q in xbench_queries()}[qid]
        result = xbench.answer(query)
        assert result.plan.composition.kind == "concat"
        assert stages(result.plan) == XBENCH_STAGES[qid]
        assert all(lane.subquery.purpose == "keys" for lane in result.plan.key_lanes)
        assert result.round.key_executions == len(result.plan.key_lanes)

    def test_single_fragment_queries_keep_one_round(self, xbench):
        for query in xbench_queries():
            if query.qid not in XBENCH_STAGES:
                assert not xbench.answer(query.text).plan.key_lanes, query.qid

    def test_q7_counts_per_article_and_so_reconstructs(self, xbench):
        # `return count($a/epilog/references/a_id)` answers 0 for an
        # article without an epilog; the epilog fragment never sees it.
        query = {q.qid: q.text for q in xbench_queries()}["Q7"]
        plan = xbench.answer(query).plan
        assert plan.composition.kind == "reconstruct"
        assert not plan.key_lanes

    def test_explain_renders_both_stages(self, xbench):
        query = {q.qid: q.text for q in xbench_queries()}["Q10"]
        rendered = xbench.explain(query).render()
        assert "lanes=2 stages=2" in rendered
        assert "semi-join keys: F1papers → F2papers" in rendered
        keys = rendered.index("scan F1papers @ site0/F1papers purpose=keys")
        assert keys < rendered.index("scan F2papers @ site1/F2papers restricted")
        assert "id-join" not in rendered

    def test_the_wire_carries_the_matching_bodies_only(self, xbench):
        query = {q.qid: q.text for q in xbench_queries()}["Q10"]
        stored = xbench.partix.cluster.site("site1").driver.collection_bytes(
            "F2papers"
        )
        result = xbench.partix.execute(
            query, collection="Cpapers", execution_mode="tcp"
        )
        assert result.wire_measured
        assert result.result_bytes < result.bytes_received < 0.6 * stored

    def test_modeled_clock_adds_the_stages(self, xbench):
        query = {q.qid: q.text for q in xbench_queries()}["Q4"]
        round_ = xbench.answer(query).round
        keys, answer = round_.executions
        assert keys.site != answer.site
        assert round_.parallel_seconds == pytest.approx(
            keys.elapsed + answer.elapsed
        )
        assert round_.parallel_seconds > max(keys.elapsed, answer.elapsed)


# ----------------------------------------------------------------------
# Key sets: none, all, many, with spaces
# ----------------------------------------------------------------------
WIDE = 520


@pytest.fixture(scope="module")
def wide():
    documents = [
        article(
            index,
            genre="demo" if index < 500 else "survey",
            novel=index % 2 == 0,
            country="BR" if index % 3 == 0 else "US",
            name=f"art icle {index:04d}.xml",
        )
        for index in range(WIDE)
    ]
    repository = Repository(Collection("C", documents), three_way())
    yield repository
    repository.close()


def _titles(where):
    return (
        f'for $a in collection("C")/article where {where}'
        " return $a/prolog/title/text()"
    )


class TestKeySets:
    def test_count_whose_conjuncts_span_two_fragments(self, wide):
        query = (
            'count(for $a in collection("C")/article'
            ' where $a/prolog/genre = "survey"'
            ' and contains($a/body/abstract, "novel") return $a)'
        )
        result = wide.answer(query)
        assert result.result_text == "10"
        assert result.plan.composition.kind == "aggregate"
        assert stages(result.plan) == (["Fp"], ["Fb"])
        # the answering fragment keeps its own conjunct
        assert "contains($a/abstract" in result.plan.lanes[0].subquery.query

    def test_two_key_lanes_are_intersected(self, wide):
        result = wide.answer(
            _titles('contains($a/body/abstract, "novel") and $a/epilog/country = "BR"')
        )
        assert stages(result.plan) == (["Fb", "Fe"], ["Fp"])
        novel, brazilian = (
            set(execution.result.result_text.split("\n"))
            for execution in result.round.executions[:2]
        )
        assert novel - brazilian and brazilian - novel  # neither decides alone
        answer = result.round.executions[2]
        assert answer.query.count('"art icle ') == len(novel & brazilian) == 87
        assert '"art icle 0006.xml"' in answer.query
        assert '"art icle 0002.xml"' not in answer.query  # novel, not BR
        assert '"art icle 0003.xml"' not in answer.query  # BR, not novel

    def test_avg_ships_sum_and_count_over_the_same_keys(self, wide):
        query = (
            'avg(for $a in collection("C")/article'
            ' where $a/prolog/genre = "survey" and $a/epilog/country = "BR"'
            " return count($a/epilog/references/a_id))"
        )
        result = wide.answer(query)
        assert result.result_text == "2"
        answer = result.round.executions[-1].query
        assert answer.count('px:collection("Fe", "art icle 0500.xml"') == 2

    def test_empty_key_set_skips_stage_two(self, wide):
        empty = wide.answer(_titles('$a/epilog/country = "ZZ"'))
        assert empty.result_text == ""
        counted = wide.answer(
            'count(for $a in collection("C")/article'
            ' where $a/epilog/country = "BR"'
            ' and $a/prolog/genre = "essay" return $a)'
        )
        assert counted.result_text == "0"
        for result, keyed in ((empty, "Fe"), (counted, "Fp")):
            assert result.plan.key_lanes
            assert [e.fragment for e in result.round.executions] == [keyed]
            assert result.round.key_executions == 1

    def test_every_document_matching(self, wide):
        result = wide.answer(_titles('contains($a/body/abstract, "abstract")'))
        assert result.result_text.count("\n") == WIDE - 1

    def test_five_hundred_keys_are_one_flat_lookup(self, wide):
        result = wide.answer(
            'for $a in collection("C")/article'
            ' where $a/prolog/genre = "demo" return $a/body/abstract/text()'
        )
        assert stages(result.plan) == (["Fp"], ["Fb"])
        answer = result.round.executions[-1]
        assert answer.query.count('"art icle ') == 500
        assert " or " not in answer.query
        assert answer.result.documents_scanned == 500
        assert answer.result.documents_pruned == WIDE - 500

    def test_origins_containing_a_space(self, wide):
        result = wide.answer(_titles('$a/epilog/references/a_id = "r7"'))
        assert result.result_text == "title 0007"
        assert '"art icle 0007.xml"' in result.round.executions[-1].query

    def test_order_by_stays_with_the_answering_fragment(self, wide):
        query = (
            'for $a in collection("C")/article'
            ' where $a/epilog/references/a_id = ("r3", "r9", "r5")'
            " order by $a/prolog/title descending"
            " return $a/prolog/title/text()"
        )
        # a sequence literal is not a captured conjunct: reconstruction
        assert wide.explain(query).composition.kind == "reconstruct"
        query = (
            'for $a in collection("C")/article'
            ' where $a/epilog/country = "BR" and $a/prolog/genre = "survey"'
            " order by $a/prolog/title descending"
            " return $a/prolog/title/text()"
        )
        result = wide.answer(query)
        assert stages(result.plan) == (["Fe"], ["Fp"])
        assert result.result_text.split("\n")[0] == "title 0519"

    def test_negation_on_the_answering_side_of_a_path_return(self, wide):
        # An article without a body passes the `not`, and its `return`
        # path selects nothing: the body fragment loses no answer.
        result = wide.answer(
            'for $a in collection("C")/article'
            ' where $a/prolog/genre = "survey"'
            ' and not(contains($a/body/abstract, "novel"))'
            " return $a/body/abstract/text()"
        )
        assert stages(result.plan) == (["Fp"], ["Fb"])
        assert result.result_text.count("\n") == 9


# ----------------------------------------------------------------------
# What the rule declines keeps today's plan
# ----------------------------------------------------------------------
FALLBACKS = {
    "conjunct reading two fragments": (
        'for $a in collection("C")/article'
        " where $a/prolog/genre = $a/epilog/country"
        " return $a/prolog/title/text()"
    ),
    "or across fragments": _titles(
        'contains($a/body/abstract, "novel") or $a/epilog/country = "BR"'
    ),
    "second binding below the root": (
        'for $a in collection("C")/article, $s in $a/body/section'
        ' where $a/prolog/genre = "survey" return $s/p/text()'
    ),
    "let clause": (
        'for $a in collection("C")/article let $t := $a/prolog/title'
        ' where contains($a/body/abstract, "novel") return $t/text()'
    ),
    "positional variable": (
        'for $a at $p in collection("C")/article'
        ' where $a/epilog/country = "BR" return ($p, $a/prolog/title/text())'
    ),
    "rewrite returning None": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        " return $a/body[abstract]/section/title/text()"
    ),
    "not() on the key side": _titles('not(contains($a/body/abstract, "novel"))'),
    "empty() on the key side": _titles("empty($a/epilog/references/a_id)"),
    "empty search string": _titles('contains($a/body/abstract, "")'),
    "return reading two fragments": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        " return ($a/prolog/title/text(), $a/epilog/country/text())"
    ),
    "order by reading another fragment": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        " order by $a/epilog/country return $a/body/abstract/text()"
    ),
    "a second collection() inside": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        ' return count(collection("C")/article/epilog/country)'
    ),
    "condition the analysis does not capture": _titles(
        "count($a/epilog/references/a_id) > 1"
    ),
    "count() returned per document of an optional part": (
        'avg(for $a in collection("C")/article where $a/prolog/genre = "survey"'
        " return count($a/epilog/references/a_id))"
    ),
    "constructor over a part no conjunct needs": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        " return element hit {$a/body/abstract/text()}"
    ),
    "counted documents whose answering conjunct is a negation": (
        'count(for $a in collection("C")/article'
        ' where $a/prolog/genre = "survey"'
        ' and not(contains($a/body/abstract, "novel")) return $a)'
    ),
}


@pytest.fixture(scope="module")
def small():
    documents = [
        article(
            index,
            genre="survey" if index % 2 else "demo",
            novel=index % 3 == 0,
            country="BR" if index % 4 == 0 else "US",
        )
        for index in range(12)
    ]
    repository = Repository(Collection("C", documents), three_way(), tcp=False)
    yield repository
    repository.close()


class TestFallbacks:
    @pytest.mark.parametrize("trigger", sorted(FALLBACKS))
    def test_declined_shapes_reconstruct(self, small, trigger):
        query = FALLBACKS[trigger]
        plan = small.explain(query)
        assert plan.composition.kind == "reconstruct", trigger
        assert not plan.key_lanes
        assert all(sq.purpose == "fetch" for sq in plan.subqueries)
        small.answer(query)

    def test_hybrid_plans_are_never_semijoined(self):
        partix = Partix(Cluster.with_sites(4))
        with partix:
            partix.publish(
                build_store_collection(12, seed=3), store_hybrid_fragmentation(2)
            )
            plan = partix.explain(
                'for $s in collection("Cstore")/Store'
                ' where $s/Items/Item/Section = "CD" return $s/Name',
                "Cstore",
            )
            assert not plan.key_lanes

    def test_prune_complement_design(self):
        documents = [
            article(index, genre="demo" if index % 3 else "survey", novel=index % 2 == 0)
            for index in range(9)
        ]
        design = FragmentationSchema(
            "C",
            [
                VerticalFragment("Frest", "C", path="/article", prune=("/article/body",)),
                VerticalFragment("Fbody", "C", path="/article/body"),
            ],
            root_label="article",
        )
        repository = Repository(Collection("C", documents), design, sites=2)
        try:
            by_body = repository.answer(_titles('contains($a/body/abstract, "novel")'))
            assert stages(by_body.plan) == (["Fbody"], ["Frest"])
            assert by_body.result_text.count("\n") == 4
            by_rest = repository.answer(
                'for $a in collection("C")/article'
                ' where $a/prolog/genre = "survey" and $a/epilog/country = "BR"'
                " return $a/body/abstract"
            )
            assert stages(by_rest.plan) == (["Frest"], ["Fbody"])
            assert "pxorigin" not in by_rest.result_text
            # the pruned node itself belongs to both fragments' regions
            whole = repository.explain(
                'for $a in collection("C")/article'
                ' where $a/prolog/genre = "survey" return $a/body'
            )
            assert whole.composition.kind == "reconstruct"
        finally:
            repository.close()


# ----------------------------------------------------------------------
# Documents without a part in some fragment (Definition 3: at most one)
# ----------------------------------------------------------------------
MISSING = {1: "body", 2: "epilog", 5: "prolog", 6: "epilog", 7: "body"}


@pytest.fixture(scope="module")
def sparse():
    documents = []
    for index in range(24):
        document = article(
            index,
            genre="survey" if index % 3 else "demo",
            novel=index % 4 == 0,
            country="BR" if index % 5 else "US",
        )
        missing = MISSING.get(index % 8)
        document.root.children[:] = [
            part for part in document.root.children if part.label != missing
        ]
        documents.append(document)
    repository = Repository(Collection("C", documents), three_way())
    yield repository
    repository.close()


SPARSE_SEMIJOINS = {
    "path return, no conjunct on its side": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        " return $a/body/abstract/text()"
    ),
    "path return past a negation on its side": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        ' and not(contains($a/body/abstract, "novel"))'
        " return $a/body/abstract/text()"
    ),
    "whole part returned": (
        'for $a in collection("C")/article where $a/epilog/country = "BR"'
        " return $a/body"
    ),
    "constructor behind a conjunct that needs the part": (
        'for $a in collection("C")/article where $a/prolog/genre = "survey"'
        ' and contains($a/body/abstract, "plain")'
        " return element hit {$a/body/abstract/text()}"
    ),
    "count behind a conjunct that needs the part": (
        'count(for $a in collection("C")/article'
        ' where $a/prolog/genre = "survey"'
        ' and contains($a/body/abstract, "plain") return $a)'
    ),
    "avg of counts behind a conjunct that needs the part": (
        'avg(for $a in collection("C")/article'
        ' where $a/prolog/genre = "survey" and $a/epilog/country = "BR"'
        " return count($a/epilog/references/a_id))"
    ),
    "two key lanes, ordered": (
        'for $a in collection("C")/article'
        ' where contains($a/body/abstract, "plain") and $a/epilog/country = "BR"'
        " order by $a/prolog/title descending return $a/prolog/title/text()"
    ),
}

#: Queries reading one fragment whose answer a document without a part
#: there changes: only a reconstruction over every fragment sees it.
SPARSE_WHOLE_DESIGN = {
    "count of an optional part per article, counted": (
        'count(for $a in collection("C")/article'
        " return count($a/epilog/references/a_id))"
    ),
    "negation alone, counted": (
        'count(for $a in collection("C")/article'
        ' where not(contains($a/body/abstract, "zzz")) return $a)'
    ),
    "count of an optional part per article, constructed": (
        'for $a in collection("C")/article'
        " return element e {count($a/epilog/references/a_id)}"
    ),
}

#: Queries reading one fragment that a missing part cannot change.
SPARSE_ONE_LANE = {
    "conjunct that needs the part, path return": (
        'for $a in collection("C")/article where $a/prolog/genre = "demo"'
        " return $a/prolog/title/text()"
    ),
    "binding below the fragment root": (
        'for $s in collection("C")/article/body/section'
        ' where contains($s/p, "text") return $s/title/text()'
    ),
}

SPARSE_DECLINED = (
    "count() returned per document of an optional part",
    "constructor over a part no conjunct needs",
    "counted documents whose answering conjunct is a negation",
    "not() on the key side",
    "empty() on the key side",
)


class TestDocumentsWithoutAPart:
    def test_fragments_hold_fewer_parts_than_documents(self, sparse):
        catalog = sparse.partix.distribution_catalog
        held = {
            name: sparse.partix.cluster.site(entry.site).driver.document_count(
                entry.stored_collection
            )
            for name in ("Fp", "Fb", "Fe")
            for entry in catalog.replicas("C", name)
        }
        assert held == {"Fp": 21, "Fb": 18, "Fe": 18}

    @pytest.mark.parametrize("shape", sorted(SPARSE_SEMIJOINS))
    def test_semijoin_loses_no_answer(self, sparse, shape):
        result = sparse.answer(SPARSE_SEMIJOINS[shape])
        assert result.plan.key_lanes, shape
        assert result.result_text not in ("", "0")

    @pytest.mark.parametrize("trigger", SPARSE_DECLINED)
    def test_what_a_missing_part_would_change_reconstructs(self, sparse, trigger):
        result = sparse.answer(FALLBACKS[trigger])
        assert result.plan.composition.kind == "reconstruct", trigger
        assert result.result_text != ""

    @pytest.mark.parametrize("shape", sorted(SPARSE_WHOLE_DESIGN))
    def test_one_fragment_query_a_missing_part_changes(self, sparse, shape):
        result = sparse.answer(SPARSE_WHOLE_DESIGN[shape])
        assert result.plan.composition.kind == "reconstruct", shape
        assert sorted(lane.subquery.fragment for lane in result.plan.lanes) == [
            "Fb",
            "Fe",
            "Fp",
        ]
        assert all(lane.subquery.purpose == "fetch" for lane in result.plan.lanes)

    @pytest.mark.parametrize("shape", sorted(SPARSE_ONE_LANE))
    def test_one_fragment_query_no_missing_part_changes(self, sparse, shape):
        result = sparse.answer(SPARSE_ONE_LANE[shape])
        assert len(result.plan.lanes) == 1, shape
        assert not result.plan.key_lanes
        assert result.plan.lanes[0].subquery.purpose == "answer"
        assert result.result_text != ""


# ----------------------------------------------------------------------
# Failover and deadlines
# ----------------------------------------------------------------------
class _Recording(Transport):
    """Passes through to ``inner``; ``after(subquery)`` runs once each
    sub-query is answered, ``seen`` lists what was dispatched."""

    def __init__(self, inner, after=lambda subquery: None):
        self.inner = inner
        self.after = after
        self.seen = []
        self.timeouts = []

    def resolve(self, site_names):
        self.inner.resolve(site_names)

    def ping(self, site):
        return self.inner.ping(site)

    def execute(self, subquery, default_collection=None, timeout=None):
        self.seen.append(subquery)
        self.timeouts.append(timeout)
        execution = self.inner.execute(
            subquery, default_collection=default_collection, timeout=timeout
        )
        self.after(subquery)
        return execution


class _DeadDriver:
    def execute(self, *args, **kwargs):
        raise RuntimeError("site is down")


def _replicated(dispatcher=None):
    """Prolog on site0, body on site1 with a replica on ``mirror`` under
    another stored name."""
    documents = [
        article(index, genre="survey" if index % 2 else "demo") for index in range(8)
    ]
    cluster = Cluster.with_sites(2)
    cluster.add(Site("mirror"))
    partix = Partix(cluster, dispatcher=dispatcher)
    design = FragmentationSchema(
        "C",
        [
            VerticalFragment("Fp", "C", path="/article/prolog"),
            VerticalFragment("Fb", "C", path="/article/body"),
        ],
        root_label="article",
    )
    partix.publish(
        Collection("C", documents),
        design,
        allocations=[
            FragmentAllocation("Fp", "site0", "Fp"),
            FragmentAllocation("Fb", "site1", "Fb"),
            FragmentAllocation("Fb", "mirror", "Fb_copy"),
        ],
    )
    central = Partix(Cluster([Site(CENTRAL)]))
    central.publish_centralized(Collection("C", documents), CENTRAL)
    return partix, central


BODIES_OF_SURVEYS = (
    'for $a in collection("C")/article'
    ' where $a/prolog/genre = "survey" return $a/body/abstract'
)


class TestStagesUnderFaults:
    def test_replica_answers_stage_two_with_the_same_keys(self):
        partix, central = _replicated(ParallelDispatcher(sleep=lambda s: None))
        with partix, central:
            expected = central.execute_centralized(
                BODIES_OF_SURVEYS, CENTRAL
            ).result_text
            plan = partix.explain(BODIES_OF_SURVEYS, "C")
            assert plan.lanes[0].subquery.site == "site1"

            def kill_primary(subquery):
                if subquery.purpose == "keys":
                    partix.cluster.site("site1").driver = _DeadDriver()

            transport = _Recording(partix._in_process, after=kill_primary)
            executed = partix.plan_executor.run(plan, transport, partix.dispatcher)
            assert executed.composed.result_text == expected
            assert [sq.site for sq in transport.seen] == ["site0", "site1", "mirror"]
            failed, retried = transport.seen[1:]
            keys = ', '.join(f'"a{index:04d}.xml"' for index in (1, 3, 5, 7))
            assert f'px:collection("Fb", {keys})' in failed.query
            assert f'px:collection("Fb_copy", {keys})' in retried.query
            assert executed.round.failover_count == 1
            assert any("failover" in note for note in executed.notes)

    def test_deadline_shorter_than_stage_one_is_typed(self):
        clock = [0.0]
        dispatcher = ParallelDispatcher(
            clock=lambda: clock[0], sleep=lambda s: None
        )
        partix, central = _replicated(dispatcher)
        with partix, central:
            plan = partix.explain(BODIES_OF_SURVEYS, "C")

            def slow_keys(subquery):
                if subquery.purpose == "keys":
                    clock[0] += 2.0

            for budget in (1.0, 2.0):  # over budget; exactly used up
                clock[0] = 0.0
                transport = _Recording(partix._in_process, after=slow_keys)
                with pytest.raises(DispatchError) as info:
                    partix.plan_executor.run(
                        plan, transport, dispatcher, subquery_timeout=budget
                    )
                assert [sq.purpose for sq in transport.seen] == ["keys"]
                assert info.value.failures
                assert all(failure.timed_out for failure in info.value.failures)

    def test_stage_two_gets_the_remaining_deadline(self):
        clock = [0.0]
        dispatcher = ParallelDispatcher(
            clock=lambda: clock[0], sleep=lambda s: None
        )
        partix, central = _replicated(dispatcher)
        with partix, central:
            plan = partix.explain(BODIES_OF_SURVEYS, "C")

            def slow_keys(subquery):
                if subquery.purpose == "keys":
                    clock[0] += 2.0

            transport = _Recording(partix._in_process, after=slow_keys)
            partix.plan_executor.run(
                plan, transport, dispatcher, subquery_timeout=5.0
            )
            assert transport.timeouts == [pytest.approx(5.0), pytest.approx(3.0)]

    def test_plan_survives_dict_round_trip_and_the_plan_cache(self):
        partix, central = _replicated()
        with partix, central:
            plan = partix.explain(BODIES_OF_SURVEYS, "C")
            restored = PhysicalPlan.from_dict(plan.to_dict())
            assert restored.render() == plan.render()
            assert stages(restored) == (["Fp"], ["Fb"])
            assert restored.lanes[0].subquery == plan.lanes[0].subquery
            first = partix.execute(BODIES_OF_SURVEYS, collection="C", plan=restored)
            hits = partix.plan_cache.hits
            again = partix.execute(BODIES_OF_SURVEYS, collection="C")
            cached = partix.execute(BODIES_OF_SURVEYS, collection="C")
            assert partix.plan_cache.hits == hits + 1
            assert first.result_text == again.result_text == cached.result_text
            assert first.result_text.count("<abstract>") == 4

            # Keys are read at run time: new data, new keys, same text.
            documents = [
                article(index, genre="survey" if index < 2 else "demo")
                for index in range(8)
            ]
            design = partix.distribution_catalog.fragmentation("C")
            allocations = [
                FragmentAllocation("Fp", "site0", "Fp"),
                FragmentAllocation("Fb", "site1", "Fb"),
                FragmentAllocation("Fb", "mirror", "Fb_copy"),
            ]
            partix.publish(
                Collection("C", documents),
                design,
                allocations=allocations,
                replace=True,
            )
            after = partix.execute(BODIES_OF_SURVEYS, collection="C")
            assert after.result_text.count("<abstract>") == 2
            assert '"a0000.xml", "a0001.xml")' in after.round.executions[-1].query
            assert after.round.executions[-1].query != cached.round.executions[-1].query
