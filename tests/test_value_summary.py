"""Routing by value: per-fragment value summaries.

Two layers. The summary itself (:class:`repro.engine.indexes.ValueSummary`)
must never claim more than the value index it was derived from: whenever
it *proves* a predicate empty, :func:`candidate_documents` finds no
document. And the middleware must keep every recorded summary a superset
of what its replica stores under every write path — publish, republish,
split, move, replicate, merge, writes after ``start_tcp()`` — which is
checked the only way that matters: a lookup routed by the summary answers
the centralized bytes.
"""

import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.site import Cluster, Site
from repro.datamodel import Collection, doc, elem
from repro.engine.database import XMLEngine
from repro.engine.indexes import candidate_documents
from repro.partix.driver import PartixDriver
from repro.partix.fragments import FragmentationSchema, HorizontalFragment
from repro.partix.middleware import Partix
from repro.paths import cmp, contains, eq, exists, ne
from repro.paths.predicates import And, Not, Or
from repro.rebalance import Rebalancer

SECTIONS = ("CD", "DVD", "Book", "Games")
CENTRAL = "central"


def _summary(*documents):
    engine = XMLEngine("s")
    for index, root in enumerate(documents):
        engine.store_document("c", doc(root, name=f"d{index}.xml"))
    collection = engine.store.collection("c")
    return collection.index.values.summary(), collection


def _item(index, section=None, price=None, rating="3"):
    return doc(
        elem(
            "Item",
            elem("Code", f"I-{index:04d}"),
            elem("Name", f"name {index}"),
            elem("Section", section or SECTIONS[index % len(SECTIONS)]),
            elem("Price", str(price if price is not None else 10 * index)),
            elem("Rating", rating),
        ),
        name=f"item-{index:04d}.xml",
    )


def _design(collection="Citems"):
    fragments = [
        HorizontalFragment(
            f"F{index + 1}", collection, predicate=eq("/Item/Section", section)
        )
        for index, section in enumerate(SECTIONS[:-1])
    ]
    fragments.append(
        HorizontalFragment(
            f"F{len(SECTIONS)}",
            collection,
            predicate=And(
                tuple(ne("/Item/Section", section) for section in SECTIONS[:-1])
            ),
        )
    )
    return FragmentationSchema(collection, fragments, root_label="Item")


def _published(documents, sites=4, **partix_options):
    collection = Collection("Citems", list(documents))
    cluster = Cluster.with_sites(sites)
    cluster.add(Site(CENTRAL))
    partix = Partix(cluster, **partix_options)
    partix.publish(collection, _design())
    partix.publish_centralized(collection, CENTRAL)
    return partix


def _lookup(code, ret="$i/Name/text()"):
    return (
        'for $i in collection("Citems")/Item'
        f' where $i/Code = "{code}" return {ret}'
    )


def _assert_matches_centralized(partix, query, modes=("simulated", "threads")):
    expected = partix.execute_centralized(query, CENTRAL).result_text
    for mode in modes:
        result = partix.execute(query, collection="Citems", execution_mode=mode)
        assert sorted(result.result_text.splitlines()) == sorted(
            expected.splitlines()
        ), (query, mode)
    return result


# ----------------------------------------------------------------------
# The summary against the index it came from
# ----------------------------------------------------------------------
class TestLabelSummary:
    def test_numeric_equality_follows_the_comparison_key(self):
        summary, _ = _summary(
            elem("Item", elem("Rating", "5.0")),
            elem("Item", elem("Rating", "05")),
            elem("Item", elem("Rating", "-0")),
        )
        for probe in (5, 5.0, "5", "5.0", "05", "50e-1", 0, "0.0"):
            assert not summary.proves_empty(eq("/Item/Rating", probe)), probe
        for probe in (6, "6", "5.5", "five", ""):
            assert summary.proves_empty(eq("/Item/Rating", probe)), probe

    def test_string_equality(self):
        summary, _ = _summary(
            elem("Item", elem("Code", "I-0001")),
            elem("Item", elem("Code", "nan")),
        )
        assert not summary.proves_empty(eq("/Item/Code", "I-0001"))
        assert not summary.proves_empty(eq("/Item/Code", "nan"))
        assert summary.proves_empty(eq("/Item/Code", "I-0002"))
        assert summary.proves_empty(eq("/Item/Code", "NaN"))
        assert summary.proves_empty(eq("/Item/Code", 1))

    def test_attribute_labels(self):
        summary, _ = _summary(elem("Item", elem("Rating", "1", votes="7")))
        assert not summary.proves_empty(eq("/Item/Rating/@votes", "7.0"))
        assert summary.proves_empty(eq("/Item/Rating/@votes", 8))

    def test_bounds_at_the_edges(self):
        summary, _ = _summary(
            elem("Item", elem("Price", "10")),
            elem("Item", elem("Price", "20.5")),
            elem("Item", elem("Price", "030")),
        )
        path = "/Item/Price"
        assert summary.proves_empty(cmp(path, "<", 10))
        assert not summary.proves_empty(cmp(path, "<=", 10))
        assert not summary.proves_empty(cmp(path, "<", "10.5"))
        assert summary.proves_empty(cmp(path, ">", 30))
        assert not summary.proves_empty(cmp(path, ">=", 30))
        assert summary.proves_empty(cmp(path, ">=", "30.01"))
        # A probe that is no number compares every value as a string.
        assert not summary.proves_empty(cmp(path, ">=", "zzz"))

    def test_bounds_need_every_value_to_be_a_number(self):
        summary, _ = _summary(
            elem("Item", elem("Price", "10")),
            elem("Item", elem("Price", "on request")),
        )
        assert not summary.proves_empty(cmp("/Item/Price", ">", 1000))
        assert not summary.proves_empty(cmp("/Item/Price", "<", 0))
        assert summary.proves_empty(eq("/Item/Price", 11))

    def test_element_content_is_never_pruned(self):
        summary, _ = _summary(
            elem("Item", elem("Spec", "plain")),
            elem("Item", elem("Spec", elem("Part", "a"), elem("Part", "b"))),
        )
        assert not summary.proves_empty(eq("/Item/Spec", "ab"))
        assert not summary.proves_empty(eq("/Item/Spec", "nothing"))
        assert summary.proves_empty(eq("/Item/Spec/Part", "c"))

    def test_what_the_value_index_does_not_answer_proves_nothing(self):
        summary, _ = _summary(elem("Item", elem("Code", "I-0001")))
        absent = eq("/Item/Code", "I-0002")
        assert summary.proves_empty(absent)
        for predicate in (
            ne("/Item/Code", "I-0002"),
            Not(eq("/Item/Code", "I-0001")),
            Not(absent),
            contains("/Item/Code", "zzz"),
            exists("/Item/Missing"),
            eq("/Item/*", "I-0002"),
            eq("/Item/Uncovered", "x"),
        ):
            assert not summary.proves_empty(predicate), str(predicate)

    def test_connectives(self):
        summary, _ = _summary(elem("Item", elem("Code", "I-0001")))
        present, absent = eq("/Item/Code", "I-0001"), eq("/Item/Code", "I-0002")
        unprunable = ne("/Item/Code", "I-0001")
        assert summary.proves_empty(And((present, absent)))
        assert not summary.proves_empty(And((present, unprunable)))
        assert summary.proves_empty(Or((absent, absent)))
        assert not summary.proves_empty(Or((absent, present)))
        assert not summary.proves_empty(Or((absent, unprunable)))

    def test_proved_empty_means_the_index_finds_no_candidate(self):
        rng = random.Random(2006)
        values = ("1", "2", "2.0", "03", "x", "", "nan", "10", "-0", "1e1")
        for _ in range(40):
            documents = [
                elem(
                    "Item",
                    elem("A", rng.choice(values)),
                    elem("B", rng.choice(values[:4])),
                    *(
                        [elem("A", elem("Deep", rng.choice(values)))]
                        if rng.random() < 0.1
                        else []
                    ),
                )
                for _ in range(rng.randint(1, 5))
            ]
            summary, collection = _summary(*documents)
            for _ in range(60):
                atoms = [
                    cmp(
                        rng.choice(("/Item/A", "/Item/B", "/Item/A/Deep")),
                        rng.choice(("=", "<", "<=", ">", ">=", "!=")),
                        rng.choice(values + (1, 2, 3.0, 10, 11, "y")),
                    )
                    for _ in range(rng.randint(1, 3))
                ]
                predicate = atoms[0]
                if len(atoms) > 1:
                    predicate = rng.choice((And, Or))(tuple(atoms))
                if summary.proves_empty(predicate):
                    assert candidate_documents(collection, predicate)[0] == []
                    assert not any(
                        predicate.evaluate(collection.get(name).binary.root)
                        for name in collection.names()
                    )

    def test_keys_are_equal_across_processes(self):
        script = (
            "from repro.datamodel import doc, elem\n"
            "from repro.engine.database import XMLEngine\n"
            "engine = XMLEngine('s')\n"
            "engine.store_document('c', doc(elem('Item', elem('Code', 'I-1'),"
            " elem('Price', '5.0')), name='d.xml'))\n"
            "summary = engine.store.collection('c').index.values.summary()\n"
            "print(sorted((label, list(entry.keys))"
            " for label, entry in summary.labels.items()))\n"
        )
        source = str(Path(__file__).resolve().parent.parent / "src")
        outputs = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={"PYTHONPATH": source, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(outputs) == 1 and "Code" in outputs.pop()

    def test_drivers_without_a_visible_index_report_no_summary(self):
        from repro.partix.driver import MiniXDriver

        driver = MiniXDriver()
        assert driver.value_summary("never-created") is None
        assert PartixDriver.value_summary(driver, "anything") is None

    def test_retired_values_leave_the_summary(self):
        engine = XMLEngine("s")
        engine.store_document("c", _item(1))
        engine.store_document("c", _item(2))
        engine.retain_documents("c", ["item-0002.xml"])
        summary = engine.store.collection("c").index.values.summary()
        assert summary.proves_empty(eq("/Item/Code", "I-0001"))
        assert not summary.proves_empty(eq("/Item/Code", "I-0002"))


# ----------------------------------------------------------------------
# Localization
# ----------------------------------------------------------------------
class TestLocalization:
    def test_point_lookup_plans_one_lane(self):
        partix = _published(_item(i) for i in range(1, 41))
        plan = partix.explain(_lookup("I-0006"), "Citems")
        assert [sub.fragment for sub in plan.subqueries] == ["F3"]
        assert plan.summary_pruned == ["F1", "F2", "F4"]
        assert plan.render().endswith(
            "note: pruned fragments (value summary): F1, F2, F4"
        )
        _assert_matches_centralized(partix, _lookup("I-0006"))

    def test_contradiction_and_summary_are_separate_notes(self):
        partix = _published(_item(i) for i in range(1, 41))
        query = (
            'for $i in collection("Citems")/Item where $i/Section != "CD"'
            ' and $i/Price = 60 return $i/Code/text()'
        )
        plan = partix.explain(query, "Citems")
        assert "pruned fragments (predicate contradiction): F1" in plan.notes
        assert plan.summary_pruned == ["F2", "F4"]
        _assert_matches_centralized(partix, query)

    @pytest.mark.parametrize(
        "where",
        [
            '$i/Rating = 5',
            '$i/Rating = "5"',
            '$i/Rating = "05"',
            '$i/Price < 10',
            '$i/Price <= 10',
            '$i/Price >= 400',
            '$i/Price > 400',
            '$i/Code = "I-0003" or $i/Section != "DVD"',
            '$i/Code = "I-0003" or $i/Code = "I-0004"',
            '$i/Code != "I-0003"',
            'not($i/Code = "I-0003")',
            '$i/Spec = "ab"',
            '$i/Spec = "nothing"',
        ],
    )
    def test_answers_match_the_centralized_bytes(self, where):
        documents = [
            _item(i, rating=("5.0", "05", "4", "x")[i % 4]) for i in range(1, 41)
        ]
        documents[2].root.append(elem("Spec", elem("Part", "a"), elem("Part", "b")))
        documents[7].root.append(elem("Spec", "nothing"))
        partix = _published(documents)
        for ret in ("$i/Code/text()", "$i"):
            _assert_matches_centralized(
                partix,
                f'for $i in collection("Citems")/Item where {where} return {ret}',
            )
        _assert_matches_centralized(
            partix,
            f'count(for $i in collection("Citems")/Item where {where} return $i)',
        )

    def test_unprunable_predicates_keep_every_lane(self):
        partix = _published(_item(i) for i in range(1, 41))
        for where in (
            '$i/Code != "I-0003"',
            'not($i/Code = "I-0003")',
            '$i/Code = "I-0003" or contains($i/Name, "7")',
            'contains($i/Code, "I-0003")',
        ):
            plan = partix.explain(
                f'for $i in collection("Citems")/Item where {where} return $i',
                "Citems",
            )
            assert len(plan.subqueries) == 4 and not plan.summary_pruned, where

    def test_every_fragment_pruned_answers_empty_or_the_identity(self):
        partix = _published(_item(i) for i in range(1, 41))
        absent = '$i/Code = "I-9999"'
        flwor = f'for $i in collection("Citems")/Item where {absent} return $i'
        for query, expected in (
            (flwor, ""),
            (f"count({flwor})", "0"),
            (f"sum({flwor}/Price)", "0"),
            (f'exists(collection("Citems")/Item[Code = "I-9999"])', "false"),
            (f'empty(collection("Citems")/Item[Code = "I-9999"])', "true"),
        ):
            plan = partix.explain(query, "Citems")
            assert plan.subqueries == [], query
            assert plan.summary_pruned == ["F1", "F2", "F3", "F4"]
            result = _assert_matches_centralized(partix, query)
            assert result.result_text == expected

    def test_a_replica_without_summary_is_never_pruned(self):
        class NoSummaryDriver(PartixDriver):
            """Forwards to a live driver, reports no summary — as a
            driver for a remote DBMS does."""

            def __init__(self, inner):
                self.inner = inner

            def create_collection(self, name):
                self.inner.create_collection(name)

            def store_document(self, collection, document, name=None, origin=None):
                self.inner.store_document(collection, document, name, origin)

            def execute(self, query, options=None):
                return self.inner.execute(query, options)

            def document_count(self, collection):
                return self.inner.document_count(collection)

            def collection_bytes(self, collection):
                return self.inner.collection_bytes(collection)

            def retain_documents(self, collection, keep):
                self.inner.retain_documents(collection, keep)

        collection = Collection("Citems", [_item(i) for i in range(1, 41)])
        cluster = Cluster.with_sites(4)
        site = cluster.site("site1")
        site.driver = NoSummaryDriver(site.driver)
        partix = Partix(cluster)
        partix.publish(collection, _design())
        catalog = partix.distribution_catalog
        assert catalog.statistics("Citems", "F2", "site1").summary is None
        assert catalog.statistics("Citems", "F1", "site0").summary is not None
        plan = partix.explain(_lookup("I-0006"), "Citems")
        assert [sub.fragment for sub in plan.subqueries] == ["F2", "F3"]

    def test_vertical_plans_carry_no_summary_note(self, papers_collection):
        from repro.workloads import xbench_vertical_fragmentation

        query = (
            'for $a in collection("Cpapers")/article'
            ' where $a/prolog/genre = "none" return $a/prolog/title'
        )
        partix = Partix(Cluster.with_sites(4))
        partix.publish(papers_collection, xbench_vertical_fragmentation("Cpapers"))
        plan = partix.explain(query, papers_collection.name)
        assert plan.subqueries and not plan.summary_pruned

    def test_hybrid_unit_lookups_are_routed_by_value(self, store_collection):
        from repro.workloads import store_hybrid_fragmentation

        # The unit fragments take the horizontal rule: F2's summary
        # proves no unit holds the Code. F3 holds no unit at all, so its
        # summary records no Code and proves nothing.
        query = (
            'for $i in collection("Cstore")/Store/Items/Item'
            ' where $i/Code = "I-999" return $i/Name'
        )
        partix = Partix(Cluster.with_sites(4))
        partix.publish(store_collection, store_hybrid_fragmentation(2, "Cstore"))
        plan = partix.explain(query, store_collection.name)
        assert plan.summary_pruned == ["F2"]
        assert [sub.fragment for sub in plan.subqueries] == ["F3"]


# ----------------------------------------------------------------------
# The superset invariant under every write path
# ----------------------------------------------------------------------
class TestWritePaths:
    def test_republish_with_fresh_values(self):
        partix = _published(_item(i) for i in range(1, 21))
        old, new = _lookup("I-0006"), _lookup("I-0106")
        assert partix.execute(old, collection="Citems").result_text == "name 6"
        assert partix.execute(new, collection="Citems").result_text == ""
        fresh = Collection("Citems", [_item(i) for i in range(101, 121)])
        partix.publish(fresh, _design(), replace=True)
        retired = partix.execute(old, collection="Citems")
        assert retired.result_text == "" and retired.plan.subqueries == []
        found = partix.execute(new, collection="Citems")
        assert found.result_text == "name 106"
        assert len(found.plan.subqueries) == 1

    def test_lookups_after_each_migration(self):
        partix = _published((_item(i) for i in range(1, 41)), sites=6)
        rebalancer = Rebalancer(partix)
        queries = [_lookup(f"I-{i:04d}") for i in (1, 2, 3, 4, 17, 9999)]
        queries.append(
            'for $i in collection("Citems")/Item where $i/Price >= 390'
            " return $i/Code/text()"
        )

        def check():
            for query in queries:
                _assert_matches_centralized(partix, query)
            return partix.explain(queries[0], "Citems")

        assert len(check().subqueries) == 1
        report = rebalancer.split("Citems", "F2", path="/Item/Price")
        assert report.completed
        plan = check()
        assert len(plan.subqueries) == 1
        assert plan.subqueries[0].fragment in report.new_fragments
        assert len(plan.summary_pruned) == 4
        assert rebalancer.move("Citems", "F1", "site4").completed
        assert rebalancer.replicate("Citems", "F3", "site5").completed
        check()
        # Promote the replica: its own recorded summary now routes.
        assert rebalancer.move("Citems", "F3", "site5").kind == "promote"
        check()
        merged = rebalancer.merge("Citems", *report.new_fragments)
        assert merged.completed
        plan = check()
        assert plan.subqueries[0].fragment == merged.new_fragments[0]
        assert plan.summary_pruned == ["F1", "F3", "F4"]

    def test_publish_after_start_tcp_is_routed_and_answered_over_tcp(self):
        partix = _published(_item(i) for i in range(1, 13))
        modes = ("simulated", "tcp")
        partix.start_tcp()
        try:
            _assert_matches_centralized(partix, _lookup("I-0003"), modes)
            fresh = Collection("Citems", [_item(i) for i in range(101, 113)])
            partix.publish(fresh, _design(), replace=True)
            partix.cluster.site(CENTRAL).driver.retain_documents("Citems", [])
            partix.publish_centralized(fresh, CENTRAL)
            for code in ("I-0003", "I-0103"):
                result = _assert_matches_centralized(partix, _lookup(code), modes)
                assert len(result.plan.subqueries) == (code == "I-0103")
            assert result.wire_measured and result.result_text == "name 103"
        finally:
            partix.close()
