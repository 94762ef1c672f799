"""Unit tests for the Distributed XML Data Publisher."""

import pytest

from repro.cluster import Cluster
from repro.errors import CorrectnessViolation
from repro.partix import (
    DataPublisher,
    FragMode,
    FragmentAllocation,
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    VerticalFragment,
)
from repro.paths import eq, ne


@pytest.fixture
def cluster():
    return Cluster.with_sites(3)


def items_design():
    return FragmentationSchema("Citems", [
        HorizontalFragment("F1", "Citems", predicate=eq("/Item/Section", "CD")),
        HorizontalFragment("F2", "Citems", predicate=eq("/Item/Section", "DVD")),
        HorizontalFragment("F3", "Citems", predicate=(
            ne("/Item/Section", "CD") & ne("/Item/Section", "DVD"))),
    ], root_label="Item")


class TestHorizontalPublication:
    def test_round_robin_allocation(self, cluster, items_collection):
        publisher = DataPublisher(cluster)
        report = publisher.publish(items_collection, items_design())
        assert [f.site for f in report.fragments] == ["site0", "site1", "site2"]
        assert report.total_documents == len(items_collection)

    def test_documents_routed_by_predicate(self, cluster, items_collection):
        publisher = DataPublisher(cluster)
        report = publisher.publish(items_collection, items_design())
        by_fragment = {f.fragment: f.documents for f in report.fragments}
        assert by_fragment == {"F1": 4, "F2": 4, "F3": 4}

    def test_explicit_allocation_honoured(self, cluster, items_collection):
        publisher = DataPublisher(cluster)
        allocations = [
            FragmentAllocation("F1", "site2", "cd-frag"),
            FragmentAllocation("F2", "site2", "dvd-frag"),
            FragmentAllocation("F3", "site0", "rest-frag"),
        ]
        publisher.publish(items_collection, items_design(), allocations=allocations)
        assert cluster.site("site2").driver.document_count("cd-frag") == 4
        assert cluster.site("site2").driver.document_count("dvd-frag") == 4

    def test_catalog_registered(self, cluster, items_collection):
        publisher = DataPublisher(cluster)
        publisher.publish(items_collection, items_design())
        assert publisher.catalog.is_fragmented("Citems")
        assert publisher.catalog.allocation("Citems", "F2").site == "site1"

    def test_verify_blocks_bad_design(self, cluster, items_collection):
        bad = FragmentationSchema("Citems", [
            HorizontalFragment("F1", "Citems", predicate=eq("/Item/Section", "CD")),
        ], root_label="Item")
        publisher = DataPublisher(cluster)
        with pytest.raises(CorrectnessViolation):
            publisher.publish(items_collection, bad, verify=True)

    def test_publish_centralized(self, cluster, items_collection):
        publisher = DataPublisher(cluster)
        publication = publisher.publish_centralized(items_collection, "site0")
        assert publication.documents == len(items_collection)
        assert cluster.site("site0").driver.document_count("Citems") == 12


class TestVerticalPublication:
    def test_fragment_docs_carry_origin(self, cluster, papers_collection):
        publisher = DataPublisher(cluster)
        design = FragmentationSchema("Cpapers", [
            VerticalFragment("F1", "Cpapers", path="/article/prolog"),
            VerticalFragment("F2", "Cpapers", path="/article/body"),
            VerticalFragment("F3", "Cpapers", path="/article/epilog"),
        ], root_label="article")
        publisher.publish(papers_collection, design)
        result = cluster.site("site0").execute('collection("F1")/prolog')
        assert 'pxorigin="article-000.xml"' in result.result_text

    def test_each_fragment_holds_all_documents(self, cluster, papers_collection):
        publisher = DataPublisher(cluster)
        design = FragmentationSchema("Cpapers", [
            VerticalFragment("F1", "Cpapers", path="/article/prolog"),
            VerticalFragment("F2", "Cpapers", path="/article/body"),
            VerticalFragment("F3", "Cpapers", path="/article/epilog"),
        ], root_label="article")
        report = publisher.publish(papers_collection, design)
        assert all(f.documents == len(papers_collection) for f in report.fragments)


def store_design():
    return FragmentationSchema("Cstore", [
        VerticalFragment("F1", "Cstore", path="/Store",
                         prune=("/Store/Items",), stub_prunes=True),
        HybridFragment("F2", "Cstore", path="/Store/Items",
                       unit_label="Item", predicate=eq("/Item/Section", "CD")),
        HybridFragment("F3", "Cstore", path="/Store/Items",
                       unit_label="Item", predicate=ne("/Item/Section", "CD")),
    ], root_label="Store")


class TestHybridPublication:
    def test_fragmode1_independent_documents(self, cluster, store_collection):
        publisher = DataPublisher(cluster)
        report = publisher.publish(
            store_collection, store_design(),
            frag_mode=FragMode.INDEPENDENT_DOCUMENTS,
        )
        by_fragment = {f.fragment: f.documents for f in report.fragments}
        # 9 items: 3 CD + 6 others; each its own document in mode 1.
        assert by_fragment["F2"] == 3
        assert by_fragment["F3"] == 6

    def test_fragmode2_single_document(self, cluster, store_collection):
        publisher = DataPublisher(cluster)
        report = publisher.publish(
            store_collection, store_design(), frag_mode=FragMode.SINGLE_DOCUMENT
        )
        by_fragment = {f.fragment: f.documents for f in report.fragments}
        assert by_fragment["F2"] == 1
        assert by_fragment["F3"] == 1

    def test_fragmode2_keeps_chain_shape(self, cluster, store_collection):
        publisher = DataPublisher(cluster)
        publisher.publish(store_collection, store_design())
        result = cluster.site("site1").execute(
            'count(collection("F2")/Store/Items/Item)'
        )
        assert result.result_text == "3"

    def test_catalog_records_hybrid_mode(self, cluster, store_collection):
        publisher = DataPublisher(cluster)
        publisher.publish(
            store_collection, store_design(),
            frag_mode=FragMode.INDEPENDENT_DOCUMENTS,
        )
        assert publisher.catalog.allocation("Cstore", "F2").hybrid_mode == 1

    def test_remainder_has_stub(self, cluster, store_collection):
        publisher = DataPublisher(cluster)
        publisher.publish(store_collection, store_design())
        result = cluster.site("site0").execute(
            'count(collection("F1")/Store/Items)'
        )
        assert result.result_text == "1"
        empty_items = cluster.site("site0").execute(
            'count(collection("F1")/Store/Items/Item)'
        )
        assert empty_items.result_text == "0"


class TestHomogeneityPrecondition:
    def test_heterogeneous_collection_rejected(self, cluster):
        from repro.datamodel import Collection, doc, elem
        from repro.errors import FragmentationError

        mixed = Collection(
            "Citems",
            [doc(elem("Item", elem("Section", "CD")), name="a.xml"),
             doc(elem("Other"), name="b.xml")],
        )
        publisher = DataPublisher(cluster)
        with pytest.raises(FragmentationError, match="homogeneous"):
            publisher.publish(mixed, items_design())

    def test_heterogeneous_allowed_when_waived(self, cluster):
        from repro.datamodel import Collection, doc, elem

        mixed = Collection(
            "Citems",
            [doc(elem("Item", elem("Section", "CD")), name="a.xml"),
             doc(elem("Other"), name="b.xml")],
        )
        publisher = DataPublisher(cluster)
        report = publisher.publish(
            mixed, items_design(), require_homogeneous=False
        )
        assert report.total_documents >= 1


class _QuotaDriver:
    """Delegates to a live driver; store_document fails after ``allow``
    calls — a disk-full halfway through a republish's store phase."""

    def __init__(self, inner, allow=1):
        self._inner = inner
        self._remaining = allow

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def store_document(self, collection, document, name=None, origin=None):
        if self._remaining <= 0:
            raise RuntimeError("simulated disk-full during the store phase")
        self._remaining -= 1
        return self._inner.store_document(
            collection, document, name=name, origin=origin
        )


class TestReplaceStoreThenSwap:
    """``replace=True`` is store-then-swap: a partial failure while the
    new fragments are being stored must leave the *old* design fully
    registered and answering queries."""

    def test_partial_failure_keeps_old_design_routable(self, items_collection):
        from repro.partix.middleware import Partix

        cluster = Cluster.with_sites(3)
        partix = Partix(cluster)
        partix.publish(items_collection, items_design())
        catalog = partix.distribution_catalog
        version = catalog.version
        queries = [
            'count(collection("Citems")/Item)',
            'for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" return $i',
        ]
        baselines = [
            partix.execute(q, execution_mode="simulated").result_text
            for q in queries
        ]

        replacement = FragmentationSchema("Citems", [
            HorizontalFragment(
                "G1", "Citems", predicate=eq("/Item/Section", "CD")
            ),
            HorizontalFragment(
                "G2", "Citems", predicate=ne("/Item/Section", "CD")
            ),
        ], root_label="Item")
        # G2 lands on site1 round-robin; fail its second document store.
        site = cluster.site("site1")
        site.driver = _QuotaDriver(site.driver, allow=1)
        with pytest.raises(RuntimeError, match="disk-full"):
            partix.publish(items_collection, replacement, replace=True)

        # The catalog never learned about the half-stored design.
        assert catalog.version == version
        design = catalog.fragmentation("Citems")
        assert design.fragment_names() == ["F1", "F2", "F3"]
        for query, expected in zip(queries, baselines):
            after = partix.execute(
                query, execution_mode="simulated"
            ).result_text
            assert after == expected


class TestReplaceReplaces:
    """``replace=True`` used to upsert by name and never delete: documents
    of the previous publication without a namesake in the same stored
    fragment stayed and kept matching queries (64 → 72 → 64 documents
    answered ``count`` = 93)."""

    COUNT = 'count(collection("Chot")/Item)'

    @staticmethod
    def _variant(count, seed):
        from repro.workloads.virtual_store import build_items_collection

        return build_items_collection(
            count, kind="small", seed=seed, name="Chot"
        )

    def test_shrinking_republish_leaves_no_stale_documents(self):
        from repro.partix.middleware import Partix
        from repro.workloads.virtual_store import (
            items_horizontal_fragmentation,
        )

        design = items_horizontal_fragmentation(4, "Chot")
        small, large = self._variant(64, 1), self._variant(72, 2)
        with Partix(Cluster.with_sites(4)) as partix:
            partix.publish(small, design)
            baseline = partix.execute(self.COUNT).result_text
            assert baseline == "64"
            for variant, expected in ((large, "72"), (small, "64")):
                report = partix.publish(variant, design, replace=True)
                assert partix.execute(self.COUNT).result_text == expected
                # Every stored fragment holds exactly what was written,
                # and the planner statistics say so too.
                for publication in report.fragments:
                    driver = partix.cluster.site(publication.site).driver
                    stored = driver.document_count(
                        publication.stored_collection
                    )
                    assert stored == publication.documents
                    statistics = partix.distribution_catalog.statistics(
                        "Chot", publication.fragment, publication.site
                    )
                    assert statistics.documents == publication.documents
                assert report.total_documents == int(expected)

    def test_republish_does_not_serve_a_cached_previous_tree(self):
        from repro.engine import XMLEngine

        engine = XMLEngine("republished")
        engine.store_document("c", "<a>1</a>", name="d.xml")
        assert engine.execute('collection("c")/a').result_text == "<a>1</a>"
        engine.store_document("c", "<a>2</a>", name="d.xml")
        assert engine.execute('collection("c")/a').result_text == "<a>2</a>"
        engine.store_document("c", "<a>3</a>", name="e.xml")
        engine.execute('collection("c")/a')
        engine.retain_documents("c", {"d.xml"})
        assert engine.execute('collection("c")/a').result_text == "<a>2</a>"


class TestNothingIsAliased:
    """σ hands the publisher the caller's own documents; what a site
    stores must not change when the caller later edits them."""

    QUERIES = [
        'collection("Citems")/Item',
        'for $i in collection("Citems")/Item where $i/Section = "CD"'
        " return $i/Name",
        'for $i in collection("Citems")/Item where contains($i/Description,'
        ' "good") return $i/Code',
        'count(collection("Citems")/Item[Release >= "2003-01-01"])',
    ]

    def test_editing_published_documents_changes_no_answer(self, items_collection):
        from repro.partix.middleware import Partix

        with Partix(Cluster.with_sites(3)) as partix:
            partix.publish(items_collection, items_design(), verify=True)
            before = [partix.execute(q).result_text for q in self.QUERIES]
            for document in items_collection:
                for node in document.nodes():
                    if node.value is not None:
                        node.value = "edited good 2009"
            after = [partix.execute(q).result_text for q in self.QUERIES]
        assert after == before
        assert "edited" not in "".join(after)
