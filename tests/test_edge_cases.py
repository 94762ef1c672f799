"""Cross-cutting edge cases: unicode, empty inputs, deep structures,
disk-backed distributed execution, and failure injection."""

import pytest

from repro.cluster import Cluster, Site
from repro.datamodel import Collection, XMLNode, doc, elem
from repro.engine import XMLEngine
from repro.errors import FragmentationError, XMLSyntaxError
from repro.partix import (
    FragmentationSchema,
    HorizontalFragment,
    MiniXDriver,
    Partix,
    VerticalFragment,
)
from repro.paths import eq, evaluate_path, ne
from repro.xmltext import parse_xml, serialize


class TestUnicode:
    def test_unicode_content_round_trips(self):
        document = doc(elem("ação", elem("título", "café São Paulo — ünïcødé ★")))
        assert parse_xml(serialize(document)).tree_equal(document)

    def test_unicode_in_queries(self):
        engine = XMLEngine("u")
        engine.store_document("c", serialize(doc(elem("a", elem("b", "café")))), name="d.xml")
        result = engine.execute(
            'for $x in collection("c")/a where contains($x/b, "café") return $x/b/text()'
        )
        assert result.result_text == "café"

    def test_unicode_fulltext_tokens(self):
        engine = XMLEngine("u2")
        engine.store_document("c", "<a>resume building</a>", name="d.xml")
        # ASCII tokenization only; non-ASCII needles cannot prune but must
        # not crash or lose results.
        result = engine.execute(
            'count(for $x in collection("c")/a where contains($x, "resume") return $x)'
        )
        assert result.result_text == "1"


class TestDeepAndWide:
    def test_deep_nesting_parses(self):
        depth = 300
        text = "".join(f"<n{i}>" for i in range(depth))
        text += "x"
        text += "".join(f"</n{i}>" for i in reversed(range(depth)))
        document = parse_xml(text)
        assert document.node_count() == depth + 1

    def test_wide_element_paths(self):
        root = elem("r", *[elem("c", str(i)) for i in range(500)])
        document = doc(root)
        assert len(evaluate_path("/r/c", document)) == 500
        assert evaluate_path("/r/c[500]", document)[0].text_value() == "499"

    def test_projection_of_wide_document(self):
        from repro.algebra import Projection

        root = elem("r", elem("keep", *[elem("x", str(i)) for i in range(200)]),
                    elem("drop", *[elem("y", str(i)) for i in range(200)]))
        document = doc(root, name="w.xml")
        produced = Projection("/r", prune=["/r/drop"]).apply(document)[0]
        assert produced.root.first_child("drop") is None
        # (element_children: the cut-point annotation adds an attribute)
        assert len(produced.root.first_child("keep").element_children()) == 200


class TestEmptyInputs:
    def test_empty_collection_query(self):
        engine = XMLEngine("e")
        engine.create_collection("c")
        result = engine.execute('count(collection("c")/a)')
        assert result.result_text == "0"

    def test_fragmenting_empty_collection(self):
        cluster = Cluster.with_sites(2)
        partix = Partix(cluster)
        design = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/a/b", "x")),
            HorizontalFragment("F2", "c", predicate=ne("/a/b", "x")),
        ], root_label="a")
        report = partix.publish(Collection("c"), design)
        assert report.total_documents == 0
        result = partix.execute('count(collection("c")/a)')
        assert result.result_text == "0"

    def test_vertical_fragment_with_no_matches_anywhere(self):
        cluster = Cluster.with_sites(2)
        partix = Partix(cluster)
        docs = [doc(elem("a", elem("p", "1")), name="d.xml")]
        design = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/a/p"),
            VerticalFragment("F2", "c", path="/a/q"),  # never present
        ], root_label="a")
        partix.publish(Collection("c", docs), design)
        result = partix.execute('collection("c")/a/p/text()')
        assert result.result_text == "1"


class TestDiskBackedCluster:
    def test_distributed_execution_survives_engine_restart(self, tmp_path):
        site_dir = tmp_path / "site0"
        engine = XMLEngine("site0", storage_dir=str(site_dir))
        cluster = Cluster([Site("site0", driver=MiniXDriver(engine))])
        partix = Partix(cluster)
        docs = [doc(elem("Item", elem("Section", "CD"), elem("Code", f"I{i}")),
                    name=f"d{i}.xml") for i in range(4)]
        design = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "c", predicate=ne("/Item/Section", "CD")),
        ], root_label="Item")
        partix.publish(Collection("c", docs), design)

        # "Restart" the site: a fresh engine over the same directory.
        reborn = XMLEngine("site0", storage_dir=str(site_dir))
        result = reborn.execute('count(collection("F1")/Item)')
        assert result.result_text == "4"


class TestFailureInjection:
    def test_malformed_stored_document_surfaces_clearly(self, tmp_path):
        # Every stored record gets its node table at put() time, so
        # corrupt text cannot sit in a collection until a query trips on
        # it: it is refused at ingestion, and an old on-disk store (bare
        # .xml, no .pxb table) holding it is refused when it is opened.
        engine = XMLEngine("f")
        with pytest.raises(XMLSyntaxError):
            engine.store_document("c", "<a><unclosed></a>", name="bad.xml")
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "bad.xml").write_bytes(b"<a><unclosed></a>")
        with pytest.raises(XMLSyntaxError):
            XMLEngine("f", storage_dir=str(tmp_path))

    def test_publishing_to_missing_site_fails(self, items_collection):
        from repro.partix import DataPublisher, FragmentAllocation

        cluster = Cluster.with_sites(1)
        publisher = DataPublisher(cluster)
        design = FragmentationSchema("Citems", [
            HorizontalFragment("F1", "Citems", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "Citems", predicate=ne("/Item/Section", "CD")),
        ], root_label="Item")
        from repro.errors import ClusterError

        with pytest.raises(ClusterError):
            publisher.publish(items_collection, design, allocations=[
                FragmentAllocation("F1", "site0", "F1"),
                FragmentAllocation("F2", "ghost-site", "F2"),
            ])

    def test_empty_cluster_publish_fails(self, items_collection):
        from repro.partix import DataPublisher

        publisher = DataPublisher(Cluster())
        design = FragmentationSchema("Citems", [
            HorizontalFragment("F1", "Citems", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "Citems", predicate=ne("/Item/Section", "CD")),
        ], root_label="Item")
        with pytest.raises(FragmentationError, match="no sites"):
            publisher.publish(items_collection, design)


class TestAnnotationTextSafety:
    def test_strip_annotation_text_only_touches_attributes(self):
        from repro.partix.composer import strip_annotation_text

        text = '<a pxid="3" pxparent="1" pxorigin="d.xml" keep="pxid">body pxid text</a>'
        stripped = strip_annotation_text(text)
        assert stripped == '<a keep="pxid">body pxid text</a>'

    def test_annotation_free_text_is_returned_as_the_same_object(self):
        # Every annotation name contains "px": text without it (any
        # answer from horizontal fragments) is never scanned or copied.
        from repro.partix.composer import strip_annotation_text

        text = "<Item><Code>17</Code><Note>p x, PX, p&amp;x</Note></Item>" * 50
        assert strip_annotation_text(text) is text
        assert strip_annotation_text("") == ""

    def test_px_inside_content_only_is_left_alone(self):
        from repro.partix.composer import strip_annotation_text

        text = '<img width="300px"><w>pxid="3" 12px</w></img>'
        assert strip_annotation_text(text) == text

    def test_annotated_vertical_and_hybrid_partials_strip_as_before(
        self, papers_collection, store_collection
    ):
        # The stored fragment documents are what `fetch` lanes ship: the
        # short-circuit must not change what the bare regex made of them.
        from repro.partix.composer import _ANNOTATION_RE, strip_annotation_text
        from repro.workloads import (
            store_hybrid_fragmentation,
            xbench_vertical_fragmentation,
        )

        annotated = 0
        for collection, design in (
            (papers_collection, xbench_vertical_fragmentation()),
            (store_collection, store_hybrid_fragmentation(2)),
        ):
            cluster = Cluster.with_sites(len(design))
            Partix(cluster).publish(collection, design)
            for site in cluster.sites():
                engine = site.driver.engine
                for name in engine.collection_names():
                    stored = engine.store.collection(name)
                    for doc_name in stored.names():
                        text = serialize(stored.get(doc_name).binary.root)
                        stripped = strip_annotation_text(text)
                        assert stripped == _ANNOTATION_RE.sub("", text)
                        if stripped != text:
                            annotated += 1
                            assert "pxorigin=" not in stripped
        assert annotated > 0

    def test_attribute_nodes_survive_constructor_copies(self):
        # Regression guard: constructor copies must not lose attributes.
        engine = XMLEngine("ann")
        engine.store_document("c", '<a id="9"><b>x</b></a>', name="d.xml")
        result = engine.execute(
            'for $x in collection("c")/a return element w { $x/@id }'
        )
        assert result.result_text == '<w id="9"/>'
