"""Unit tests for the TLC-style algebra: σ, π, ∪, ⋈, composition."""

import pytest

from repro.algebra import (
    PXID,
    PXPARENT,
    Projection,
    Selection,
    annotate,
    compose,
    read_annotation,
    reconstruct_documents,
    reconstruct_one,
    strip_annotations,
    union_documents,
)
from repro.datamodel import Collection, XMLDocument, doc, elem
from repro.errors import CorrectnessViolation, FragmentationError
from repro.paths import eq, ne
from repro.xmltext import parse_xml, serialize


@pytest.fixture
def item():
    return doc(
        elem(
            "Item",
            elem("Code", "I-1"),
            elem("Name", "Abbey Road"),
            elem("Section", "CD"),
            elem("PictureList", elem("Picture", elem("Name", "p1"))),
            elem("PricesHistory", elem("PriceHistory", elem("Price", "9.99"))),
        ),
        name="item.xml",
    )


class TestSelection:
    def test_keeps_matching_document(self, item):
        produced = Selection(eq("/Item/Section", "CD")).apply(item)
        assert len(produced) == 1
        assert produced[0].tree_equal(item)

    def test_drops_non_matching(self, item):
        assert Selection(eq("/Item/Section", "DVD")).apply(item) == []

    def test_result_is_the_document_itself(self, item):
        produced = Selection(eq("/Item/Section", "CD")).apply(item)[0]
        assert produced is item

    def test_apply_collection(self, item):
        other = doc(elem("Item", elem("Section", "DVD")), name="other.xml")
        collection = Collection("c", [item, other])
        produced = Selection(eq("/Item/Section", "CD")).apply_collection(collection)
        assert [d.name for d in produced] == ["item.xml"]


class TestProjection:
    def test_projects_subtree(self, item):
        produced = Projection("/Item/PictureList").apply(item)
        assert len(produced) == 1
        assert produced[0].root.label == "PictureList"
        assert produced[0].origin == "item.xml"

    def test_no_match_produces_nothing(self):
        bare = doc(elem("Item", elem("Code", "I-2")), name="b.xml")
        assert Projection("/Item/PictureList").apply(bare) == []

    def test_annotations_on_projected_root(self, item):
        produced = Projection("/Item/PictureList").apply(item)[0]
        assert read_annotation(produced.root, PXID) is not None
        assert read_annotation(produced.root, PXPARENT) == 0  # Item is id 0

    def test_prune_removes_subtree(self, item):
        produced = Projection("/Item", prune=["/Item/PictureList"]).apply(item)[0]
        assert produced.root.first_child("PictureList") is None
        assert produced.root.first_child("PricesHistory") is not None

    def test_prune_must_be_contained_in_path(self):
        with pytest.raises(FragmentationError, match="not contained"):
            Projection("/Item/PictureList", prune=["/Item/Code"])

    def test_multiple_matches_rejected_by_default(self):
        document = doc(elem("a", elem("b"), elem("b")))
        with pytest.raises(FragmentationError, match="Definition 3"):
            Projection("/a/b").apply(document)

    def test_allow_multiple_yields_one_doc_per_node(self):
        document = doc(elem("a", elem("b", "1"), elem("b", "2")), name="d.xml")
        produced = Projection("/a/b", allow_multiple=True).apply(document)
        assert len(produced) == 2
        assert produced[0].name == "d.xml#0"

    def test_cut_point_annotated_with_children(self, item):
        produced = Projection("/Item", prune=["/Item/PictureList"]).apply(item)[0]
        # The Item root lost a child: it and its remaining element children
        # carry pxid for order-preserving grafts.
        assert read_annotation(produced.root, PXID) == 0
        for child in produced.root.element_children():
            assert read_annotation(child, PXID) is not None

    def test_stub_prunes_leave_placeholder(self, item):
        produced = Projection(
            "/Item", prune=["/Item/PictureList"], stub_prunes=True
        ).apply(item)[0]
        stub = produced.root.first_child("PictureList")
        assert stub is not None
        assert stub.element_children() == []
        assert read_annotation(stub, PXID) is not None

    def test_positional_path_projects_single(self):
        document = doc(elem("a", elem("b", "1"), elem("b", "2")))
        produced = Projection("/a/b[2]").apply(document)
        assert len(produced) == 1
        assert produced[0].root.text_value() == "2"


class TestComposition:
    def test_project_then_select(self, item):
        operator = compose(
            Projection("/Item/PictureList"),
            Selection(eq("/PictureList/Picture/Name", "p1")),
        )
        assert len(operator.apply(item)) == 1

    def test_select_then_project(self, item):
        operator = compose(
            Selection(eq("/Item/Section", "CD")),
            Projection("/Item/PictureList"),
        )
        produced = operator.apply(item)
        assert len(produced) == 1 and produced[0].root.label == "PictureList"

    def test_str_shows_order(self, item):
        operator = compose(Projection("/Item"), Selection(eq("/Item/Code", "x")))
        assert "•" in str(operator)


class TestUnion:
    def test_union_restores_collection(self, item):
        other = doc(elem("Item", elem("Section", "DVD")), name="other.xml")
        collection = Collection("c", [item, other])
        cd = Selection(eq("/Item/Section", "CD")).apply_collection(collection)
        rest = Selection(ne("/Item/Section", "CD")).apply_collection(collection)
        merged = union_documents([cd, rest])
        assert sorted(d.name for d in merged) == ["item.xml", "other.xml"]

    def test_union_detects_overlap(self, item):
        with pytest.raises(CorrectnessViolation, match="disjointness"):
            union_documents([[item], [item]])

    def test_union_overlap_tolerated_when_unchecked(self, item):
        merged = union_documents([[item], [item]], check_disjoint=False)
        assert len(merged) == 1

    def test_union_is_order_insensitive(self, item):
        other = doc(elem("Item"), name="a.xml")
        names1 = [d.name for d in union_documents([[item], [other]])]
        names2 = [d.name for d in union_documents([[other], [item]])]
        assert names1 == names2


class TestJoinReconstruction:
    def _roundtrip(self, parts, **kwargs):
        """Serialize + reparse parts (as a driver would) then join."""
        reparsed = []
        for part in parts:
            document = parse_xml(serialize(part), name=part.name)
            document.origin = part.origin
            reparsed.append(document)
        return reconstruct_one(reparsed, **kwargs)

    def test_prune_complement_roundtrip(self, item):
        f1 = Projection("/Item", prune=["/Item/PictureList"]).apply(item)
        f2 = Projection("/Item/PictureList").apply(item)
        rebuilt = self._roundtrip(f1 + f2, origin="item.xml")
        assert rebuilt.tree_equal(item)

    def test_order_restored_regardless_of_part_order(self, item):
        f1 = Projection("/Item", prune=["/Item/PricesHistory"]).apply(item)
        f2 = Projection("/Item/PricesHistory").apply(item)
        rebuilt = self._roundtrip(f2 + f1, origin="item.xml")
        assert rebuilt.tree_equal(item)

    def test_rootless_design_synthesizes_root(self):
        article = doc(
            elem("article", elem("prolog", elem("t", "x")), elem("body", elem("p", "y"))),
            name="a.xml",
        )
        parts = (
            Projection("/article/prolog").apply(article)
            + Projection("/article/body").apply(article)
        )
        rebuilt = self._roundtrip(parts, root_label="article")
        assert rebuilt.tree_equal(article)

    def test_rootless_without_label_fails(self):
        article = doc(elem("article", elem("prolog"), elem("body")), name="a.xml")
        parts = Projection("/article/prolog").apply(article)
        with pytest.raises(FragmentationError, match="root label"):
            reconstruct_one(parts)

    def test_stub_replaced_by_full_node(self, item):
        f1 = Projection(
            "/Item", prune=["/Item/PictureList"], stub_prunes=True
        ).apply(item)
        f2 = Projection("/Item/PictureList").apply(item)
        rebuilt = self._roundtrip(f1 + f2, origin="item.xml")
        assert rebuilt.tree_equal(item)

    def test_graft_under_stub(self, item):
        # Units grafted under a stubbed container (the StoreHyb pattern).
        store = doc(
            elem("Store", elem("Meta", elem("x", "1")),
                 elem("Items", elem("Item", elem("Code", "1")), elem("Item", elem("Code", "2")))),
            name="s.xml",
        )
        remainder = Projection("/Store", prune=["/Store/Items"], stub_prunes=True).apply(store)
        units = Projection("/Store/Items/Item", allow_multiple=True).apply(store)
        rebuilt = self._roundtrip(remainder + units, origin="s.xml")
        assert rebuilt.tree_equal(store)

    def test_missing_parent_raises(self, item):
        # A deep part whose graft parent (inside Item, not the root) is
        # provided by no fragment must be reported.
        orphan = Projection("/Item/PictureList/Picture[1]").apply(item)
        skeleton = Projection("/Item", prune=["/Item/PictureList"]).apply(item)
        with pytest.raises(FragmentationError, match="grafts under"):
            reconstruct_one(skeleton + orphan, origin="item.xml")

    def test_overlapping_skeletons_rejected(self, item):
        full = Projection("/Item").apply(item)
        with pytest.raises(FragmentationError, match="overlapping"):
            reconstruct_one(full + full, origin="item.xml")

    def test_fragmode2_root_claims_merge(self):
        # FragMode2 hybrid parts ship the whole root→region spine, so the
        # remainder and every hybrid part claim the root; same-pxid claims
        # must merge back into the original document (fuzz-found bug).
        from repro.partix.fragments import HybridFragment
        from repro.partix.publisher import DataPublisher
        from repro.paths.predicates import eq, ne

        store = doc(
            elem("Store", elem("Meta", elem("x", "1")),
                 elem("Items",
                      elem("Item", elem("Code", "1"), elem("Section", "CD")),
                      elem("Item", elem("Code", "2"), elem("Section", "DVD")),
                      elem("Item", elem("Code", "3"), elem("Section", "CD")))),
            name="s.xml",
        )
        remainder = Projection(
            "/Store", prune=["/Store/Items"], stub_prunes=True
        ).apply(store)
        publisher = DataPublisher.__new__(DataPublisher)  # no cluster needed
        parts = list(remainder)
        for name, predicate in (
            ("F2", eq("/Item/Section", "CD")),
            ("F3", ne("/Item/Section", "CD")),
        ):
            fragment = HybridFragment(
                name, "c", path="/Store/Items", unit_label="Item",
                predicate=predicate,
            )
            part = publisher._materialize_single_document(fragment, store)
            assert part is not None
            parts.append(part)
        rebuilt = self._roundtrip(parts, origin="s.xml")
        assert rebuilt.tree_equal(store)

    def test_reconstruct_documents_groups_by_origin(self):
        docs = [
            doc(elem("a", elem("p", elem("t", str(i))), elem("q", elem("u", str(i)))), name=f"d{i}.xml")
            for i in range(3)
        ]
        parts = []
        for document in docs:
            parts.extend(Projection("/a/p").apply(document))
            parts.extend(Projection("/a/q").apply(document))
        rebuilt = reconstruct_documents(parts, root_label="a")
        assert len(rebuilt) == 3
        for original, restored in zip(docs, rebuilt):
            assert restored.tree_equal(original)

    def test_empty_parts_rejected(self):
        with pytest.raises(FragmentationError):
            reconstruct_one([])


class TestAnnotations:
    def test_annotate_and_read(self):
        node = elem("a")
        annotate(node, PXID, 7)
        assert read_annotation(node, PXID) == 7
        annotate(node, PXID, 9)  # replace
        assert read_annotation(node, PXID) == 9
        assert len(node.attributes()) == 1

    def test_strip_annotations(self):
        node = elem("a", elem("b"), id="1")
        annotate(node, PXID, 1)
        annotate(node.element_children()[0], PXPARENT, 0)
        stripped = strip_annotations(node)
        assert read_annotation(stripped, PXID) is None
        assert stripped.get_attribute("id") == "1"
        assert read_annotation(stripped.element_children()[0], PXPARENT) is None
