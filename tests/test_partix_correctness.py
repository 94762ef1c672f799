"""Unit tests for the correctness rules of §3.3."""

import pytest

from repro.datamodel import Collection, doc, elem
from repro.errors import CorrectnessViolation
from repro.partix import (
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    VerticalFragment,
    symbolic_report,
    verify_fragmentation,
)
from repro.paths import And, TruePredicate, contains, eq, ne


def make_items(sections):
    return Collection(
        "c",
        [
            doc(elem("Item", elem("Code", f"I{i}"), elem("Section", s)),
                name=f"i{i}.xml")
            for i, s in enumerate(sections)
        ],
    )


class TestHorizontalRules:
    def test_complement_design_is_correct(self):
        collection = make_items(["CD", "DVD", "CD"])
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "c", predicate=ne("/Item/Section", "CD")),
        ])
        report = verify_fragmentation(schema, collection)
        assert report.ok

    def test_incomplete_design_detected(self):
        collection = make_items(["CD", "Book"])
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "c", predicate=eq("/Item/Section", "DVD")),
        ])
        report = verify_fragmentation(schema, collection)
        assert not report.complete
        assert not report.ok
        assert "no fragment predicate" in report.violations[0]

    def test_overlapping_design_detected(self):
        collection = make_items(["CD"])
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "c", predicate=TruePredicate()),
        ])
        report = verify_fragmentation(schema, collection)
        assert not report.disjoint

    def test_raise_if_invalid(self):
        collection = make_items(["Book"])
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
        ])
        report = verify_fragmentation(schema, collection)
        with pytest.raises(CorrectnessViolation) as info:
            report.raise_if_invalid()
        assert info.value.rule == "completeness"

    def test_checking_leaves_the_collection_unchanged(self):
        from repro.xmltext import serialize

        collection = make_items(["CD", "DVD", "CD"])
        before = [serialize(d) for d in collection]
        for second in (ne("/Item/Section", "CD"), TruePredicate()):
            verify_fragmentation(FragmentationSchema("c", [
                HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
                HorizontalFragment("F2", "c", predicate=second),
            ]), collection)
        assert [serialize(d) for d in collection] == before

    def test_reconstruction_checked(self):
        collection = make_items(["CD", "DVD"])
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "c", predicate=ne("/Item/Section", "CD")),
        ])
        report = verify_fragmentation(schema, collection)
        assert report.reconstructible


class TestVerticalRules:
    def _article(self, i=0):
        return doc(
            elem("article",
                 elem("prolog", elem("title", f"t{i}")),
                 elem("body", elem("p", f"b{i}")),
                 elem("epilog", elem("country", "BR"))),
            name=f"a{i}.xml",
        )

    def test_xbench_design_correct_with_root_note(self):
        collection = Collection("c", [self._article(i) for i in range(3)])
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/article/prolog"),
            VerticalFragment("F2", "c", path="/article/body"),
            VerticalFragment("F3", "c", path="/article/epilog"),
        ], root_label="article")
        report = verify_fragmentation(schema, collection)
        assert report.ok
        assert any("chain node" in note for note in report.notes)

    def test_strict_nodes_flags_uncovered_root(self):
        collection = Collection("c", [self._article()])
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/article/prolog"),
            VerticalFragment("F2", "c", path="/article/body"),
            VerticalFragment("F3", "c", path="/article/epilog"),
        ], root_label="article")
        report = verify_fragmentation(schema, collection, strict_nodes=True)
        assert not report.complete

    def test_missing_leaf_data_detected(self):
        collection = Collection("c", [self._article()])
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/article/prolog"),
            VerticalFragment("F2", "c", path="/article/body"),
            # epilog (with real data) is in no fragment
        ], root_label="article")
        report = verify_fragmentation(schema, collection)
        assert not report.complete

    def test_overlapping_projections_detected(self):
        collection = Collection("c", [self._article()])
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/article"),  # everything
            VerticalFragment("F2", "c", path="/article/body"),
        ], root_label="article")
        report = verify_fragmentation(schema, collection)
        assert not report.disjoint

    def test_prune_complement_design_correct(self):
        collection = Collection("c", [self._article()])
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/article", prune=("/article/body",)),
            VerticalFragment("F2", "c", path="/article/body"),
        ], root_label="article")
        report = verify_fragmentation(schema, collection)
        assert report.ok


class TestHybridRules:
    def test_store_design_correct(self, store_collection):
        schema = FragmentationSchema("Cstore", [
            VerticalFragment("F1", "Cstore", path="/Store",
                             prune=("/Store/Items",), stub_prunes=True),
            HybridFragment("F2", "Cstore", path="/Store/Items",
                           unit_label="Item", predicate=eq("/Item/Section", "CD")),
            HybridFragment("F3", "Cstore", path="/Store/Items",
                           unit_label="Item", predicate=ne("/Item/Section", "CD")),
        ], root_label="Store")
        report = verify_fragmentation(schema, store_collection)
        assert report.ok

    def test_incomplete_hybrid_detected(self, store_collection):
        schema = FragmentationSchema("Cstore", [
            VerticalFragment("F1", "Cstore", path="/Store",
                             prune=("/Store/Items",), stub_prunes=True),
            HybridFragment("F2", "Cstore", path="/Store/Items",
                           unit_label="Item", predicate=eq("/Item/Section", "CD")),
        ], root_label="Store")
        report = verify_fragmentation(schema, store_collection)
        assert not report.complete


class TestEdgeCaseRejections:
    """Each malformed design is rejected with its *specific* error: an
    empty design fails construction, overlap trips ``disjointness``, a
    dropped path trips ``completeness`` — never a generic failure."""

    def test_empty_fragment_list_rejected(self):
        from repro.errors import FragmentationError

        with pytest.raises(FragmentationError, match="needs fragments"):
            FragmentationSchema("c", [])

    def test_fragment_selecting_nothing_is_legal_but_noted(self):
        # An *empty* fragment (predicate matches no document) is not a
        # correctness violation — the design stays complete and disjoint.
        collection = make_items(["CD", "CD"])
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F2", "c", predicate=ne("/Item/Section", "CD")),
        ])
        report = verify_fragmentation(schema, collection)
        assert report.ok

    def test_overlapping_horizontal_predicates_rejected_as_disjointness(self):
        collection = make_items(["CD", "DVD"])
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/Item/Section", "CD")),
            # Overlaps F1 on every CD document and misses nothing else.
            HorizontalFragment("F2", "c", predicate=TruePredicate()),
        ])
        report = verify_fragmentation(schema, collection)
        assert report.complete  # the overlap is *only* a disjointness issue
        assert not report.disjoint
        with pytest.raises(CorrectnessViolation) as info:
            report.raise_if_invalid()
        assert info.value.rule == "disjointness"

    def test_vertical_design_dropping_required_path_rejected_as_completeness(self):
        collection = Collection("c", [
            doc(elem("article",
                     elem("prolog", elem("title", "t")),
                     elem("body", elem("p", "data lives here"))),
                name="a.xml"),
        ])
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/article/prolog"),
            # /article/body carries real data but belongs to no fragment.
        ], root_label="article")
        report = verify_fragmentation(schema, collection)
        assert report.disjoint  # dropping a path is *only* a completeness issue
        assert not report.complete
        with pytest.raises(CorrectnessViolation) as info:
            report.raise_if_invalid()
        assert info.value.rule == "completeness"

    def test_hybrid_overlapping_unit_predicates_rejected(self, store_collection):
        schema = FragmentationSchema("Cstore", [
            VerticalFragment("F1", "Cstore", path="/Store",
                             prune=("/Store/Items",), stub_prunes=True),
            HybridFragment("F2", "Cstore", path="/Store/Items",
                           unit_label="Item", predicate=eq("/Item/Section", "CD")),
            HybridFragment("F3", "Cstore", path="/Store/Items",
                           unit_label="Item", predicate=TruePredicate()),
        ], root_label="Store")
        report = verify_fragmentation(schema, store_collection)
        assert not report.disjoint
        with pytest.raises(CorrectnessViolation) as info:
            report.raise_if_invalid()
        assert info.value.rule == "disjointness"


class TestSymbolicReport:
    def test_complement_pair_proves_coverage(self):
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=eq("/a/b", "x")),
            HorizontalFragment("F2", "c", predicate=ne("/a/b", "x")),
        ])
        report = symbolic_report(schema)
        assert report.notes == []

    def test_unprovable_coverage_noted(self):
        schema = FragmentationSchema("c", [
            HorizontalFragment("F1", "c", predicate=contains("/a/b", "x")),
            HorizontalFragment("F2", "c", predicate=contains("/a/b", "y")),
        ])
        report = symbolic_report(schema)
        assert any("completeness" in note for note in report.notes)
        assert any("disjointness" in note for note in report.notes)

    def test_nested_verticals_without_prune_noted(self):
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/a"),
            VerticalFragment("F2", "c", path="/a/b"),
        ])
        report = symbolic_report(schema)
        assert any("may overlap" in note for note in report.notes)

    def test_nested_verticals_with_prune_silent(self):
        schema = FragmentationSchema("c", [
            VerticalFragment("F1", "c", path="/a", prune=("/a/b",)),
            VerticalFragment("F2", "c", path="/a/b"),
        ])
        report = symbolic_report(schema)
        assert not any("overlap" in note for note in report.notes)
