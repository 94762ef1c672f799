"""Unit tests for result composition."""

import re

import pytest

from repro.algebra import PXID, PXORIGIN, PXPARENT, annotate
from repro.datamodel import doc, elem
from repro.errors import DecompositionError
from repro.partix import CompositionSpec, ResultComposer, SubQuery
from repro.partix.composer import (
    fold_aggregate_values,
    parse_aggregate_partial,
    strip_annotation_text,
)
from repro.xmltext import serialize


def _sq(fragment="F1"):
    return SubQuery(fragment, "s0", fragment, "q")


@pytest.fixture
def composer():
    return ResultComposer()


class TestConcat:
    def test_joins_non_empty_chunks(self, composer):
        result = composer.compose(
            CompositionSpec(kind="concat"),
            [(_sq("F1"), "a\nb"), (_sq("F2"), ""), (_sq("F3"), "c")],
        )
        assert result.result_text == "a\nb\nc"
        assert result.result_bytes == 5

    def test_empty_partials(self, composer):
        result = composer.compose(CompositionSpec(kind="concat"), [])
        assert result.result_text == ""


class TestAggregate:
    def test_count_sums(self, composer):
        result = composer.compose(
            CompositionSpec(kind="aggregate", aggregate="count"),
            [(_sq(), "3"), (_sq(), "4")],
        )
        assert result.result_text == "7"

    def test_sum(self, composer):
        result = composer.compose(
            CompositionSpec(kind="aggregate", aggregate="sum"),
            [(_sq(), "1.5"), (_sq(), "2.5")],
        )
        assert result.result_text == "4"

    def test_min_max(self, composer):
        spec_min = CompositionSpec(kind="aggregate", aggregate="min")
        spec_max = CompositionSpec(kind="aggregate", aggregate="max")
        partials = [(_sq(), "5"), (_sq(), "2"), (_sq(), "9")]
        assert composer.compose(spec_min, partials).result_text == "2"
        assert composer.compose(spec_max, partials).result_text == "9"

    def test_min_over_empty_partials(self, composer):
        result = composer.compose(
            CompositionSpec(kind="aggregate", aggregate="min"),
            [(_sq(), ""), (_sq(), "")],
        )
        assert result.result_text == ""

    def test_avg_recombines_sum_count(self, composer):
        result = composer.compose(
            CompositionSpec(kind="aggregate", aggregate="avg"),
            [(_sq(), "10\n2"), (_sq(), "20\n3")],
        )
        assert result.result_text == "6"

    def test_avg_zero_count(self, composer):
        result = composer.compose(
            CompositionSpec(kind="aggregate", aggregate="avg"),
            [(_sq(), "0\n0")],
        )
        assert result.result_text == ""

    @pytest.mark.parametrize(
        "op, partial_texts, expected",
        [
            pytest.param("count", ["3", "0", "4"], "7", id="count"),
            pytest.param("sum", ["1.5", "2.25", "3"], "6.75", id="sum"),
            pytest.param("min", ["7", "", "3.5"], "3.5", id="min"),
            pytest.param("max", ["7", "", "9.25"], "9.25", id="max"),
            pytest.param(
                "avg", ["3.0 2", "", "5.0 1"], "2.6666666666666665", id="avg"
            ),
            pytest.param(
                "exists", ["false", "true", "false"], "true", id="exists-some"
            ),
            pytest.param(
                "exists", ["false", "false", "false"], "false", id="exists-none"
            ),
            pytest.param(
                "empty", ["true", "true", "true"], "true", id="empty-all"
            ),
            pytest.param(
                "empty", ["true", "false", "true"], "false", id="empty-some"
            ),
        ],
    )
    def test_folds_partials_some_of_them_empty(
        self, composer, op, partial_texts, expected
    ):
        result = composer.compose(
            CompositionSpec(kind="aggregate", aggregate=op),
            [(_sq(f"F{i}"), text) for i, text in enumerate(partial_texts)],
        )
        assert result.result_text == expected

    def test_float_sum_folds_in_the_order_given(self, composer):
        # The partials arrive in plan order and fold left to right, so
        # the answer's bytes do not depend on which lane finished first.
        spec = CompositionSpec(kind="aggregate", aggregate="sum")
        texts = ["0.1", "0.2", "0.3"]
        forward = composer.compose(spec, [(_sq(), t) for t in texts])
        backward = composer.compose(spec, [(_sq(), t) for t in texts[::-1]])
        assert forward.result_text == "0.6000000000000001"
        assert backward.result_text == "0.6"

    def test_sum_fold_is_associative_over_partial_grouping(self):
        # Folding [a, b, c] equals folding [fold([a, b]), c] for the ops
        # the decomposer pushes down (count/sum are plain sums).
        values = [[3.0], [4.0], [5.0]]
        whole, _ = fold_aggregate_values("sum", values)
        merged_text, _ = fold_aggregate_values("sum", values[:2])
        merged = parse_aggregate_partial("sum", merged_text)
        regrouped, _ = fold_aggregate_values("sum", [merged, values[2]])
        assert whole == regrouped

    def test_zero_partials_use_aggregate_identities(self, composer):
        # Every fragment pruned: exists() of nothing is false, empty() of
        # nothing is true, count is 0 — centralized empty-sequence
        # semantics.
        for op, expected in (
            ("exists", "false"), ("empty", "true"), ("count", "0")
        ):
            spec = CompositionSpec(kind="aggregate", aggregate=op)
            assert composer.compose(spec, []).result_text == expected

    def test_unknown_aggregate(self, composer):
        with pytest.raises(DecompositionError):
            composer.compose(
                CompositionSpec(kind="aggregate", aggregate="median"),
                [(_sq(), "1")],
            )

    def test_unknown_kind(self, composer):
        with pytest.raises(DecompositionError):
            composer.compose(CompositionSpec(kind="zip"), [])


class TestReconstruct:
    def _vertical_partials(self):
        """Two fragments of one article, serialized as drivers would."""
        original = doc(
            elem("article",
                 elem("prolog", elem("title", "T")),
                 elem("body", elem("p", "B"))),
            name="a.xml",
        )
        from repro.algebra import Projection

        f1 = Projection("/article/prolog").apply(original)[0]
        f2 = Projection("/article/body").apply(original)[0]
        annotate(f1.root, PXORIGIN, "a.xml")
        annotate(f2.root, PXORIGIN, "a.xml")
        return original, [
            (_sq("F1"), serialize(f1)),
            (_sq("F2"), serialize(f2)),
        ]

    def test_joins_and_requeries(self, composer):
        original, partials = self._vertical_partials()
        spec = CompositionSpec(
            kind="reconstruct",
            original_query='for $a in collection("Cpapers")/article'
            " return $a/prolog/title/text()",
            source_collection="Cpapers",
            root_label="article",
        )
        result = composer.compose(spec, partials)
        assert result.result_text == "T"
        assert result.compose_seconds > 0

    def test_requires_original_query(self, composer):
        with pytest.raises(DecompositionError):
            composer.compose(CompositionSpec(kind="reconstruct"), [])

    def test_fragmode2_wrapper_units_extracted(self, composer):
        # A FragMode2 wrapper: chain Store/Items with annotated units,
        # plus a remainder skeleton with a stub.
        wrapper = elem("Store", elem("Items"))
        annotate(wrapper, PXORIGIN, "s.xml")
        items_node = wrapper.element_children()[0]
        unit = elem("Item", elem("Code", "I1"))
        annotate(unit, PXID, 5)
        annotate(unit, PXPARENT, 2)
        items_node.append(unit)

        remainder = elem("Store", elem("Meta", elem("x", "m")), elem("Items"))
        annotate(remainder, PXID, 0)
        annotate(remainder, PXORIGIN, "s.xml")
        stub = remainder.element_children()[1]
        annotate(stub, PXID, 2)

        spec = CompositionSpec(
            kind="reconstruct",
            original_query='for $s in collection("Cstore")/Store'
            " return count($s/Items/Item)",
            source_collection="Cstore",
            root_label="Store",
        )
        result = composer.compose(
            spec,
            [(_sq("F1"), serialize(remainder)), (_sq("F2"), serialize(wrapper))],
        )
        assert result.result_text == "1"

    def test_no_engine_is_built_to_requery(self, composer, monkeypatch):
        from repro.engine import XMLEngine

        def no_engine(self, *args, **kwargs):
            raise AssertionError("reconstruct composition built an XMLEngine")

        monkeypatch.setattr(XMLEngine, "__init__", no_engine)
        self.test_joins_and_requeries(composer)
        self.test_fragmode2_wrapper_units_extracted(composer)

    def _two_articles(self):
        from repro.algebra import Projection

        partials = {"F1": [], "F2": []}
        # Parts arrive in reverse origin order on purpose.
        for name, title in (("b.xml", "TB"), ("a.xml", "TA")):
            original = doc(
                elem("article",
                     elem("prolog", elem("title", title)),
                     elem("body", elem("p", "B" + title))),
                name=name,
            )
            for fragment, path in (("F1", "/article/prolog"), ("F2", "/article/body")):
                part = Projection(path).apply(original)[0]
                annotate(part.root, PXORIGIN, name)
                partials[fragment].append(serialize(part))
        return [
            (_sq(fragment), "\n".join(texts))
            for fragment, texts in partials.items()
        ]

    def _requery(self, composer, query):
        spec = CompositionSpec(
            kind="reconstruct",
            original_query=query,
            source_collection="Cpapers",
            root_label="article",
        )
        return composer.compose(spec, self._two_articles())

    def test_rebuilt_documents_are_ordered_by_origin(self, composer):
        result = self._requery(
            composer,
            'for $a in collection("Cpapers")/article return $a/prolog/title/text()',
        )
        assert result.result_text == "TA\nTB"
        assert result.result_bytes == 5

    def test_doc_resolves_a_rebuilt_document_by_origin(self, composer):
        result = self._requery(composer, 'doc("b.xml")/article/body/p/text()')
        assert result.result_text == "BTB"
        assert self._requery(composer, 'doc("c.xml")/article').result_text == ""

    def test_other_collections_stay_unknown(self, composer):
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            self._requery(composer, 'collection("Elsewhere")/article')

    def test_result_bytes_counts_utf8(self, composer):
        result = composer.compose(
            CompositionSpec(kind="concat"), [(_sq("F1"), "né"), (_sq("F2"), "ü")]
        )
        assert result.result_text == "né\nü"
        assert result.result_bytes == len("né\nü".encode("utf-8")) == 6


class TestStripAnnotationText:
    """The pattern is anchored on the serializer's own `` px``; what it
    removes is what the pattern that opened with ``\\s+`` removed."""

    UNANCHORED = re.compile(r'\s+(?:pxid|pxparent)="\d+"|\s+pxorigin="[^"]*"')

    def _same(self, text):
        stripped = strip_annotation_text(text)
        assert stripped == self.UNANCHORED.sub("", text)
        return stripped

    def test_stored_parts_of_every_fuzz_family(self):
        from repro.cluster import Cluster
        from repro.fuzz.generator import FAMILIES, generate_case, spec_for_iteration
        from repro.partix import Partix

        annotated = 0
        for iteration in range(2 * len(FAMILIES)):  # both FragModes of each
            case = generate_case(spec_for_iteration(2006, iteration))
            with Partix(Cluster.with_sites(len(case.design))) as partix:
                partix.publish(case.collection, case.design, frag_mode=case.frag_mode)
                for site in partix.cluster.sites():
                    store = site.driver.engine.store
                    for name in store.collection_names():
                        collection = store.collection(name)
                        for document in collection.names():
                            text = serialize(collection.get(document).binary.root)
                            annotated += self._same(text) != text
        assert annotated > 20

    def test_character_data_containing_px(self):
        part = elem(
            "body",
            elem("p", "an px unit, the pxid of a spx; px", "\n", "pxorigin = home"),
            elem("q", 'she said pxid="7" aloud', kind="px"),
        )
        annotate(part, PXID, 12)
        annotate(part, PXPARENT, 3)
        annotate(part, PXORIGIN, "a b&c.xml")
        stripped = self._same(serialize(part))
        assert stripped.startswith("<body><p>an px unit")
        assert 'kind="px"' in stripped and "pxorigin = home" in stripped

    def test_text_without_px_is_returned_as_it_is(self):
        text = "<Item><Code>I-1</Code> <Name>a  b</Name></Item>" * 3
        assert strip_annotation_text(text) is text


class TestExtractParts:
    """A FragMode2 chain document contributes its annotated units."""

    @staticmethod
    def _chain(units: int):
        items = elem("Items")
        annotate(items, PXID, 1)
        for index in range(units):
            unit = elem("Item", elem("Code", f"I{index}"))
            annotate(unit, PXID, 2 + 3 * index)
            annotate(unit, PXPARENT, 1)
            items.append(unit)
        store = elem("Store", items)
        annotate(store, PXID, 0)
        annotate(store, PXORIGIN, "s.xml")
        return store

    def test_units_in_document_order_nested_grafts_stay_inside(self):
        from repro.partix.composer import _extract_parts

        store = self._chain(3)
        nested = elem("Part", "x")
        annotate(nested, PXPARENT, 5)
        store.children[-1].element_children()[1].append(nested)
        parts = _extract_parts(store)
        assert [p.root.get_attribute(PXID) for p in parts] == ["2", "5", "8"]
        assert all(p.origin == "s.xml" and p.root.parent is None for p in parts)
        assert parts[1].root.first_child("Part") is nested

    def test_cost_is_linear_in_the_units(self):
        import time

        from repro.partix.composer import _extract_parts

        def best_of(units: int) -> float:
            timings = []
            for _ in range(5):
                chain = self._chain(units)
                started = time.perf_counter()
                assert len(_extract_parts(chain)) == units
                timings.append(time.perf_counter() - started)
            return min(timings)

        # 8x the units: linear work stays well inside 16x (the quadratic
        # scan this replaced measured 38x).
        assert best_of(4000) <= 16 * best_of(500)
