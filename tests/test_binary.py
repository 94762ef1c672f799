"""Binary node tables: encoding, preorder ranges, persistence.

PR 9's storage layer: every stored document carries a compact preorder
node table (strings interned in a per-collection pool), the path
evaluator and predicate engine run directly over it, and engines with a
``storage_dir`` reload the tables from disk without ever re-tokenizing
XML text.
"""

import pytest

from repro.datamodel import doc, elem
from repro.datamodel.binary import (
    KIND_ATTRIBUTE,
    KIND_ELEMENT,
    KIND_TEXT,
    BinaryXMLDocument,
    StringPool,
)
from repro.engine import EngineStats, XMLEngine
from repro.engine.store import DocumentStore
from repro.paths.evaluator import evaluate_path
from repro.paths.parser import parse_path
from repro.paths.predicates import (
    contains,
    eq,
    exists,
    func_cmp,
)
from repro.xmltext import parse_xml, serialize


def _sample_document(name="sample.xml"):
    return doc(
        elem(
            "Store",
            elem(
                "Items",
                elem(
                    "Item",
                    elem("Code", "17"),
                    elem("Description", "good red bicycle"),
                    category="bikes",
                ),
                elem(
                    "Item",
                    elem("Code", "42"),
                    elem("Description", "plain kettle"),
                    category="kitchen",
                ),
            ),
        ),
        name=name,
    )


class TestEncodeDecode:
    def test_round_trip_preserves_tree_and_node_ids(self):
        document = _sample_document()
        pool = StringPool()
        binary = BinaryXMLDocument.encode(document, pool)
        restored = BinaryXMLDocument.from_bytes(binary.to_bytes(), pool)
        materialized = restored.materialize(name=document.name)
        assert materialized.tree_equal(document, compare_ids=True)
        assert materialized.name == document.name

    def test_kinds_and_interning(self):
        document = _sample_document()
        pool = StringPool()
        binary = BinaryXMLDocument.encode(document, pool)
        kinds = set(binary.kinds)
        assert kinds == {KIND_ELEMENT, KIND_ATTRIBUTE, KIND_TEXT}
        # "Item", "Code", … are interned once however often they occur.
        item_ids = {
            binary.names[i]
            for i in range(len(binary))
            if binary.kinds[i] == KIND_ELEMENT
            and binary.name_of(i) == "Item"
        }
        assert len(item_ids) == 1

    def test_pool_is_append_only_across_documents(self):
        pool = StringPool()
        first = BinaryXMLDocument.encode(_sample_document("a.xml"), pool)
        size_after_first = len(pool)
        BinaryXMLDocument.encode(
            doc(elem("Other", elem("Brand", "new")), name="b.xml"), pool
        )
        # Older tables stay decodable: their ids are still valid.
        assert len(pool) >= size_after_first
        assert first.materialize().tree_equal(_sample_document("a.xml"))

    def test_corrupt_bytes_rejected(self):
        pool = StringPool()
        with pytest.raises(ValueError):
            BinaryXMLDocument.from_bytes(b"not a node table", pool)
        with pytest.raises(ValueError):
            StringPool.from_bytes(b"junk")


class TestPrefixLabels:
    def test_ancestor_is_proper_label_prefix(self):
        binary = BinaryXMLDocument.encode(_sample_document(), StringPool())
        for a in range(len(binary)):
            for d in range(len(binary)):
                # The oracle: climb the parent array from d looking for a.
                climbed = False
                node = binary.parents[d]
                while node >= 0 and not climbed:
                    climbed = node == a
                    node = binary.parents[node]
                assert binary.is_ancestor(a, d) == climbed

    def test_descendant_range_is_contiguous_preorder(self):
        binary = BinaryXMLDocument.encode(_sample_document(), StringPool())
        for index in range(len(binary)):
            inside = set(binary.descendant_range(index))
            walked = {
                d for d in range(len(binary)) if binary.is_ancestor(index, d)
            }
            assert inside == walked

    def test_path_evaluation_matches_dom(self):
        document = _sample_document()
        binary = BinaryXMLDocument.encode(document, StringPool())
        for text in (
            "/Store/Items/Item",
            "//Item/Code",
            "//Description",
            "/Store//Item/@category",
            "//Missing",
        ):
            path = parse_path(text)
            dom_nodes = evaluate_path(path, document.root)
            handles = evaluate_path(path, binary.root)
            assert [binary.path_labels(h.index) for h in handles] == [
                tuple(
                    ("@" + n.label) if n.kind.value == "attribute" else n.label
                    for n in _path_to(node)
                )
                for node in dom_nodes
            ], text

    def test_predicates_match_dom_evaluation(self):
        document = _sample_document()
        binary = BinaryXMLDocument.encode(document, StringPool())
        cases = [
            eq("//Code", 17),
            eq("//Code", 99),
            contains("//Description", "bicycle"),
            exists("//Item/@category"),
            exists("//Brand"),
            func_cmp("count", "//Item", ">", 1),
        ]
        for predicate in cases:
            assert predicate.evaluate(binary.root) == predicate.evaluate(
                document.root
            ), str(predicate)


def _path_to(node):
    chain = []
    while node is not None:
        chain.append(node)
        node = node.parent
    return list(reversed(chain))


class TestPersistence:
    def _store_two(self, path):
        engine = XMLEngine("p", storage_dir=str(path))
        engine.create_collection("c")
        engine.store_document(
            "c", serialize(_sample_document("a.xml")), name="a.xml"
        )
        engine.store_document(
            "c",
            "<Store><Items><Item><Code>5</Code></Item></Items></Store>",
            name="b.xml",
        )
        return engine

    def test_reload_decodes_without_reparsing(self, tmp_path, monkeypatch):
        self._store_two(tmp_path)
        # A fresh engine over the same directory must answer from the
        # persisted node tables alone — re-tokenizing XML text anywhere
        # on the query path is the regression this guard exists for.
        import repro.engine.store as store_module

        def _forbidden(*args, **kwargs):
            raise AssertionError(
                "reload must not re-parse XML text"
            )

        monkeypatch.setattr(store_module, "parse_xml", _forbidden)
        # ... nor even read: a document's size is its file's.
        read_bytes = store_module.Path.read_bytes

        def _no_xml(path):
            assert path.suffix != ".xml", "reload must not read XML text"
            return read_bytes(path)

        monkeypatch.setattr(store_module.Path, "read_bytes", _no_xml)
        reloaded = XMLEngine(
            "p2", storage_dir=str(tmp_path), use_indexes=False
        )
        assert reloaded.store.load_document("c", "b.xml").size == len(
            "<Store><Items><Item><Code>5</Code></Item></Items></Store>"
        )
        result = reloaded.execute(
            'for $i in collection("c")/Store/Items/Item'
            " where $i/Code = 5 return $i/Code"
        )
        assert "5" in result.result_text
        assert result.documents_scanned == 2

    def test_pool_file_written(self, tmp_path):
        self._store_two(tmp_path)
        assert (tmp_path / "c" / "_pool.bin").exists()
        assert (tmp_path / "c" / "a.xml.pxb").exists()

    def test_missing_tables_fall_back_to_reencoding(self, tmp_path):
        self._store_two(tmp_path)
        for table in (tmp_path / "c").glob("*.pxb"):
            table.unlink()
        (tmp_path / "c" / "_pool.bin").unlink()
        reloaded = XMLEngine(
            "p3", storage_dir=str(tmp_path), use_indexes=False
        )
        result = reloaded.execute(
            'for $i in collection("c")/Store/Items/Item'
            " where $i/Code = 5 return $i/Code"
        )
        assert "5" in result.result_text
        # Old on-disk stores hold raw bytes only: the documents parse
        # once and the indexes still ingest from a freshly built table.
        assert reloaded.store.collection("c").index.values.lookup("Code", "=", 5)


class TestIndexCandidates:
    @staticmethod
    def _load(engine):
        engine.create_collection("c")
        for index in range(6):
            items = [
                elem("Item", elem("Code", str(i)))
                for i in range(1 if index % 2 else 3)
            ]
            engine.store_document(
                "c",
                serialize(doc(elem("Store", *items), name=f"d{index}.xml")),
                name=f"d{index}.xml",
            )

    def test_unindexable_predicate_is_left_to_the_where_clause(self):
        engine = XMLEngine("prune", use_indexes=True)
        self._load(engine)
        predicate = func_cmp("count", "//Item", ">", 2)
        stats = EngineStats()
        candidates = engine.scan_candidates("c", predicate, stats)
        # count(...) has no index, so every document is a candidate:
        # nothing evaluates the predicate ahead of the query itself.
        assert candidates == [f"d{index}.xml" for index in range(6)]
        assert stats.documents_scanned == 6 and stats.documents_pruned == 0
        assert stats.label_pruned == 0
        # The query's own where clause is the exact filter, on the same
        # node tables: the answer is exact and no tree is built.
        result = engine.execute(
            'for $s in collection("c")/Store where count($s//Item) > 2'
            " return count($s/Item)"
        )
        assert result.result_text == "3\n3\n3"
        assert result.documents_scanned == 6
        assert result.documents_parsed == 0 and result.binary_decodes == 0
