"""Unit tests for the MiniX storage engine: store, indexes, planner, exec."""

import dataclasses

import pytest

from repro.datamodel import doc, elem
from repro.engine import (
    DocumentStore,
    EngineStats,
    ExecOptions,
    QueryResult,
    XMLEngine,
    candidate_documents,
    serialize_sequence,
    tokenize_text,
)
from repro.engine.stats import MODELED_SECONDS_PER_BYTE
from repro.errors import (
    CollectionNotFoundError,
    DocumentNotFoundError,
    StorageError,
)
from repro.paths import And, Or, contains, empty, eq, exists, ne
from repro.xmltext.serializer import serialize


def make_item(i, section, description):
    return doc(
        elem(
            "Item",
            elem("Code", f"I{i}"),
            elem("Section", section),
            elem("Description", description),
        ),
        name=f"item{i}.xml",
    )


@pytest.fixture
def engine():
    eng = XMLEngine("test")
    for i in range(10):
        eng.store_document(
            "items",
            make_item(i, "CD" if i % 2 == 0 else "DVD",
                      "a good thing" if i < 4 else "plain stuff"),
        )
    return eng


class TestDocumentStore:
    def test_create_and_drop(self):
        store = DocumentStore()
        store.create_collection("c")
        assert store.has_collection("c")
        store.drop_collection("c")
        assert not store.has_collection("c")

    def test_duplicate_collection_rejected(self):
        store = DocumentStore()
        store.create_collection("c")
        with pytest.raises(StorageError):
            store.create_collection("c")

    def test_missing_collection(self):
        with pytest.raises(CollectionNotFoundError):
            DocumentStore().collection("nope")

    def test_store_and_load_document(self):
        store = DocumentStore()
        store.create_collection("c")
        store.store_document("c", doc(elem("a", "x"), name="d.xml"))
        loaded = store.load_document("c", "d.xml")
        assert serialize(loaded.binary.root) == "<a>x</a>"
        assert loaded.origin == "d.xml"

    def test_store_text_document(self):
        store = DocumentStore()
        store.create_collection("c")
        stored = store.store_document("c", "<a/>", name="d.xml")
        assert stored.size == 4

    def test_anonymous_names_generated(self):
        store = DocumentStore()
        store.create_collection("c")
        stored = store.store_document("c", "<a/>")
        assert stored.name.startswith("c-")

    def test_remove_document(self):
        store = DocumentStore()
        store.create_collection("c")
        store.store_document("c", "<a/>", name="d.xml")
        store.remove_document("c", "d.xml")
        with pytest.raises(DocumentNotFoundError):
            store.load_document("c", "d.xml")

    def test_replace_updates_indexes(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", "<a>alpha</a>", name="d.xml")
        store.store_document("c", "<a>bravo</a>", name="d.xml")
        assert collection.index.fulltext.lookup_substring("alpha") == set()
        assert collection.index.fulltext.lookup_substring("bravo") == {"d.xml"}

    def test_disk_persistence_round_trip(self, tmp_path):
        store = DocumentStore(storage_dir=tmp_path)
        store.create_collection("c")
        store.store_document("c", "<a>x</a>", name="d.xml", origin="orig.xml")
        reloaded = DocumentStore(storage_dir=tmp_path)
        assert reloaded.has_collection("c")
        loaded = reloaded.load_document("c", "d.xml")
        assert serialize(loaded.binary.root) == "<a>x</a>"
        assert loaded.origin == "orig.xml"

    def test_disk_drop_removes_files(self, tmp_path):
        store = DocumentStore(storage_dir=tmp_path)
        store.create_collection("c")
        store.store_document("c", "<a/>", name="d.xml")
        store.drop_collection("c")
        assert not (tmp_path / "c").exists()


class TestIndexes:
    def test_tokenize(self):
        assert tokenize_text("Hello, WORLD-42!") == {"hello", "world", "42"}

    def test_fulltext_substring_match(self, engine):
        collection = engine.store.collection("items")
        hits = collection.index.fulltext.lookup_substring("good")
        assert hits == {f"item{i}.xml" for i in range(4)}

    def test_fulltext_matches_inside_tokens(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", "<a>goodness gracious</a>", name="d.xml")
        assert collection.index.fulltext.lookup_substring("good") == {"d.xml"}

    def test_fulltext_multi_token_needle_intersects(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", "<a>alpha bravo</a>", name="1.xml")
        store.store_document("c", "<a>alpha charlie</a>", name="2.xml")
        assert collection.index.fulltext.lookup_substring("alpha bravo") == {"1.xml"}

    def test_value_index_lookup(self, engine):
        collection = engine.store.collection("items")
        assert len(collection.index.values.lookup("Section", "=", "CD")) == 5
        assert collection.index.values.covers_label("Section")
        assert not collection.index.values.covers_label("Nope")

    def test_value_index_attributes(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", '<a id="7"/>', name="d.xml")
        assert collection.index.values.lookup("@id", "=", "7") == {"d.xml"}

    def test_element_index(self, engine):
        # "Some node is labelled l" is the path index's one-label suffix.
        paths = engine.store.collection("items").index.paths
        assert len(paths.lookup_suffix(("Description",))) == 10
        assert paths.lookup_suffix(("PictureList",)) == set()


class TestValueComparisonIsOneRule:
    """An index probe and a scan compare values by the same rule —
    numerically when both sides parse as numbers — so they cannot
    disagree. The exact-string equality index this replaces answered
    ``$d/v = 5`` with 1 document of the 3 below and missed ``k="7.0"``."""

    DOCUMENTS = [
        "<a><v>5</v></a>",
        "<a><v>5.0</v></a>",
        "<a><v>05</v></a>",
        '<a k="7.0"/>',
        "<a><v>1e1</v></a>",
        "<a><v>nan</v></a>",
        "<a><v/></a>",
        "<a><v><w>4</w></v></a>",
    ]

    @staticmethod
    def _count(engine, condition):
        return engine.execute(
            f'count(for $d in collection("c")/a where {condition} return $d)'
        ).result_text

    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_index_and_scan_agree(self, use_indexes):
        engine = XMLEngine("cmp", use_indexes=use_indexes)
        for index, text in enumerate(self.DOCUMENTS):
            engine.store_document("c", text, name=f"{index}.xml")
        expected = {
            "$d/v = 5": "3",
            '$d/v = "5"': "3",  # a string literal that parses is a number
            '$d/v = "5.0"': "3",
            "$d/@k = 7": "1",
            "$d/v = 10": "1",
            "$d/v >= 10": "2",  # 1e1, and "nan" >= "10" as strings
            '$d/v = "nan"': "1",  # NaN is no number: it is that string
            '$d/v = ""': "1",  # an element without content
            "$d/v = 4": "1",  # the string value of an element with children
            "$d/v < 6": "5",  # 5, 5.0, 05, 4, and "" < "6" as strings
        }
        for condition, count in expected.items():
            assert self._count(engine, condition) == count, condition
        assert (engine.stats.index_lookups > 0) == use_indexes

    def test_a_nan_value_does_not_unsort_the_numeric_postings(self):
        engine = XMLEngine("nan")
        for index, value in enumerate(["3", "nan", "1", "NaN", "2"]):
            engine.store_document("c", f"<a><v>{value}</v></a>", name=f"{index}.xml")
        values = engine.store.collection("c").index.values
        assert values.lookup("v", "<=", 2) == {"2.xml", "4.xml"}
        assert values.lookup("v", "=", "nan") == {"1.xml"}


class TestIndexMaintenance:
    def test_put_walks_the_node_table_once(self):
        class CountingKinds(bytearray):
            reads = 0

            def __iter__(self):
                for kind in bytearray.__iter__(self):
                    CountingKinds.reads += 1
                    yield kind

            def __getitem__(self, index):
                CountingKinds.reads += 1
                return bytearray.__getitem__(self, index)

        store = DocumentStore()
        collection = store.create_collection("c")
        rows = "".join(f'<r id="{i}"><v>{i}</v><w>t{i}</w></r>' for i in range(167))
        stored = store.store_document("c", f"<t>{rows}</t>", name="d.xml")
        table = stored.binary
        assert len(table) >= 1000
        table.kinds = CountingKinds(table.kinds)
        collection.put(stored)
        # One read per row; the five per-family passes read each row's
        # kind five times and more.
        assert CountingKinds.reads == len(table)

    def test_republishing_fresh_values_does_not_grow_the_index(self):
        def variant(cycle):
            return [
                doc(
                    elem(
                        "Item",
                        elem("Code", f"c{cycle}i{i}", id=f"a{cycle}x{i}"),
                        elem(f"Only{cycle}", f"word{cycle}x{i} {cycle * 100 + i}"),
                    ),
                    name=f"item{i}.xml",
                )
                for i in range(6 - cycle % 2)  # retires a name every other cycle
            ]

        def key_count(engine):
            index = engine.store.collection("c").index
            return len(index.fulltext) + len(index.values) + len(index.paths)

        def publish(engine, documents):
            for document in documents:
                engine.store_document("c", document)
            engine.retain_documents("c", [d.name for d in documents])

        cycled, fresh = XMLEngine("cycled"), XMLEngine("fresh")
        for cycle in range(5):
            publish(cycled, variant(cycle))
        publish(fresh, variant(4))
        assert key_count(cycled) == key_count(fresh)
        values = cycled.store.collection("c").index.values
        assert values.covers_label("Only4") and not values.covers_label("Only3")
        assert cycled.store.collection("c").index.fulltext.lookup_substring(
            "word3"
        ) == set()


class TestCandidateDocuments:
    def test_no_predicate_scans_all(self, engine):
        collection = engine.store.collection("items")
        names, lookups = candidate_documents(collection, None)
        assert len(names) == 10 and lookups == 0

    def test_equality_uses_value_index(self, engine):
        collection = engine.store.collection("items")
        names, lookups = candidate_documents(
            collection, eq("/Item/Section", "CD")
        )
        assert len(names) == 5 and lookups == 1

    def test_contains_uses_fulltext(self, engine):
        collection = engine.store.collection("items")
        names, _ = candidate_documents(
            collection, contains("/Item/Description", "good")
        )
        assert len(names) == 4

    def test_conjunction_intersects(self, engine):
        collection = engine.store.collection("items")
        predicate = And(
            (eq("/Item/Section", "CD"), contains("/Item/Description", "good"))
        )
        names, _ = candidate_documents(collection, predicate)
        assert set(names) == {"item0.xml", "item2.xml"}

    def test_disjunction_unions(self, engine):
        collection = engine.store.collection("items")
        predicate = Or((eq("/Item/Section", "CD"), eq("/Item/Section", "DVD")))
        names, _ = candidate_documents(collection, predicate)
        assert len(names) == 10

    def test_unprunable_atom_falls_back(self, engine):
        collection = engine.store.collection("items")
        names, _ = candidate_documents(
            collection, ne("/Item/Section", "CD")
        )
        assert len(names) == 10

    def test_exists_uses_element_index(self, engine):
        collection = engine.store.collection("items")
        names, _ = candidate_documents(
            collection, exists("/Item/PictureList")
        )
        assert names == []

    def test_empty_predicate_not_prunable(self, engine):
        collection = engine.store.collection("items")
        names, _ = candidate_documents(
            collection, empty("/Item/PictureList")
        )
        assert len(names) == 10

    def test_lookup_counts_survive_interleaved_calls(self, engine, monkeypatch):
        """Regression: the lookup counter lived on the shared Planner, so
        a query probing between another query's probes corrupted its
        ``index_lookups`` (2 alone, 3 interleaved). Deterministic
        interleaving: the outer call's first probe runs a whole second
        call before returning."""
        collection = engine.store.collection("items")
        predicate = And((eq("/Item/Section", "CD"), eq("/Item/Code", "I2")))
        nested = []
        real_lookup = collection.index.values.lookup

        def interleaving_lookup(label, op, value):
            if not nested:
                nested.append(None)
                nested[0] = candidate_documents(collection, predicate)
            return real_lookup(label, op, value)

        monkeypatch.setattr(
            collection.index.values, "lookup", interleaving_lookup
        )
        names, lookups = candidate_documents(collection, predicate)
        assert (names, lookups) == (["item2.xml"], 2)
        assert nested[0] == (["item2.xml"], 2)

    def test_indexes_can_be_disabled(self, engine):
        # The engine's use_indexes setting decides in scan_candidates: off
        # means every document is a candidate and no index is probed.
        engine.use_indexes = False
        stats = EngineStats()
        names = engine.scan_candidates("items", eq("/Item/Section", "CD"), stats)
        assert len(names) == 10 and stats.index_lookups == 0
        result = engine.execute('collection("items")/Item[Section = "CD"]')
        assert result.documents_scanned == 10
        assert engine.stats.index_lookups == 0


class TestExecution:
    def test_simple_query(self, engine):
        result = engine.execute(
            'for $i in collection("items")/Item where $i/Section = "CD"'
            " return $i/Code/text()"
        )
        assert result.result_text.split() == ["I0", "I2", "I4", "I6", "I8"]

    def test_index_pruning_limits_parsing(self, engine):
        result = engine.execute(
            'count(for $i in collection("items")/Item'
            ' where contains($i/Description, "good") return $i)'
        )
        assert result.result_text == "4"
        assert result.documents_scanned == 4
        assert result.documents_pruned == 6

    def test_index_pruning_leaves_counted_positions_alone(self, engine):
        # ``at $p`` numbers the whole collection before ``where``
        # filters: pruning documents by the where clause would renumber.
        query = (
            'for $i at $p in collection("items")/Item'
            ' where $i/Section = "DVD" return $p'
        )
        result = engine.execute(query)
        assert result.result_text.split() == ["2", "4", "6", "8", "10"]
        assert result.documents_pruned == 0
        engine.use_indexes = False
        assert result.result_text == engine.execute(query).result_text

    @pytest.mark.parametrize("use_indexes", [True, False])
    def test_where_predicate_leaves_an_inner_collection_call_alone(
        self, use_indexes
    ):
        # The where clause selects 2 of 6 articles; the inner collection()
        # must still count all six, whichever way the site reads.
        engine = XMLEngine("inner", use_indexes=use_indexes)
        for i in range(6):
            genre = "demo" if i < 2 else "survey"
            engine.store_document(
                "C",
                f"<article><prolog><genre>{genre}</genre></prolog></article>",
                name=f"a{i}.xml",
            )
        result = engine.execute(
            'for $a in collection("C")/article'
            ' where $a/prolog/genre = "demo"'
            ' return count(collection("C")/article)'
        )
        assert result.result_text.split() == ["6", "6"]

    def test_stats_accumulate(self, engine):
        engine.execute('collection("items")/Item')
        engine.execute('collection("items")/Item')
        assert engine.stats.queries_executed == 2
        assert engine.stats.documents_scanned == 20

    def test_default_collection(self, engine):
        result = engine.execute(
            "count(collection()/Item)",
            ExecOptions(default_collection="items"),
        )
        assert result.result_text == "10"

    def test_default_collection_missing(self, engine):
        from repro.errors import XQueryEvaluationError

        with pytest.raises(XQueryEvaluationError):
            engine.execute("count(collection()/Item)")

    def test_unknown_collection(self, engine):
        with pytest.raises(StorageError):
            engine.execute('collection("nope")/Item')

    def test_parse_cache_off_by_default(self, engine):
        """Nothing is kept between queries: a repeat hands the evaluator
        every document again — and neither run builds a tree."""
        for _ in range(2):
            result = engine.execute('collection("items")/Item')
            assert result.documents_scanned == 10
            assert result.documents_parsed == 0
            assert result.cache_hits == 0

    def test_only_constructor_copies_build_trees(self, engine):
        """``documents_parsed``/``bytes_parsed``/``binary_decodes`` count
        the stored subtrees an element constructor embeds — one tree per
        copy, ``bytes_parsed`` the node-table rows it decoded."""
        scalar = engine.execute('count(collection("items")/Item/Code)')
        assert (scalar.documents_parsed, scalar.bytes_parsed) == (0, 0)
        whole = engine.execute(
            'for $i in collection("items")/Item return element r { $i }'
        )
        assert whole.documents_parsed == whole.binary_decodes == 10
        collection = engine.store.collection("items")
        tables = [collection.get(name).binary for name in collection.names()]
        assert whole.bytes_parsed == sum(
            len(table.to_bytes()) - 8 for table in tables  # less the header
        )
        part = engine.execute(
            'for $i in collection("items")/Item return element r { $i/Code }'
        )
        assert part.documents_parsed == 10
        assert 0 < part.bytes_parsed < whole.bytes_parsed
        nested = engine.execute("element a { element b { 1 } }")  # a copied DOM node
        assert nested.documents_parsed == 0

    def test_result_bytes_measures_serialized_output(self, engine):
        result = engine.execute(
            'for $i in collection("items")/Item where $i/Code = "I3" return $i'
        )
        assert result.result_bytes == len(result.result_text.encode())
        assert "<Item>" in result.result_text

    def test_serialize_sequence_mixes_nodes_and_atomics(self):
        from repro.datamodel import XMLNode

        text = serialize_sequence([XMLNode.element("a"), 3, "x", True])
        assert text == "<a/>\n3\nx\ntrue"

    def test_document_count_and_bytes(self, engine):
        assert engine.document_count("items") == 10
        assert engine.collection_bytes("items") > 0

    def test_drop_collection_clears_cache(self):
        """Nothing a query left behind (the compiled text) outlives the
        data: a re-created collection answers from its own documents."""
        eng = XMLEngine("dropped")
        eng.store_document("c", "<a>old</a>", name="d.xml")
        assert eng.execute('collection("c")/a').result_text == "<a>old</a>"
        eng.drop_collection("c")
        assert not eng.has_collection("c")
        eng.store_document("c", "<a>new</a>", name="d.xml")
        assert eng.execute('collection("c")/a').result_text == "<a>new</a>"


class TestExecuteIsTheDrainedStream:
    """``execute`` is ``"\\n".join(execute_iter(...))``: same text, same
    counters, and scan/prune runs once per ``collection()`` call."""

    COUNTERS = [
        "documents_parsed",
        "bytes_parsed",
        "binary_decodes",
        "label_pruned",
        "documents_scanned",
        "documents_pruned",
        "simulated_overhead_seconds",
        "result_bytes",
    ]

    @pytest.mark.parametrize(
        "query",
        [
            "collection()/Item/Code",
            'collection("items")/Item[Section = "CD"]/Code',
            'collection("items")/Item[Section = "VHS"]/Code',  # empty result
            'count(collection("items")/Item)',
            # the one shape that builds trees: a constructor's copies
            'for $i in collection("items")/Item return element r { $i/Code }',
        ],
    )
    def test_pieces_join_to_the_monolithic_answer(
        self, engine, query, monkeypatch
    ):
        engine.per_document_overhead = 1.0 / 512.0
        options = ExecOptions(default_collection="items")
        monolithic = engine.execute(query, options)
        scans = []
        scan_candidates = engine.scan_candidates

        def counting_scan(*args, **kwargs):
            scans.append(args[0])
            return scan_candidates(*args, **kwargs)

        monkeypatch.setattr(engine, "scan_candidates", counting_scan)
        stream = engine.execute_iter(query, options)
        assert stream.result is None
        assert "\n".join(stream) == monolithic.result_text
        assert scans == ["items"]
        assert stream.result.result_text == ""
        for name in self.COUNTERS:
            assert getattr(stream.result, name) == getattr(monolithic, name)
        # Elapsed is the wall clock plus the modeled access cost.
        assert stream.result.measured_seconds > 0


class TestExecutionRecords:
    """The one request record and the one result record cross the wire
    through their own payload pairs — enumerated with ``fields`` so the
    next field cannot be forgotten in one direction."""

    def test_result_round_trips_through_both_payload_forms(self, engine):
        result = engine.execute(
            'for $i in collection("items")/Item'
            ' where contains($i/Description, "good") return $i/Code'
        )
        assert result.result_text and result.documents_pruned
        wire_fields = [
            f.name
            for f in dataclasses.fields(QueryResult)
            if f.name not in ("items", "stats")
        ]
        rebuilt = QueryResult.from_payload(result.to_payload())
        for name in wire_fields:
            assert getattr(rebuilt, name) == getattr(result, name), name
        assert rebuilt.items == []
        # RESULT_END form: the text already streamed, its size travels.
        streamed = QueryResult.from_payload(result.to_payload(streamed=True))
        for name in wire_fields:
            expected = "" if name == "result_text" else getattr(result, name)
            assert getattr(streamed, name) == expected, name
        assert set(result.to_payload()) == set(wire_fields) - {"result_bytes"}

    def test_result_payload_tolerates_unknown_and_missing_counters(self):
        rebuilt = QueryResult.from_payload(
            {
                "result_text": "<a/>",
                "elapsed_seconds": 0.5,
                "parse_seconds": 0.1,
                "documents_parsed": 1,
                "bytes_parsed": 4,
                "documents_scanned": 1,
                "documents_pruned": 0,
                "a_newer_peers_counter": 7,
            }
        )
        assert rebuilt.result_bytes == 4 and rebuilt.label_pruned == 0

    def test_options_round_trip_unset_fields_stay_off_the_wire(self):
        assert ExecOptions().to_payload() == {}
        full = ExecOptions(default_collection="c")
        names = [f.name for f in dataclasses.fields(ExecOptions)]
        assert list(full.to_payload()) == names  # the sample covers every field
        assert ExecOptions.from_payload(full.to_payload()) == full
        for name in names:
            one = ExecOptions(**{name: getattr(full, name)})
            assert one.to_payload() == {name: getattr(full, name)}
            assert ExecOptions.from_payload(one.to_payload()) == one
        # An older peer still sends the removed index override and shard
        # degree: ignored, the site's own setting decides.
        assert ExecOptions.from_payload(
            {"query": "q", "stream": True, "use_indexes": True, "trace_id": "x"}
        ) == ExecOptions()
        assert ExecOptions.from_payload(
            {"query": "q", "default_collection": "c", "parallel_degree": 2}
        ) == ExecOptions(default_collection="c")


class TestOverheadAccounting:
    """The modeled access cost — the per-document constant plus the
    per-byte term — is charged for every document handed to the
    evaluator, on every run — nothing is cached across queries."""

    def test_overhead_charged_per_document_handed_over(self):
        eng = XMLEngine("hit", per_document_overhead=0.01, use_indexes=False)
        for i in range(5):
            eng.store_document("c", f"<a>{i}</a>", name=f"d{i}.xml")
        one_document = 0.01 + len("<a>0</a>") * MODELED_SECONDS_PER_BYTE
        for _ in range(2):
            result = eng.execute('collection("c")/a')
            assert result.documents_scanned == 5
            assert result.documents_parsed == 0
            assert result.simulated_overhead_seconds == pytest.approx(
                5 * one_document
            )
            assert result.elapsed_seconds >= 0.05
        single = eng.execute('doc("d0.xml")/a')
        assert single.simulated_overhead_seconds == pytest.approx(one_document)
        assert eng.stats.cache_hits == 0
        assert eng.stats.simulated_overhead_seconds == pytest.approx(
            11 * one_document
        )


class TestMissingCollectionContract:
    """Regression: engine raises, driver returns 0 — one explicit contract."""

    def test_engine_raises_clear_storage_error(self):
        eng = XMLEngine("strict")
        with pytest.raises(CollectionNotFoundError, match="no collection 'ghost'"):
            eng.document_count("ghost")
        with pytest.raises(StorageError, match="'ghost'"):
            eng.collection_bytes("ghost")

    def test_driver_boundary_is_lenient(self):
        from repro.partix.driver import MiniXDriver

        driver = MiniXDriver(XMLEngine("lenient"))
        assert driver.document_count("ghost") == 0
        assert driver.collection_bytes("ghost") == 0
        driver.store_document("real", "<a/>", name="d.xml")
        assert driver.document_count("real") == 1
        assert driver.collection_bytes("real") > 0
        with pytest.raises(StorageError):
            driver.engine.document_count("ghost")


class TestSimulatedOverhead:
    def test_overhead_added_to_elapsed_not_slept(self):
        import time

        engine = XMLEngine("oh", per_document_overhead=0.05, use_indexes=False)
        for i in range(10):
            engine.store_document("c", f"<a>{i}</a>", name=f"d{i}.xml")
        started = time.perf_counter()
        result = engine.execute('count(collection("c")/a)')
        wall = time.perf_counter() - started
        assert result.simulated_overhead_seconds == pytest.approx(
            10 * 0.05
            + engine.collection_bytes("c") * MODELED_SECONDS_PER_BYTE
        )
        assert result.elapsed_seconds >= 0.5
        assert wall < 0.25  # the overhead was simulated, not slept
        assert result.measured_seconds < 0.25

    def test_overhead_defaults_to_zero(self):
        """No modeled clock: neither the per-document nor the per-byte
        term is charged."""
        engine = XMLEngine("oh0")
        engine.store_document("c", "<a/>", name="d.xml")
        result = engine.execute('collection("c")/a')
        assert result.simulated_overhead_seconds == 0.0

    def test_overhead_tracked_in_stats(self):
        engine = XMLEngine("oh2", per_document_overhead=0.01, use_indexes=False)
        engine.store_document("c", "<a/>", name="d.xml")
        engine.execute('collection("c")/a')
        engine.execute('collection("c")/a')
        assert engine.stats.simulated_overhead_seconds == pytest.approx(
            2 * (0.01 + len("<a/>") * MODELED_SECONDS_PER_BYTE)
        )


class TestRangeIndex:
    def _collection(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        rows = [("10", "a"), ("25", "b"), ("300", "c"), ("zebra", "d"), ("apple", "e")]
        for value, tag in rows:
            store.store_document(
                "c", f"<r><v>{value}</v></r>", name=f"{tag}.xml"
            )
        return collection

    def test_numeric_range_lookup(self):
        collection = self._collection()
        # numeric entries compare numerically; non-numeric ones as strings
        hits = collection.index.values.lookup("v", ">", 20)
        assert {"b.xml", "c.xml"} <= hits
        assert "a.xml" not in hits

    def test_numeric_probe_includes_string_comparisons(self):
        collection = self._collection()
        # "zebra" > "20" lexicographically: must be included for soundness
        hits = collection.index.values.lookup("v", ">", 20)
        assert "d.xml" in hits

    def test_string_range_lookup(self):
        collection = self._collection()
        hits = collection.index.values.lookup("v", ">=", "apple")
        assert "e.xml" in hits and "d.xml" in hits

    def test_covers_label(self):
        collection = self._collection()
        assert collection.index.values.covers_label("v")
        assert not collection.index.values.covers_label("w")

    def test_remove_document(self):
        collection = self._collection()
        collection.remove("c.xml")
        assert "c.xml" not in collection.index.values.lookup("v", ">", 20)

    def test_planner_uses_range_index(self):
        engine = XMLEngine("rg")
        for i in range(10):
            engine.store_document(
                "c", f"<Item><Release>200{i % 6}-01-01</Release><Code>I{i}</Code></Item>",
                name=f"d{i}.xml",
            )
        result = engine.execute(
            'for $i in collection("c")/Item'
            ' where $i/Release >= "2004-01-01" return $i/Code/text()'
        )
        # Only matching docs reach the evaluator (range-pruned).
        assert result.documents_scanned == result.result_text.count("I")
        assert result.documents_pruned > 0

    def test_range_lookup_soundness_against_evaluation(self):
        from repro.paths import cmp

        engine = XMLEngine("snd")
        values = ["5", "50", "500", "abc", "2004-06-01", "-3.5"]
        for i, value in enumerate(values):
            engine.store_document("c", f"<r><v>{value}</v></r>", name=f"{i}.xml")
        collection = engine.store.collection("c")
        for op in ("<", "<=", ">", ">="):
            for probe in (10, "2004-01-01", "b", -1):
                hits = collection.index.values.lookup("v", op, probe)
                predicate = cmp("/r/v", op, probe)
                for i, value in enumerate(values):
                    document = collection.get(f"{i}.xml").binary
                    if predicate.evaluate(document):
                        assert f"{i}.xml" in hits, (op, probe, value)


class TestPathIndex:
    def _collection(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document(
            "c", "<Store><Items><Item><PictureList/></Item></Items></Store>",
            name="with.xml",
        )
        store.store_document(
            "c", "<Store><Items><Item><Code>1</Code></Item></Items></Store>",
            name="without.xml",
        )
        return collection

    def test_exact_lookup(self):
        collection = self._collection()
        hits = collection.index.paths.lookup_exact(
            ("Store", "Items", "Item", "PictureList")
        )
        assert hits == {"with.xml"}

    def test_suffix_lookup(self):
        collection = self._collection()
        hits = collection.index.paths.lookup_suffix(("Item", "PictureList"))
        assert hits == {"with.xml"}
        assert collection.index.paths.lookup_suffix(("Item",)) == {
            "with.xml", "without.xml"
        }

    def test_attribute_paths_indexed(self):
        store = DocumentStore()
        collection = store.create_collection("c")
        store.store_document("c", '<a><b id="1"/></a>', name="d.xml")
        assert collection.index.paths.lookup_exact(("a", "b", "@id")) == {"d.xml"}

    def test_planner_uses_structural_index_for_exists(self):
        engine = XMLEngine("px")
        engine.store_document(
            "c", "<Store><Items><Item><PictureList/></Item></Items></Store>",
            name="with.xml",
        )
        engine.store_document(
            "c", "<Store><Items><Item><Code>1</Code></Item></Items></Store>",
            name="without.xml",
        )
        # Label-only index would match nothing different here, but the
        # structural key (full path) prunes precisely.
        result = engine.execute(
            'for $i in collection("c")/Store/Items/Item'
            " where $i/PictureList return $i"
        )
        assert result.documents_scanned == 1

    def test_structural_exists_distinguishes_context(self):
        # The same label under different parents: the label index cannot
        # tell them apart, the structural one can.
        engine = XMLEngine("px2")
        engine.store_document("c", "<r><a><x/></a></r>", name="1.xml")
        engine.store_document("c", "<r><b><x/></b></r>", name="2.xml")
        from repro.paths import exists

        collection = engine.store.collection("c")
        names, _ = candidate_documents(collection, exists("/r/a/x"))
        assert names == ["1.xml"]
        names, _ = candidate_documents(collection, exists("//b/x"))
        assert names == ["2.xml"]


class TestExplain:
    def test_explain_reports_candidates(self, engine):
        report = engine.explain(
            'count(for $i in collection("items")/Item'
            ' where contains($i/Description, "good") return $i)'
        )
        assert report["aggregate"] == "count"
        assert report["uses_text_search"]
        assert report["collections"]["items"]["documents"] == 10
        assert report["collections"]["items"]["candidates"] == 4

    def test_explain_without_predicate(self, engine):
        report = engine.explain('collection("items")/Item')
        assert report["predicate"] is None
        assert report["collections"]["items"]["candidates"] == 10

    def test_explain_does_not_execute(self, engine):
        engine.explain('collection("items")/Item')
        assert engine.stats.queries_executed == 0
