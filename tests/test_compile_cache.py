"""The engine's compiled-sub-query cache: query text -> (expr, analysis).

A site compiles a sub-query text once and runs it many times; the shared
pair must behave exactly like a fresh parse — same answers under every
``ExecOptions``, same counters, same errors — from any number of threads.
"""

import itertools
import sys
import threading

import pytest

from repro.datamodel import doc, elem
from repro.engine import ExecOptions, XMLEngine
from repro.engine.database import COMPILE_CACHE_CAPACITY
from repro.errors import XQuerySyntaxError
from repro.xquery import analyze_query
from repro.xquery.parser import parse_query

CD_CODES = 'for $i in collection()/Item where $i/Section = "CD" return $i/Code'


def _engine(**options):
    engine = XMLEngine("compile-test", **options)
    for collection, count in (("a", 12), ("b", 7)):
        for i in range(count):
            engine.store_document(
                collection,
                doc(
                    elem(
                        "Item",
                        elem("Code", f"{collection}{i}"),
                        elem("Section", "CD" if i % 3 else "DVD"),
                    ),
                    name=f"{collection}{i}.xml",
                ),
            )
    return engine


def _analysis_view(analysis):
    """Every field of a QueryAnalysis as plain comparable values
    (predicates compare by identity, so they are rendered)."""
    return (
        sorted(analysis.collections, key=str),
        sorted(analysis.documents),
        analysis.touched_path_strings(),
        analysis.paths_exact,
        [str(path) for path in analysis.binding_paths],
        analysis.bindings_exact,
        str(analysis.predicate),
        analysis.predicate_exact,
        analysis.aggregate,
        analysis.uses_text_search,
    )


def _counters(record):
    """The work counters (no timings) of a QueryResult or EngineStats."""
    return {
        name: value
        for name, value in vars(record).items()
        if isinstance(value, int)
    }


class TestCompileCache:
    def test_a_text_is_compiled_once_and_an_expr_bypasses_the_cache(self):
        engine = _engine()
        options = ExecOptions(default_collection="a")
        first = engine._compile(CD_CODES)
        assert engine._compile(CD_CODES) is first
        assert engine.execute(CD_CODES, options).result_text
        assert list(engine._compiled) == [CD_CODES]

        expr = parse_query(CD_CODES)
        parsed, analysis = engine._compile(expr)
        assert parsed is expr and analysis is not first[1]
        assert (
            engine.execute(expr, options).result_text
            == engine.execute(CD_CODES, options).result_text
        )
        assert list(engine._compiled) == [CD_CODES]
        assert engine.explain(CD_CODES, default_collection="a")["predicate"]
        assert list(engine._compiled) == [CD_CODES]

    def test_a_syntax_error_raises_every_time_and_is_never_cached(self):
        engine = _engine()
        messages = set()
        for _ in range(3):
            with pytest.raises(XQuerySyntaxError) as info:
                engine.execute("for $i in collection(")
            messages.add(str(info.value))
            with pytest.raises(XQuerySyntaxError):
                engine.explain("for $i in collection(")
        assert len(messages) == 1
        assert len(engine._compiled) == 0

    def test_one_text_over_capacity_evicts_exactly_the_oldest(self):
        engine = _engine()
        texts = [
            f'count(collection("a")/Item[Code = "a{n}"])'
            for n in range(COMPILE_CACHE_CAPACITY + 1)
        ]
        for text in texts[:-1]:
            engine.execute(text)
        assert list(engine._compiled) == texts[:-1]
        engine.execute(texts[0])  # refresh: texts[1] is now the oldest
        engine.execute(texts[-1])
        assert len(engine._compiled) == COMPILE_CACHE_CAPACITY
        assert texts[1] not in engine._compiled
        assert set(texts) - {texts[1]} == set(engine._compiled)

    def test_counters_are_identical_cold_and_warm(self):
        texts = [
            CD_CODES,
            'collection("a")/Item[Code = "a4"]/Section',
            'count(collection("b")/Item[contains(Section, "DVD")])',
            'collection("a")/Item/Code',
        ]
        for use_indexes in (True, False):
            engine = _engine(use_indexes=use_indexes)
            options = ExecOptions(default_collection="b")
            for text in texts:
                start = engine.stats.snapshot()
                cold = engine.execute(text, options)
                middle = engine.stats.snapshot()
                assert text in engine._compiled
                warm = engine.execute(text, options)
                end = engine.stats.snapshot()
                assert warm.result_text == cold.result_text
                assert _counters(warm) == _counters(cold)
                # index_lookups & co. live on the cumulative stats only.
                assert _counters(end.diff(middle)) == _counters(
                    middle.diff(start)
                )
            if use_indexes:
                assert engine.stats.index_lookups > 0

    def test_eight_threads_under_interleaved_options_match_a_fresh_parse(self):
        # Index access is the engine's own setting: one indexed and one
        # scanning engine, each run under both default collections.
        engines = (_engine(use_indexes=True), _engine(use_indexes=False))
        combos = [
            (engine, ExecOptions(default_collection=collection))
            for collection, engine in itertools.product(("a", "b"), engines)
        ]
        # The pre-parsed Expr never touches the cache: the reference.
        expected = [
            engine.execute(parse_query(CD_CODES), options).result_text
            for engine, options in combos
        ]
        assert len(set(expected)) == 2  # one answer per collection
        assert all(len(engine._compiled) == 0 for engine in engines)
        for (engine, options), answer in zip(combos, expected[:2]):
            assert engine.execute(CD_CODES, options).result_text == answer
        shared = [engine._compile(CD_CODES)[1] for engine in engines]
        pristine = _analysis_view(analyze_query(CD_CODES))
        assert all(_analysis_view(one) == pristine for one in shared)

        wrong = []

        def _client(offset):
            offset %= len(combos)
            order = combos[offset:] + combos[:offset]
            for _ in range(6):
                for engine, options in order:
                    text = engine.execute(CD_CODES, options).result_text
                    if text != expected[combos.index((engine, options))]:
                        wrong.append((engine.use_indexes, options, text))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=_client, args=(offset,))
                for offset in range(8)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(60.0)
            assert not any(client.is_alive() for client in clients)
        finally:
            sys.setswitchinterval(interval)
        assert not wrong
        for engine, one in zip(engines, shared):
            assert list(engine._compiled) == [CD_CODES]
            assert engine._compile(CD_CODES)[1] is one
            assert _analysis_view(one) == pristine
        assert engines[0].stats.index_lookups > 0
        assert engines[1].stats.index_lookups == 0
