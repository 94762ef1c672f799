"""The collection index against a table-scan reference.

The reference reads every row of every stored node table — root-to-node
path and string value, nothing the index builds — and decides each atom
by brute force. ``candidate_documents`` must return a superset of the
documents the reference matches (for existence atoms: exactly them),
over the ToXgene Items, the XBench articles and the fuzz generator's
three families; and a stored table must serialize back to the very bytes
that were stored.
"""

import operator
import random

import pytest

from repro.datamodel.binary import KIND_TEXT
from repro.engine import XMLEngine, candidate_documents
from repro.fuzz.generator import CaseSpec, generate_case
from repro.paths import cmp, contains, exists, starts_with
from repro.paths.predicates import as_number
from repro.workloads import build_items_collection, build_xbench_collection
from repro.xmltext.serializer import serialize

OPS = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

COLLECTIONS = {
    "items": lambda: build_items_collection(24, seed=5),
    "articles": lambda: build_xbench_collection(4, doc_bytes=6_000, seed=5),
    **{
        f"fuzz-{family}": lambda family=family: generate_case(
            CaseSpec(seed=31, family=family, doc_count=8, fragment_count=2)
        ).collection
        for family in ("items", "articles", "store")
    },
}


@pytest.fixture(scope="module", params=sorted(COLLECTIONS))
def stored(request):
    """``(collection as built, its stored twin)``."""
    source = COLLECTIONS[request.param]()
    engine = XMLEngine("oracle")
    for document in source:
        engine.store_document("c", document)
    return source, engine.store.collection("c")


def rows(record):
    """``(root-to-node path, string value)`` of every element and
    attribute row of one stored table."""
    table = record.binary
    return [
        (table.path_labels(index), table.text_value(index))
        for index in range(len(table))
        if table.kinds[index] != KIND_TEXT
    ]


def scan(collection, test):
    """Names of the documents with a row passing ``test(path, value)``."""
    return {
        name
        for name in collection.names()
        if any(test(path, value) for path, value in rows(collection.get(name)))
    }


def compare(left, op, right):
    """The comparison rule, restated: numeric when both sides parse."""
    a, b = as_number(left), as_number(right)
    if a is None or b is None:
        a, b = left, str(right)
    return OPS[op](a, b)


def sample_rows(collection, count=30):
    distinct = sorted(
        {row for name in collection.names() for row in rows(collection.get(name))}
    )
    return random.Random(7).sample(distinct, min(count, len(distinct)))


def probes(value):
    """The value itself, respelled numerals, and near misses."""
    number = as_number(value)
    if number is None:
        return [value, value + "a", value[:-1]]
    spelled = [value, number, f"{value}.0" if value.isdigit() else value, "0" + value]
    return spelled + [number + 1, str(number - 1), "abc"]


def candidates(collection, predicate):
    names, _ = candidate_documents(collection, predicate)
    return set(names)


def test_label_and_path_existence_is_exact(stored):
    _, collection = stored
    for path, _ in sample_rows(collection):
        exact = "/" + "/".join(path)
        assert candidates(collection, exists(exact)) == scan(
            collection, lambda p, _v: p == path
        )
        label = path[-1]
        assert candidates(collection, exists("//" + label)) == scan(
            collection, lambda p, _v: p[-1] == label
        )
    assert candidates(collection, exists("//NoSuchLabel")) == set()


def test_comparisons_are_a_superset(stored):
    _, collection = stored
    for path, value in sample_rows(collection):
        text = "/" + "/".join(path)
        for op in OPS:
            for probe in probes(value):
                truth = scan(
                    collection,
                    lambda p, v: p == path and compare(v, op, probe),
                )
                found = candidates(collection, cmp(text, op, probe))
                assert truth <= found, (text, op, probe)
        # The probe that is the stored value finds its own document.
        assert scan(collection, lambda p, v: (p, v) == (path, value)) <= (
            candidates(collection, cmp(text, "=", value))
        )


def test_text_search_is_a_superset(stored):
    _, collection = stored
    for path, value in sample_rows(collection):
        if not value.strip():
            continue
        text = "/" + "/".join(path)
        words = value.split()
        for needle in (words[0], words[-1][:3], value[: len(value) // 2 + 1]):
            assert scan(
                collection, lambda p, v: p == path and needle in v
            ) <= candidates(collection, contains(text, needle))
            assert scan(
                collection, lambda p, v: p == path and v.startswith(needle)
            ) <= candidates(collection, starts_with(text, needle))


def test_a_stored_table_serializes_to_the_bytes_stored(stored):
    source, collection = stored
    for document in source:
        record = collection.get(document.name)
        data = serialize(document).encode("utf-8")
        assert serialize(record.binary.root).encode("utf-8") == data
        assert record.size == len(data)
