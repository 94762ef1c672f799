"""One evaluator, two node accessors: the DOM is the oracle.

Queries run on the stored node tables through ``NodeHandle``; ``XMLNode``
is the second implementation of the same accessor. Everything here
evaluates a query (or a path, or serializes a node) once over root
handles and once over the trees ``materialize()`` decodes from the same
tables, and requires identical bytes — errors included.
"""

import pytest

from repro.datamodel import XMLNode, doc, elem
from repro.datamodel.tree import NodeKind
from repro.datamodel.binary import BinaryXMLDocument, NodeHandle, StringPool
from repro.engine.database import serialize_sequence
from repro.errors import PartixError
from repro.fuzz.generator import generate_case, spec_for_iteration
from repro.paths import evaluate_path
from repro.workloads import (
    build_items_collection,
    build_store_collection,
    build_xbench_collection,
    items_queries,
    store_queries,
    xbench_queries,
)
from repro.xmltext import serialize
from repro.xquery.evaluator import DynamicContext, Evaluator
from repro.xquery.parser import parse_query


class Roots:
    """A DocumentProvider over fixed document roots."""

    def __init__(self, collections: dict[str, list]):
        self._collections = collections

    def collection_roots(self, name):
        return list(self._collections[name])

    def document_root(self, name):  # pragma: no cover - no doc() queries
        return None


def both_accessors(collections: dict[str, list]) -> tuple[Roots, Roots]:
    """``{collection: documents}`` as (handle provider, DOM provider) over
    the same node tables, one string pool per collection."""
    handles, trees = {}, {}
    for name, documents in collections.items():
        pool = StringPool()
        tables = [BinaryXMLDocument.encode(d, pool) for d in documents]
        handles[name] = [table.root for table in tables]
        trees[name] = [table.materialize().root for table in tables]
    return Roots(handles), Roots(trees)


def outcome(query: str, provider: Roots):
    """The serialized answer, or the error's class and message."""
    try:
        items = Evaluator().evaluate(
            parse_query(query), DynamicContext(provider=provider)
        )
    except PartixError as error:
        return type(error), str(error)
    return serialize_sequence(items)


def assert_equivalent(query: str, handles: Roots, trees: Roots):
    on_tables = outcome(query, handles)
    assert on_tables == outcome(query, trees), query
    return on_tables


# ----------------------------------------------------------------------
# (a) whole queries
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build, queries",
    [
        (lambda: build_items_collection(24, kind="small", seed=5), items_queries),
        (lambda: build_items_collection(6, kind="large", seed=5), items_queries),
        (lambda: build_xbench_collection(8, doc_bytes=12_000, seed=5), xbench_queries),
        (lambda: build_store_collection(30, seed=5), store_queries),
    ],
    ids=["items-small", "items-large", "xbench", "store"],
)
def test_workload_queries_answer_identically(build, queries):
    collection = build()
    handles, trees = both_accessors({collection.name: list(collection)})
    answered = 0
    for query in queries(collection.name):
        answered += bool(assert_equivalent(query.text, handles, trees))
    assert answered  # the sets are not vacuous on these collections


def test_fuzz_generated_pairs_answer_identically():
    pairs = 0
    iteration = 0
    while pairs < 200:
        case = generate_case(spec_for_iteration(2006, iteration))
        iteration += 1
        handles, trees = both_accessors({"Cfuzz": list(case.collection)})
        for query in case.queries:
            assert_equivalent(query, handles, trees)
            pairs += 1


@pytest.fixture(scope="module")
def two_documents():
    """Two documents of one pool: repeated names, nesting under ``//``."""
    return both_accessors(
        {
            "c": [
                doc(
                    elem(
                        "r",
                        elem("a", elem("b", "1"), elem("b", "2"), elem("a", elem("b", "3"))),
                        elem("a", elem("b", "4")),
                        id="x",
                    ),
                    name="one.xml",
                ),
                doc(
                    elem("r", elem("a", elem("b", "1"), elem("c", "5")), id="y"),
                    name="two.xml",
                ),
            ]
        }
    )


NAMED_CASES = {
    "positional predicate per context node": 'collection("c")/r/a/b[2]',
    "positional predicate on the first step": 'collection("c")/r[1]/a[2]/b',
    "positional filter over the whole sequence": '(collection("c")//b)[3]',
    "last()": 'collection("c")/r/a/b[last()]',
    "// from the virtual document node": 'collection("c")//a',
    "// matches the root itself": (
        'for $r in collection("c")//r return string($r/@id)'
    ),
    "nested // with duplicates": 'collection("c")//a//b',
    "wildcard and text()": 'collection("c")/r/*/b/text()',
    "union across documents": 'collection("c")//b union collection("c")/r/a/c',
    "union eliminates duplicates": 'collection("c")//b union collection("c")/r/a/b',
    "intersect": 'collection("c")//b intersect collection("c")/r/a/b',
    "except": 'collection("c")//b except collection("c")/r/a/b',
    "equal values in two documents stay two nodes": (
        'count(collection("c")//b[. = "1"] union collection("c")//b[. = "1"])'
    ),
    "absolute path from a context node": (
        'for $b in collection("c")//c return count($b//b)'
    ),
    "name() and string()": (
        'for $n in collection("c")/r/* return concat(name($n), "=", string($n))'
    ),
    "constructor embeds stored subtrees and attributes": (
        'for $r in collection("c")/r return element out { $r/a[1], $r/@id }'
    ),
    "attribute and text constructors": (
        'for $r in collection("c")/r'
        " return element o { attribute k { $r/@id }, text { $r/a/b } }"
    ),
    "order by a stored value": (
        'for $b in collection("c")//b order by $b descending return $b'
    ),
    "quantifier": 'some $b in collection("c")//b satisfies $b = "4"',
    "atomic in a path step": 'count((1, 2)/a)',
    "atomic reached through a stored node": (
        'for $r in collection("c")/r return string($r/@id)/a'
    ),
    "union of non-nodes": 'collection("c")//b union (1, 2)',
    "intersect of non-nodes": '("x") intersect collection("c")//b',
}


@pytest.mark.parametrize("query", NAMED_CASES.values(), ids=NAMED_CASES.keys())
def test_named_cases(two_documents, query):
    assert_equivalent(query, *two_documents)


def test_named_cases_cover_answers_and_errors(two_documents):
    handles, _ = two_documents
    results = {name: outcome(q, handles) for name, q in NAMED_CASES.items()}
    errors = {name for name, result in results.items() if isinstance(result, tuple)}
    assert errors == {
        "atomic in a path step",
        "atomic reached through a stored node",
        "union of non-nodes",
        "intersect of non-nodes",
    }
    assert results["equal values in two documents stay two nodes"] == "2"
    assert results["nested // with duplicates"].count("<b>") == 5  # 3 once
    assert results["positional filter over the whole sequence"] == "<b>3</b>"


def test_path_results_come_back_in_document_order(two_documents):
    handles, trees = two_documents
    for path in ("//a//b", "//b", "/r/a[2]/b", "//a/b[1]", "/r/@id", "//*"):
        for on_table, on_tree in zip(
            handles.collection_roots("c"), trees.collection_roots("c")
        ):
            selected = evaluate_path(path, on_table)
            assert all(isinstance(node, NodeHandle) for node in selected)
            indexes = [node.index for node in selected]
            assert indexes == sorted(set(indexes)), path
            assert [
                (node.kind, node.label, node.text_value()) for node in selected
            ] == [
                (node.kind, node.label, node.text_value())
                for node in evaluate_path(path, on_tree)
            ], path


def test_wide_document_orders_its_nodes_without_rescanning_siblings():
    """Document order over DOM nodes numbers a parent's children once per
    sort: 8,000 ``b`` selected twice over (``//*//b`` reaches each one
    from the root and from its ``a``) sort in a handful of list walks,
    not one ``children.index`` per node."""
    wide = elem("r", *[elem("a", elem("b", str(i))) for i in range(8000)])

    class CountingList(list):
        walks = 0

        def __iter__(self):
            CountingList.walks += 1
            return super().__iter__()

        def index(self, *args):  # pragma: no cover - the regression
            raise AssertionError("one sibling scan per sorted node")

    wide.children = CountingList(wide.children)
    before = CountingList.walks
    selected = evaluate_path("//*//b", wide)
    assert [node.text_value() for node in selected] == [
        str(i) for i in range(8000)
    ]
    assert CountingList.walks - before <= 4
    table = BinaryXMLDocument.encode(doc(wide, name="wide.xml"), StringPool())
    assert [n.text_value() for n in evaluate_path("//*//b", table.root)] == [
        node.text_value() for node in selected
    ]


# ----------------------------------------------------------------------
# (b) single path steps
# ----------------------------------------------------------------------
def _shared_name_document():
    """An attribute and an element that share a name, at two depths."""
    return doc(
        elem(
            "k",
            elem("k", elem("v", "1"), k="inner"),
            elem("v", elem("k", "2"), k="deep"),
            elem("v", "3"),
            k="outer",
        ),
        name="shared.xml",
    )


def _recursive_name_document():
    """Names that nest inside themselves: a named child step's posting
    slice then holds namesakes at every depth below the context node."""
    return doc(
        elem(
            "section",
            elem(
                "section",
                elem("section", elem("title", "a"), id="3"),
                elem("title", "b"),
                elem("section", elem("section", "c")),
            ),
            elem(
                "parlist",
                elem("listitem", elem("parlist", elem("listitem", "d"))),
                elem("listitem", "e"),
            ),
        ),
        name="recursive.xml",
    )


def _step_tables():
    """Tables of two fuzz cases of each family (one pool per case), the
    shared-name table and the recursive-name table, each with the names
    to try on it."""
    cases = [[_shared_name_document()], [_recursive_name_document()]]
    cases += [
        list(generate_case(spec_for_iteration(11, iteration)).collection)
        for iteration in range(6)
    ]
    for documents in cases:
        pool = StringPool()
        tables = [BinaryXMLDocument.encode(d, pool) for d in documents]
        # Interned by the pool, carried by no document of it.
        pool.intern("interned-but-absent")
        names = [pool.get(i) for i in range(len(pool))]
        names += [None, "never-interned"]
        for table in tables:
            yield table, names


def _ids(table, handles):
    return [table.node_ids[handle.index] for handle in handles]


def test_every_step_from_every_node_matches_the_dom():
    """``NodeHandle.select`` against ``XMLNode.select`` on the decoded
    subtree, for every position, kind, name, axis and ``or_self``; and
    ``sibling_index`` against the decoded document's."""
    steps = 0
    shared_kinds = set()
    for table, names in _step_tables():
        tree = list(table.materialize().root.descendants_or_self())
        for index in range(len(table)):
            handle = NodeHandle(table, index)
            subtree = table.decode(index)
            assert handle.sibling_index() == tree[index].sibling_index()
            for kind in NodeKind:
                for name in names:
                    for descend in (False, True):
                        for or_self in (False, True):
                            on_table = handle.select(kind, name, descend, or_self)
                            on_dom = subtree.select(kind, name, descend, or_self)
                            assert _ids(table, on_table) == [
                                node.node_id for node in on_dom
                            ], (index, kind, name, descend, or_self)
                            steps += 1
                            if name == "k" and on_table:
                                shared_kinds.add(kind)
    assert steps > 100_000
    assert shared_kinds == {NodeKind.ELEMENT, NodeKind.ATTRIBUTE}


# ----------------------------------------------------------------------
# (c) the span serializer
# ----------------------------------------------------------------------
def _awkward_document():
    """What the generators do not emit: escapes in text and attribute
    values, empty elements, an empty text node, and an attribute sitting
    *after* element content (a tree built by hand may hold one)."""
    late = XMLNode.element("late")
    late.append(XMLNode.element("first"))
    late.children.append(XMLNode.attribute("k", 'a"b<c>&\'d'))
    late.children[-1].parent = late
    root = elem(
        "root",
        elem("t", 'x & y < z > w " q'),
        elem("empty"),
        elem("blank", ""),
        late,
        q='say "hi" & <go>',
    )
    return doc(root, name="awkward.xml")


def test_span_serializer_matches_the_tree_serializer_on_every_node():
    documents = [_awkward_document()]
    for iteration in range(9):  # three cases of each family
        documents.extend(generate_case(spec_for_iteration(7, iteration)).collection)
    pool = StringPool()
    nodes = 0
    for document in documents:
        table = BinaryXMLDocument.encode(document, pool)
        tree_nodes = list(table.materialize().root.descendants_or_self())
        assert len(tree_nodes) == len(table)
        for index, node in enumerate(tree_nodes):
            handle = NodeHandle(table, index)
            nodes += 1
            if node.is_attribute:
                for detached in (handle, node):
                    with pytest.raises(ValueError):
                        serialize(detached)
                continue
            assert serialize(handle) == serialize(node)
            assert serialize(handle.clone()) == serialize(node)
    assert nodes > 1000
    assert serialize(BinaryXMLDocument.encode(documents[0], pool).root) == (
        '<root q="say &quot;hi&quot; &amp; &lt;go&gt;">'
        "<t>x &amp; y &lt; z &gt; w \" q</t><empty/><blank></blank>"
        '<late k="a&quot;b&lt;c&gt;&amp;&apos;d"><first/></late></root>'
    )
