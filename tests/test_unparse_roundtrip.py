"""parse → unparse → parse is the identity on every workload query.

The fuzz harness ships generated queries as *text* (the only interface a
site driver offers) after building them as ASTs, and the decomposer
round-trips rewritten sub-queries the same way — so ``unparse`` must be a
faithful inverse of ``parse_query`` on the whole supported subset. Every
benchmark query of ``workloads/queries.py`` and every query the fuzz
generator can emit is checked.
"""

import pytest

from repro.fuzz.generator import generate_case, spec_for_iteration
from repro.workloads import queries as query_sets
from repro.xquery.parser import parse_query
from repro.xquery.unparse import unparse

ALL_BENCH_QUERIES = [
    pytest.param(q.text, id=f"{prefix}-{q.qid}")
    for prefix, qs in (
        ("items", query_sets.items_queries()),
        ("xbench", query_sets.xbench_queries()),
        ("store", query_sets.store_queries()),
    )
    for q in qs
]


@pytest.mark.parametrize("text", ALL_BENCH_QUERIES)
def test_bench_query_roundtrip(text):
    ast = parse_query(text)
    rendered = unparse(ast)
    assert parse_query(rendered) == ast
    # The rendering itself must be stable (unparse of a reparsed AST).
    assert unparse(parse_query(rendered)) == rendered


@pytest.mark.parametrize("iteration", range(24))
def test_generated_query_roundtrip(iteration):
    # generate_case already asserts parse(unparse(ast)) == ast for every
    # query it emits; this re-checks from the rendered text side so the
    # invariant is covered even if the generator's own assertion changes.
    case = generate_case(spec_for_iteration(20060301, iteration))
    for text in case.queries:
        ast = parse_query(text)
        assert parse_query(unparse(ast)) == ast


def test_roundtrip_preserves_structure_not_just_text():
    # Equality must be structural (frozen dataclasses), not textual: the
    # same AST can have many renderings but only one shape.
    text = 'for $i in collection("c")/Item where $i/P = 1 return $i'
    spaced = 'for  $i  in  collection("c")/Item  where  ($i/P = 1)  return  $i'
    assert parse_query(text) == parse_query(spaced)


@pytest.mark.parametrize(
    "text",
    [
        '(collection("c")/a/b)[2]',
        'for $x in collection("c")/a return ($x/b/c)[last()]',
        '($x/b)[1]/c',
        '(for $x in collection("c")/a return $x/b)/c',
        '(if ($x) then $x/a else $x/b)/c',
        '(1, 2)[. = 1]',
        'collection("c")/a/b[2]',
    ],
)
def test_filters_and_steps_attach_where_they_were_written(text):
    # (a/b)[2] is the second b overall, a/b[2] every a's second: a
    # rendering that drops the parentheses ships a different query.
    ast = parse_query(text)
    assert parse_query(unparse(ast)) == ast
