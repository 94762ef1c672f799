"""Unit tests for query decomposition and localization."""

import pytest

from repro.cluster import Cluster
from repro.errors import DecompositionError
from repro.partix import (
    CompositionSpec,
    DataPublisher,
    FragMode,
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    QueryDecomposer,
    SubQuery,
    VerticalFragment,
    annotated,
    rename_collections,
    rewrite_avg_to_sum_count,
    rewrite_paths_for_fragment_root,
)
from repro.partix.decomposer import _reroot_path, projection_paths
from repro.paths import eq, exists, ne, parse_path
from repro.xquery.analysis import analyze_query
from repro.xquery.parser import parse_query
from repro.xquery.unparse import unparse


def _publish(collection, design, frag_mode=FragMode.SINGLE_DOCUMENT, sites=4):
    cluster = Cluster.with_sites(sites)
    publisher = DataPublisher(cluster)
    publisher.publish(collection, design, frag_mode=frag_mode)
    return QueryDecomposer(publisher.catalog)


@pytest.fixture
def horizontal_decomposer(items_collection):
    design = FragmentationSchema("Citems", [
        HorizontalFragment("F_cd", "Citems", predicate=eq("/Item/Section", "CD")),
        HorizontalFragment("F_dvd", "Citems", predicate=eq("/Item/Section", "DVD")),
        HorizontalFragment("F_rest", "Citems", predicate=(
            ne("/Item/Section", "CD") & ne("/Item/Section", "DVD"))),
    ], root_label="Item")
    return _publish(items_collection, design)


@pytest.fixture
def vertical_decomposer(papers_collection):
    design = FragmentationSchema("Cpapers", [
        VerticalFragment("F_prolog", "Cpapers", path="/article/prolog"),
        VerticalFragment("F_body", "Cpapers", path="/article/body"),
        VerticalFragment("F_epilog", "Cpapers", path="/article/epilog"),
    ], root_label="article")
    return _publish(papers_collection, design)


class TestHorizontalDecomposition:
    def test_all_fragments_without_predicate(self, horizontal_decomposer):
        plan = horizontal_decomposer.decompose(
            'for $i in collection("Citems")/Item return $i/Code/text()'
        )
        assert plan.fragment_names == ["F_cd", "F_dvd", "F_rest"]
        assert plan.composition.kind == "concat"

    def test_matching_predicate_prunes(self, horizontal_decomposer):
        plan = horizontal_decomposer.decompose(
            'for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" return $i/Name/text()'
        )
        assert plan.fragment_names == ["F_cd"]
        assert any("pruned" in note for note in plan.notes)

    def test_subquery_renames_collection(self, horizontal_decomposer):
        plan = horizontal_decomposer.decompose(
            'count(collection("Citems")/Item)'
        )
        assert all(f'collection("{sq.fragment}")' in sq.query
                   for sq in plan.subqueries)

    def test_aggregate_composition(self, horizontal_decomposer):
        plan = horizontal_decomposer.decompose(
            'count(for $i in collection("Citems")/Item return $i)'
        )
        assert plan.composition.kind == "aggregate"
        assert plan.composition.aggregate == "count"

    def test_avg_ships_sum_count_pair(self, horizontal_decomposer):
        plan = horizontal_decomposer.decompose(
            'avg(for $i in collection("Citems")/Item'
            " return string-length($i/Name))"
        )
        assert plan.composition.aggregate == "avg"
        assert "sum(" in plan.subqueries[0].query
        assert "count(" in plan.subqueries[0].query

    def test_contradicting_all_fragments_yields_empty_plan(
        self, horizontal_decomposer
    ):
        plan = horizontal_decomposer.decompose(
            'for $i in collection("Citems")/Item'
            ' where $i/Section = "CD" and $i/Section = "DVD" return $i'
        )
        assert plan.subqueries == []

    def test_unfragmented_collection_rejected(self, horizontal_decomposer):
        with pytest.raises(Exception):
            horizontal_decomposer.decompose('collection("Other")/x')

    def test_query_without_collection_rejected(self, horizontal_decomposer):
        with pytest.raises(DecompositionError):
            horizontal_decomposer.decompose("1 + 1")


class TestVerticalDecomposition:
    def test_single_fragment_rewritten(self, vertical_decomposer):
        plan = vertical_decomposer.decompose(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/prolog/title, "x")'
            " return $a/prolog/title/text()"
        )
        assert plan.fragment_names == ["F_prolog"]
        assert plan.composition.kind == "concat"
        assert 'collection("F_prolog")/prolog' in plan.subqueries[0].query

    def test_direct_path_rewritten(self, vertical_decomposer):
        plan = vertical_decomposer.decompose(
            'count(collection("Cpapers")/article/epilog/country)'
        )
        assert plan.fragment_names == ["F_epilog"]
        assert plan.composition.kind == "aggregate"

    def test_multi_fragment_reconstructs(self, vertical_decomposer):
        # The return reads two fragments: no single fragment can answer
        # for the keys of the others, so the documents are rebuilt.
        plan = vertical_decomposer.decompose(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/body/abstract, "x")'
            " return ($a/prolog/title/text(), $a/body/abstract/text())"
        )
        assert set(plan.fragment_names) == {"F_prolog", "F_body"}
        assert plan.composition.kind == "reconstruct"
        assert all(sq.purpose == "fetch" for sq in plan.subqueries)
        assert plan.composition.root_label == "article"

    def test_filter_and_return_in_different_fragments_semijoin(
        self, vertical_decomposer
    ):
        plan = vertical_decomposer.decompose(
            'for $a in collection("Cpapers")/article'
            ' where contains($a/body/abstract, "x")'
            " return $a/prolog/title/text()"
        )
        assert plan.composition.kind == "concat"
        assert [lane.subquery.fragment for lane in plan.key_lanes] == ["F_body"]
        assert [lane.subquery.fragment for lane in plan.lanes] == ["F_prolog"]
        assert plan.fragment_names == ["F_body", "F_prolog"]

    def test_descendant_path_goes_everywhere(self, vertical_decomposer):
        plan = vertical_decomposer.decompose(
            'count(collection("Cpapers")//title)'
        )
        # //title may live in any fragment: all three are relevant.
        assert len(plan.fragment_names) == 3


@pytest.fixture
def store_design():
    return FragmentationSchema("Cstore", [
        VerticalFragment("F1", "Cstore", path="/Store",
                         prune=("/Store/Items",), stub_prunes=True),
        HybridFragment("F2", "Cstore", path="/Store/Items",
                       unit_label="Item", predicate=eq("/Item/Section", "CD")),
        HybridFragment("F3", "Cstore", path="/Store/Items",
                       unit_label="Item", predicate=ne("/Item/Section", "CD")),
    ], root_label="Store")


class TestHybridDecomposition:
    def test_unit_query_prunes_by_predicate(self, store_collection, store_design):
        decomposer = _publish(store_collection, store_design)
        plan = decomposer.decompose(
            'for $i in collection("Cstore")/Store/Items/Item'
            ' where $i/Section = "CD" return $i/Code/text()'
        )
        assert plan.fragment_names == ["F2"]

    def test_fragmode2_query_unchanged_shape(self, store_collection, store_design):
        decomposer = _publish(store_collection, store_design)
        plan = decomposer.decompose(
            'for $i in collection("Cstore")/Store/Items/Item return $i'
        )
        assert "/Store/Items/Item" in plan.subqueries[0].query

    def test_fragmode1_query_rewritten(self, store_collection, store_design):
        decomposer = _publish(
            store_collection, store_design,
            frag_mode=FragMode.INDEPENDENT_DOCUMENTS,
        )
        plan = decomposer.decompose(
            'for $i in collection("Cstore")/Store/Items/Item return $i'
        )
        assert 'collection("F2")/Item' in plan.subqueries[0].query

    def test_remainder_query_routed(self, store_collection, store_design):
        decomposer = _publish(store_collection, store_design)
        plan = decomposer.decompose(
            'for $s in collection("Cstore")/Store/Sections/SectionEntry'
            " return $s/Name/text()"
        )
        assert plan.fragment_names == ["F1"]

    def test_spanning_query_reconstructs(self, store_collection, store_design):
        decomposer = _publish(store_collection, store_design)
        plan = decomposer.decompose(
            'for $s in collection("Cstore")/Store'
            " return count($s/Items/Item)"
        )
        assert plan.composition.kind == "reconstruct"


@pytest.mark.parametrize(
    "frag_mode", [FragMode.INDEPENDENT_DOCUMENTS, FragMode.SINGLE_DOCUMENT]
)
class TestHybridRule:
    """StoreHyb localized by the other kinds' rules: the units by the
    horizontal rule, the remainder by the vertical rule, anything else by
    reconstruction — never by a private test that errs toward the units."""

    @staticmethod
    def _store(frag_mode):
        from repro.bench.scenarios import build_store_scenario

        return build_store_scenario(
            paper_mb=100, frag_mode=frag_mode, scale=0.01
        ).partix

    @staticmethod
    def _assert_central(partix, query):
        answer = partix.execute(query, collection="Cstore").result_text
        assert answer == partix.execute_centralized(query, "central").result_text

    @pytest.mark.parametrize(
        "query",
        [
            # A ``//`` path reaches the remainder's Names and Codes too.
            'count(collection("Cstore")//Name)',
            'count(collection("Cstore")//Code)',
            # Every FragMode2 fragment holds its own copy of the spine.
            'count(collection("Cstore")/Store)',
            'count(collection("Cstore")/Store/Items)',
            'collection("Cstore")/Store/Items',
        ],
    )
    def test_paths_above_or_across_the_units_reconstruct(self, frag_mode, query):
        with self._store(frag_mode) as partix:
            plan = partix.explain(query, "Cstore")
            assert plan.composition.kind == "reconstruct"
            self._assert_central(partix, query)

    def test_unit_lookup_is_routed_by_value(self, frag_mode):
        lookup = (
            'for $i in collection("Cstore")/Store/Items/Item'
            ' where $i/Code = "{}" return $i'
        )
        with self._store(frag_mode) as partix:
            plan = partix.explain(lookup.format("I-000050"), "Cstore")
            assert len(plan.lanes) == 1
            units = {"F2", "F3", "F4", "F5"}
            assert set(plan.summary_pruned) == units - set(plan.fragment_names)
            self._assert_central(partix, lookup.format("I-000050"))
            assert partix.explain(lookup.format("I-999999"), "Cstore").lanes == []
            self._assert_central(partix, lookup.format("I-999999"))

    def test_two_remainder_fragments_take_the_vertical_rule(self, frag_mode):
        from repro.cluster import Site
        from repro.partix import Partix
        from repro.workloads import (
            build_store_collection,
            store_hybrid_fragmentation,
        )

        collection = build_store_collection(40)
        design = FragmentationSchema("Cstore", [
            VerticalFragment(
                "R1", "Cstore", path="/Store",
                prune=("/Store/Items", "/Store/Employees"), stub_prunes=True,
            ),
            VerticalFragment("R2", "Cstore", path="/Store/Employees"),
            *store_hybrid_fragmentation(4, "Cstore").hybrid_fragments(),
        ], root_label="Store")
        cluster = Cluster.with_sites(6)
        cluster.add(Site("central"))
        with Partix(cluster) as partix:
            partix.publish(collection, design, frag_mode=frag_mode)
            partix.publish_centralized(collection, "central")
            names = (
                'for $e in collection("Cstore")/Store/Employees/Employee'
                " return $e/Name/text()"
            )
            plan = partix.explain(names, "Cstore")
            assert plan.composition.kind == "concat"
            assert plan.fragment_names == ["R2"]
            self._assert_central(partix, names)
            both = (
                '(collection("Cstore")/Store/Name/text(),'
                ' collection("Cstore")/Store/Employees/Employee/Name/text())'
            )
            plan = partix.explain(both, "Cstore")
            assert plan.composition.kind == "reconstruct"
            assert sorted(plan.fragment_names) == ["R1", "R2"]
            self._assert_central(partix, both)


class TestRewriters:
    def test_rename_collections(self):
        ast = parse_query('count(collection("a")/x) + count(collection("b")/y)')
        renamed = rename_collections(ast, {"a": "a2"})
        text = unparse(renamed)
        assert 'collection("a2")/x' in text
        assert 'collection("b")/y' in text

    def test_avg_rewrite(self):
        ast = parse_query("avg(collection(\"c\")/x/v)")
        rewritten = rewrite_avg_to_sum_count(ast)
        text = unparse(rewritten)
        assert "sum(" in text and "count(" in text

    def test_fragment_root_full_chain(self):
        ast = parse_query('collection("c")/a/b/c')
        rewritten = rewrite_paths_for_fragment_root(ast, ["a", "b"])
        assert unparse(rewritten) == 'collection("c")/b/c'

    def test_fragment_root_partial_binding(self):
        ast = parse_query(
            'for $x in collection("c")/a where $x/b/c = 1 return $x/b/d'
        )
        rewritten = rewrite_paths_for_fragment_root(ast, ["a", "b"])
        text = unparse(rewritten)
        assert 'collection("c")/b' in text
        assert "$x/c" in text and "$x/d" in text

    def test_fragment_root_bare_var_fails(self):
        ast = parse_query('for $x in collection("c")/a return $x')
        assert rewrite_paths_for_fragment_root(ast, ["a", "b"]) is None

    def test_descendant_paths_untouched(self):
        ast = parse_query('collection("c")//d')
        rewritten = rewrite_paths_for_fragment_root(ast, ["a", "b"])
        assert unparse(rewritten) == 'collection("c")//d'

    def test_unrelated_root_untouched(self):
        ast = parse_query('collection("c")/z/w')
        rewritten = rewrite_paths_for_fragment_root(ast, ["a", "b"])
        assert unparse(rewritten) == 'collection("c")/z/w'

    def test_descendant_step_after_a_stripped_label_fails(self):
        # On Item roots ``$s/Items//Code`` would select nothing.
        ast = parse_query(
            'for $s in collection("C")/Store return $s/Items//Code'
        )
        chain = ["Store", "Items", "Item"]
        assert rewrite_paths_for_fragment_root(ast, chain) is None

    def test_leading_wildcard_fails(self):
        ast = parse_query('collection("C")/*/Items/Item/Code')
        chain = ["Store", "Items", "Item"]
        assert rewrite_paths_for_fragment_root(ast, chain) is None

    def test_path_naming_the_fragment_root_first_fails(self):
        # Kept as it is, /b/w would select below the fragment roots what
        # the source documents (rooted at a) do not have there.
        ast = parse_query('collection("c")/b/w')
        assert rewrite_paths_for_fragment_root(ast, ["a", "b"]) is None

    def test_attribute_in_place_of_the_unit_is_not_rerooted(self):
        path = parse_path("/Store/Items/@Item")
        assert _reroot_path(path, parse_path("/Store/Items/Item")) is None


#: One row per (entry point, verdict, labels matched before it, root of
#: the path the verdict is about): the query and what the entry point
#: makes of it. ``rewrite`` and ``project`` read the fragment chain
#: ``[a, b, c]``; ``hybrid`` is the StoreHyb-like design (unit path
#: ``/Store/Items/Item``) and answers the branch its plan took. A path
#: has a step, so nothing is ``above`` at depth 0; a document-rooted
#: path walks the whole chain, so only a variable already bound to the
#: fragment roots walks at depth 0.
_VERDICT_CASES = [
    ("rewrite", "walks", 3, "collection",
     'collection("C")/a/b/c/d', 'collection("C")/c/d'),
    ("rewrite", "walks", 0, "variable",
     'for $x in collection("C")/a/b/c return $x/d',
     'for $x in collection("C")/c return $x/d'),
    ("rewrite", "walks", 2, "variable",
     'for $x in collection("C")/a return $x/b/c/d',
     'for $x in collection("C")/c return $x/d'),
    ("rewrite", "above", 2, "collection", 'count(collection("C")/a/b)', None),
    ("rewrite", "above", 1, "variable",
     'for $x in collection("C")/a, $y in $x/b return $y/c/d',
     'for $x in collection("C")/c for $y in $x return $y/d'),
    ("rewrite", "above", 1, "variable",
     'for $x in collection("C")/a return count($x/b)', None),
    ("rewrite", "unknown", 0, "collection",
     'collection("C")//d', 'collection("C")//d'),
    ("rewrite", "unknown", 0, "collection", 'collection("C")/*/b/c/d', None),
    ("rewrite", "unknown", 1, "collection", 'collection("C")/a//d', None),
    ("rewrite", "unknown", 0, "variable",
     'for $x in collection("C")/a return $x//d',
     'for $x in collection("C")/c return $x//d'),
    ("rewrite", "unknown", 1, "variable",
     'for $x in collection("C")/a return $x/b//d', None),
    ("rewrite", "leaves", 0, "collection",
     'collection("C")/z/w', 'collection("C")/z/w'),
    ("rewrite", "leaves", 0, "collection", 'collection("C")/c/w', None),
    ("rewrite", "leaves", 1, "collection", 'collection("C")/a/z', None),
    ("rewrite", "leaves", 0, "variable",
     'for $x in collection("C")/a return $x/z', None),
    ("rewrite", "leaves", 1, "variable",
     'for $x in collection("C")/a return $x/b/@id', None),
    ("project", "walks", 3, "collection", 'collection("C")/a/b/c/d', ("d",)),
    ("project", "walks", 3, "variable",
     'for $x in collection("C")/a/b/c return $x/d', ("d",)),
    ("project", "above", 2, "collection", 'collection("C")/a/b', (".",)),
    ("project", "above", 2, "variable",
     'for $x in collection("C")/a return $x/b', (".",)),
    ("project", "unknown", 0, "collection", 'collection("C")//d', (".",)),
    ("project", "unknown", 1, "collection", 'collection("C")/a/*/c/d', (".",)),
    ("project", "unknown", 2, "variable",
     'for $x in collection("C")/a return $x/b//d', (".",)),
    ("project", "leaves", 0, "collection", 'collection("C")/z/d', ()),
    ("project", "leaves", 1, "collection", 'collection("C")/a/z', ()),
    ("project", "leaves", 2, "variable",
     'for $x in collection("C")/a return $x/b/@id', ()),
    ("hybrid", "walks", 3, "collection",
     'collection("Cstore")/Store/Items/Item/Code', "units"),
    ("hybrid", "walks", 3, "variable",
     'for $i in collection("Cstore")/Store/Items/Item return $i/Code', "units"),
    ("hybrid", "above", 2, "collection",
     'count(collection("Cstore")/Store/Items)', "reconstruct"),
    ("hybrid", "above", 2, "variable",
     'for $s in collection("Cstore")/Store return count($s/Items)',
     "reconstruct"),
    ("hybrid", "unknown", 0, "collection",
     'count(collection("Cstore")//Code)', "reconstruct"),
    ("hybrid", "unknown", 1, "collection",
     'collection("Cstore")/Store/*/Item/Code', "reconstruct"),
    ("hybrid", "unknown", 1, "variable",
     'for $s in collection("Cstore")/Store return $s/*/Item/Code',
     "reconstruct"),
    ("hybrid", "leaves", 0, "collection",
     'count(collection("Cstore")/Other)', "remainder"),
    ("hybrid", "leaves", 0, "variable",
     'for $o in collection("Cstore")/Other return $o/Name', "remainder"),
    ("hybrid", "leaves", 1, "collection",
     'collection("Cstore")/Store/Sections/SectionEntry/Name', "remainder"),
    ("hybrid", "leaves", 2, "collection",
     'collection("Cstore")/Store/Items/@n', "remainder"),
]


@pytest.mark.parametrize(
    "entry, query, expected",
    [pytest.param(entry, query, expected, id=f"{entry}-{verdict}-depth{depth}"
                  f"-{rooted}-{index}")
     for index, (entry, verdict, depth, rooted, query, expected)
     in enumerate(_VERDICT_CASES)],
)
def test_each_chain_verdict_through_every_entry_point(
    request, entry, query, expected
):
    if entry == "rewrite":
        rewritten = rewrite_paths_for_fragment_root(
            parse_query(query), ["a", "b", "c"]
        )
        assert (rewritten if rewritten is None else unparse(rewritten)) == expected
    elif entry == "project":
        analysis = analyze_query(parse_query(query))
        assert projection_paths(analysis, ["a", "b", "c"], []) == expected
    else:
        decomposer = _publish(
            request.getfixturevalue("store_collection"),
            request.getfixturevalue("store_design"),
        )
        fetched = set(decomposer.decompose(query).fragment_names)
        branch = (
            "units" if fetched <= {"F2", "F3"}
            else "remainder" if fetched == {"F1"}
            else "reconstruct"
        )
        assert branch == expected


class TestAnnotatedMode:
    def test_annotated_builds_plan(self):
        plan = annotated(
            "c",
            [SubQuery("F1", "s0", "F1", 'collection("F1")/x')],
            CompositionSpec(kind="concat"),
        )
        assert plan.fragment_names == ["F1"]

    def test_annotated_requires_subqueries(self):
        with pytest.raises(DecompositionError):
            annotated("c", [], CompositionSpec(kind="concat"))


class TestReplicaSelection:
    def test_subqueries_spread_over_replica_sites(self, items_collection):
        from repro.cluster import Cluster
        from repro.partix import DataPublisher, FragmentAllocation

        cluster = Cluster.with_sites(2)
        publisher = DataPublisher(cluster)
        design = FragmentationSchema("Citems", [
            HorizontalFragment("F_cd", "Citems", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F_dvd", "Citems", predicate=eq("/Item/Section", "DVD")),
            HorizontalFragment("F_rest", "Citems", predicate=(
                ne("/Item/Section", "CD") & ne("/Item/Section", "DVD"))),
        ], root_label="Item")
        # Every fragment fully replicated on both sites.
        allocations = [
            FragmentAllocation(f, site, f)
            for f in ("F_cd", "F_dvd", "F_rest")
            for site in ("site0", "site1")
        ]
        publisher.publish(items_collection, design, allocations=allocations)
        decomposer = QueryDecomposer(publisher.catalog)
        plan = decomposer.decompose(
            'for $i in collection("Citems")/Item return $i/Code/text()'
        )
        sites = [sq.site for sq in plan.subqueries]
        # Three sub-queries over two sites: the greedy balancer puts at
        # most two on any site instead of all three on the primary.
        assert max(sites.count(s) for s in set(sites)) == 2

    def test_replicated_fragments_answer_correctly(self, items_collection):
        from repro.cluster import Cluster
        from repro.partix import DataPublisher, FragmentAllocation, Partix

        cluster = Cluster.with_sites(2)
        partix = Partix(cluster)
        design = FragmentationSchema("Citems", [
            HorizontalFragment("F_cd", "Citems", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F_rest", "Citems", predicate=ne("/Item/Section", "CD")),
        ], root_label="Item")
        allocations = [
            FragmentAllocation(f, site, f)
            for f in ("F_cd", "F_rest")
            for site in ("site0", "site1")
        ]
        partix.publish(items_collection, design, allocations=allocations)
        result = partix.execute('count(collection("Citems")/Item)')
        assert result.result_text == "12"
        sites = {sq.site for sq in result.plan.subqueries}
        assert sites == {"site0", "site1"}


class TestPositionalFilters:
    """A positional filter over a sequence that several fragments share
    must not be shipped per fragment: correct bytes or a typed error,
    never one answer per fragment."""

    @staticmethod
    def _partix(collection, design, frag_mode=FragMode.SINGLE_DOCUMENT):
        from repro.cluster import Site
        from repro.partix import Partix

        cluster = Cluster.with_sites(4)
        cluster.add(Site("central"))
        partix = Partix(cluster)
        partix.publish(collection, design, frag_mode=frag_mode)
        partix.publish_centralized(collection, "central")
        return partix

    @pytest.fixture
    def items(self):
        from repro.datamodel import Collection, doc, elem
        from repro.workloads.virtual_store import (
            items_horizontal_fragmentation,
        )

        documents = [
            doc(
                elem(
                    "Item",
                    elem("Code", f"I{i}"),
                    elem("Section", ["CD", "DVD", "Book", "Toy"][i % 4]),
                    elem(
                        "PictureList",
                        elem("Picture", f"front {i}"),
                        elem("Picture", f"back {i}"),
                    ),
                ),
                name=f"i{i}.xml",
            )
            for i in range(12)
        ]
        return self._partix(
            Collection("Citems", documents), items_horizontal_fragmentation(4)
        )

    @pytest.mark.parametrize(
        "query, named",
        [
            ('(collection("Citems")/Item)[2]/Code', "[2]"),
            ('(collection("Citems")/Item)[last()]/Code', "[last()]"),
        ],
    )
    def test_filter_over_a_horizontal_collection_sequence_is_refused(
        self, items, query, named
    ):
        assert len(items.execute_centralized(query, "central").result_text) > 0
        with pytest.raises(DecompositionError) as refused:
            items.execute(query, collection="Citems")
        assert "positional predicate" in str(refused.value)
        assert named in str(refused.value)

    @pytest.mark.parametrize(
        "frag_mode",
        [FragMode.SINGLE_DOCUMENT, FragMode.INDEPENDENT_DOCUMENTS],
    )
    def test_step_at_the_hybrid_unit_path_is_refused(
        self, store_collection, store_design, frag_mode
    ):
        partix = self._partix(store_collection, store_design, frag_mode)
        query = 'collection("Cstore")/Store/Items/Item[position() = 2]/Code'
        central = partix.execute_centralized(query, "central").result_text
        assert central == "<Code>I-001</Code>"
        with pytest.raises(DecompositionError, match=r"Item\[.*position\(\)"):
            partix.execute(query, collection="Cstore")

    def test_positions_inside_one_document_keep_answering(self, items):
        for query in (
            'collection("Citems")/Item/PictureList/Picture[1]',
            'for $i in collection("Citems")/Item'
            " return ($i/PictureList/Picture)[last()]",
        ):
            plan = items.explain(query, "Citems")
            assert len(plan.subqueries) == 4
            fragmented = items.execute(query, collection="Citems")
            central = items.execute_centralized(query, "central")
            assert sorted(fragmented.result_text.split("\n")) == sorted(
                central.result_text.split("\n")
            )
            assert fragmented.result_text.count("<Picture>") == 12

    def test_positions_inside_one_vertical_fragment_keep_answering(self):
        from repro.datamodel import Collection, doc, elem

        articles = [
            doc(
                elem(
                    "article",
                    elem("prolog", elem("title", f"T{i}")),
                    elem(
                        "body",
                        elem("section", elem("p", f"first {i}")),
                        elem("section", elem("p", f"second {i}")),
                    ),
                ),
                name=f"a{i}.xml",
            )
            for i in range(4)
        ]
        design = FragmentationSchema("Cpapers", [
            VerticalFragment("F_prolog", "Cpapers", path="/article/prolog"),
            VerticalFragment("F_body", "Cpapers", path="/article/body"),
        ], root_label="article")
        partix = self._partix(Collection("Cpapers", articles), design)
        query = (
            'for $a in collection("Cpapers")/article'
            " return $a/body/section[2]/p"
        )
        fragmented = partix.execute(query, collection="Cpapers")
        assert fragmented.plan.fragment_names == ["F_body"]
        assert fragmented.result_text == "\n".join(
            f"<p>second {i}</p>" for i in range(4)
        )
        assert (
            fragmented.result_text
            == partix.execute_centralized(query, "central").result_text
        )

    def test_a_plan_pruned_to_one_fragment_is_no_safer(self, items):
        # The filter counts before the ``where`` that prunes the plan to
        # the CD fragment applies: position 2 of the collection is not
        # position 2 of that fragment.
        query = (
            'for $i at $p in collection("Citems")/Item'
            ' where $i/Section = "CD" return $p'
        )
        central = items.execute_centralized(query, "central").result_text
        assert central == "1\n5\n9"  # i0, i4, i8 of twelve
        with pytest.raises(DecompositionError, match=r"at \$p"):
            items.execute(query, collection="Citems")


class TestSeveralInputCalls:
    """Shipped per fragment, every collection() call of a query reads
    that fragment's documents only: an inner count(collection(...))
    would count per fragment."""

    QUERY = (
        'for $i in collection("Citems")/Item'
        ' where $i/Section = "CD" return count(collection("Citems")/Item)'
    )

    @staticmethod
    def _partix(fragments):
        from repro.cluster import Site
        from repro.datamodel import Collection, doc, elem
        from repro.partix import Partix

        documents = [
            doc(
                elem(
                    "Item",
                    elem("Code", f"I{i}"),
                    elem("Section", "CD" if i % 2 else "DVD"),
                ),
                name=f"i{i}.xml",
            )
            for i in range(6)
        ]
        cluster = Cluster.with_sites(len(fragments), use_indexes=False)
        cluster.add(Site("central", use_indexes=False))
        partix = Partix(cluster)
        collection = Collection("Citems", documents)
        partix.publish(
            collection,
            FragmentationSchema("Citems", fragments, root_label="Item"),
        )
        partix.publish_centralized(collection, "central")
        return partix

    def test_a_fragmented_design_refuses(self):
        partix = self._partix([
            HorizontalFragment("F_cd", "Citems", predicate=eq("/Item/Section", "CD")),
            HorizontalFragment("F_rest", "Citems", predicate=ne("/Item/Section", "CD")),
        ])
        central = partix.execute_centralized(self.QUERY, "central")
        assert central.result_text.split() == ["6", "6", "6"]
        with pytest.raises(DecompositionError, match="2 input calls"):
            partix.execute(self.QUERY, collection="Citems")

    def test_a_one_fragment_design_answers(self):
        partix = self._partix([
            HorizontalFragment("F_all", "Citems", predicate=exists("/Item/Code"))
        ])
        result = partix.execute(self.QUERY, collection="Citems")
        assert result.result_text.split() == ["6", "6", "6"]
