"""Unit tests for static query analysis (inputs, paths, predicates)."""

from repro.paths.predicates import And, Comparison, Contains, Exists, Not, Or
from repro.xquery import analyze_query


class TestInputs:
    def test_collection_names(self):
        analysis = analyze_query('collection("a")/x')
        assert analysis.collections == {"a"}

    def test_unnamed_collection(self):
        analysis = analyze_query("collection()/x")
        assert analysis.collections == {None}

    def test_doc_names(self):
        analysis = analyze_query('doc("d.xml")/x')
        assert analysis.documents == {"d.xml"}


class TestAggregates:
    def test_top_level_count(self):
        assert analyze_query('count(collection("c")/x)').aggregate == "count"

    def test_wrapped_in_constructor(self):
        analysis = analyze_query('element r { count(collection("c")/x) }')
        assert analysis.aggregate == "count"

    def test_let_then_aggregate(self):
        analysis = analyze_query(
            'let $a := collection("c")/x return sum($a/v)'
        )
        assert analysis.aggregate == "sum"

    def test_inner_aggregate_is_not_top_level(self):
        analysis = analyze_query(
            'for $i in collection("c")/x return count($i/y)'
        )
        assert analysis.aggregate is None

    def test_non_aggregate(self):
        assert analyze_query('collection("c")/x').aggregate is None


class TestTouchedPaths:
    def test_direct_path(self):
        analysis = analyze_query('collection("c")/a/b/c')
        assert analysis.touched_path_strings() == ["/a/b/c"]
        assert analysis.paths_exact

    def test_variable_rooted_paths(self):
        analysis = analyze_query(
            'for $x in collection("c")/a where $x/b = 1 return $x/c/d'
        )
        assert set(analysis.touched_path_strings()) == {"/a/b", "/a/c/d"}

    def test_binding_path_not_touched_unless_used_bare(self):
        analysis = analyze_query(
            'for $x in collection("c")/a/b return $x/c'
        )
        assert analysis.touched_path_strings() == ["/a/b/c"]
        bare = analyze_query('for $x in collection("c")/a/b return $x')
        assert bare.touched_path_strings() == ["/a/b"]

    def test_trailing_text_dropped(self):
        analysis = analyze_query('collection("c")/a/b/text()')
        assert analysis.touched_path_strings() == ["/a/b"]

    def test_step_predicates_do_not_block_paths(self):
        analysis = analyze_query('collection("c")/a[b = 1]/c')
        assert "/a/c" in analysis.touched_path_strings()

    def test_step_predicates_resolve_against_their_step(self):
        analysis = analyze_query('collection("c")/a[b = 1]/c')
        assert {"/a/c", "/a/b"} <= set(analysis.touched_path_strings())
        assert analysis.paths_exact
        nested = analyze_query(
            'for $x in collection("c")/a return $x/s[t/u[v = 1]]/w'
        )
        assert {"/a/s/w", "/a/s/t/u", "/a/s/t/u/v"} <= set(
            nested.touched_path_strings()
        )

    def test_the_focus_read_for_its_value_is_touched(self):
        for predicate in ('. = "x"', 'string() = "x"', "number() > 1"):
            analysis = analyze_query(
                f'for $x in collection("c")/a return $x/s[{predicate}]/w'
            )
            assert {"/a/s", "/a/s/w"} <= set(analysis.touched_path_strings())
            assert analysis.paths_exact
        positional = analyze_query(
            'for $x in collection("c")/a return $x/s[position() = last()]/w'
        )
        assert positional.touched_path_strings() == ["/a/s/w"]
        filtered = analyze_query(
            'for $x in collection("c")/a return ($x/s)[. = "x"]'
        )
        assert filtered.touched_path_strings() == ["/a/s", "/a/s"]
        # A focus the analysis cannot place degrades exactness.
        assert not analyze_query('(1, 2)[. = 1]').paths_exact

    def test_descendant_paths(self):
        analysis = analyze_query('collection("c")//a/b')
        assert analysis.touched_path_strings() == ["//a/b"]

    def test_binding_paths_recorded(self):
        analysis = analyze_query(
            'for $x in collection("c")/a/b return $x/c'
        )
        assert [str(p) for p in analysis.binding_paths] == ["/a/b"]
        assert analysis.bindings_exact

    def test_quantified_bindings_are_iterated_too(self):
        analysis = analyze_query(
            'for $x in collection("c")/a where'
            " some $y in $x/b satisfies 1 = 1 return 1"
        )
        assert [str(p) for p in analysis.binding_paths] == ["/a", "/a/b"]
        assert analysis.bindings_exact
        opaque = analyze_query("every $y in (1, 2) satisfies $y = 1")
        assert not opaque.bindings_exact

    def test_opaque_binding_degrades_exactness(self):
        analysis = analyze_query(
            "for $x in (1, 2) return $x"
        )
        assert not analysis.bindings_exact


class TestPredicateExtraction:
    def test_where_equality(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item where $i/Section = "CD" return $i'
        )
        predicate = analysis.predicate
        assert isinstance(predicate, Comparison)
        assert str(predicate.path) == "/Item/Section"
        assert predicate.value == "CD"
        assert analysis.predicate_exact

    def test_reversed_comparison_flips(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item where 10 < $i/Price return $i'
        )
        assert isinstance(analysis.predicate, Comparison)
        assert analysis.predicate.op == ">"

    def test_contains(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item'
            ' where contains($i/Description, "good") return $i'
        )
        assert isinstance(analysis.predicate, Contains)
        assert analysis.uses_text_search

    def test_conjunction(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item'
            ' where $i/Section = "CD" and contains($i/D, "x") return $i'
        )
        assert isinstance(analysis.predicate, And)

    def test_disjunction(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item'
            ' where $i/S = "a" or $i/S = "b" return $i'
        )
        assert isinstance(analysis.predicate, Or)

    def test_negation(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item'
            ' where not($i/S = "a") return $i'
        )
        assert isinstance(analysis.predicate, Not)

    def test_existential_where(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item where $i/PictureList return $i'
        )
        assert isinstance(analysis.predicate, Exists)

    def test_step_predicate_extracted(self):
        analysis = analyze_query(
            'collection("c")/Item[Section = "CD"]/Name'
        )
        assert isinstance(analysis.predicate, Comparison)
        assert str(analysis.predicate.path) == "/Item/Section"

    def test_unconvertible_where_clears_exactness(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item'
            " where string-length($i/Name) > $i/Price return $i"
        )
        assert analysis.predicate is None
        assert not analysis.predicate_exact

    def test_partially_convertible_conjunction(self):
        analysis = analyze_query(
            'for $i in collection("c")/Item'
            ' where $i/S = "a" and string-length($i/N) > $i/P return $i'
        )
        # The whole 'and' is unconvertible as one predicate; exactness off.
        assert not analysis.predicate_exact
