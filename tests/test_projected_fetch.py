"""Projected fetch: a vertical join ships only what the query reads.

Written against the contract — *the original query over documents
ID-joined from the projected parts answers the same bytes as over the
source documents* — not against how the projection is implemented.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, Site
from repro.datamodel import Collection, doc, elem
from repro.datamodel.tree import XMLNode
from repro.engine import XMLEngine
from repro.partix import (
    CompositionSpec,
    FragmentationSchema,
    Partix,
    ResultComposer,
    SubQuery,
    VerticalFragment,
)
from repro.partix.decomposer import projection_paths
from repro.partix.fragments import HybridFragment
from repro.partix.publisher import FragMode
from repro.paths.parser import parse_path
from repro.workloads import (
    build_store_collection,
    build_xbench_collection,
    store_hybrid_fragmentation,
    store_queries,
    xbench_queries,
    xbench_vertical_fragmentation,
)
from repro.xmltext import serialize
from repro.xmltext.parser import parse_forest
from repro.xmltext.projection import (
    parse_keep,
    render_keep,
    serialize_projected,
)
from repro.xquery.analysis import analyze_query


# ----------------------------------------------------------------------
# The keep rule and the writer
# ----------------------------------------------------------------------
class TestKeepRule:
    def test_render_is_the_inverse_of_parse(self):
        for paths in [
            (),
            (".",),
            ("abstract",),
            ("section/@*",),
            ("abstract", "section/p", "section/title"),
            ("a/b/@*", "a/c"),
        ]:
            assert render_keep(parse_keep(paths)) == paths

    def test_covered_paths_collapse(self):
        assert render_keep(parse_keep(["a/b", "a", "a/@*"])) == ("a",)
        assert render_keep(parse_keep(["a/b", "a/@*"])) == ("a/b",)
        assert render_keep(parse_keep(["a/b", ".", "c"])) == (".",)
        assert render_keep(parse_keep(["b", "a"])) == ("a", "b")

    def test_handles_and_trees_write_the_same_bytes(self):
        document = doc(
            elem(
                "body",
                elem("abstract", "A & <B>"),
                elem("section", elem("title", "T1"), elem("p", "x")),
                elem("section", elem("title", "T2")),
            ),
            name="d.xml",
        )
        section = document.root.children[1]
        section.append(XMLNode.attribute("lang", 'e"n'))  # after content
        engine = XMLEngine("w")
        stored = engine.store_document("C", document, name="d.xml")
        for paths in [(), (".",), ("abstract",), ("section/@*",), ("section/title",)]:
            keep = parse_keep(paths)
            from_tree = serialize_projected(document.root, keep)
            assert serialize_projected(stored.binary.root, keep) == from_tree
            assert len(from_tree) <= len(serialize(document))
            parse_forest(from_tree)  # well-formed
        assert serialize_projected(document.root, None) == serialize(document)
        assert serialize_projected(document.root, {}) == "<body/>"
        assert (
            serialize_projected(document.root, parse_keep(["section/@*"]))
            == '<body><section lang="e&quot;n"/><section/></body>'
        )

    def test_px_project_is_callable_from_a_query(self):
        engine = XMLEngine("q")
        engine.store_document(
            "C", doc(elem("r", elem("a", "1"), elem("b", "2")), name="d")
        )
        strict = engine.execute('px:project(collection("C"), "a")')
        assert strict.result_text == "<r><a>1</a></r>"
        whole = engine.execute('px:project(collection("C"), ".")')
        assert whole.result_text == "<r><a>1</a><b>2</b></r>"
        # Nothing was decoded to project: the site reads the tables.
        assert strict.documents_parsed == 0 and whole.documents_parsed == 0


# ----------------------------------------------------------------------
# The contract, over every design and bench query
# ----------------------------------------------------------------------
def _root_chain(fragment, frag_mode: FragMode) -> list[str]:
    """Label chain down to the root of the fragment's stored documents."""
    if isinstance(fragment, HybridFragment):
        if frag_mode is FragMode.INDEPENDENT_DOCUMENTS:
            return [s.name for s in fragment.unit_path().steps]
        return [fragment.path.steps[0].name]
    return [s.name for s in fragment.path.steps]


def _graft_root(fragment):
    if isinstance(fragment, HybridFragment):
        return fragment.unit_path()
    return fragment.path


class _Repository:
    """One collection published under a design, plus a centralized copy."""

    def __init__(self, collection, design, frag_mode=FragMode.SINGLE_DOCUMENT):
        self.collection = collection
        self.design = design
        self.frag_mode = frag_mode
        cluster = Cluster.with_sites(len(design.fragments))
        cluster.add(Site("central"))
        self.partix = Partix(cluster)
        self.partix.publish(collection, design, frag_mode=frag_mode)
        self.partix.publish_centralized(collection, "central")

    def centralized(self, query: str) -> str:
        return self.partix.cluster.site("central").execute(query).result_text

    def fetch(self, fragment, paths) -> tuple[str, str]:
        """(projected, whole) fetch results of one fragment's site."""
        entry = self.partix.distribution_catalog.replicas(
            self.collection.name, fragment.name
        )[0]
        site = self.partix.cluster.site(entry.site)
        source = f'collection("{entry.stored_collection}")'
        arguments = "".join(f', "{path}"' for path in paths)
        projected = site.execute(f"px:project({source}{arguments})")
        whole = site.execute(f"for $d in {source} return $d")
        return projected.result_text, whole.result_text

    def answer_from_projected_parts(self, query: str) -> str:
        """``query`` over documents ID-joined from every fragment's
        projected documents (all fragments, relevant or not)."""
        analysis = analyze_query(query)
        graft_roots = [_graft_root(f) for f in self.design.fragments]
        partials = []
        for fragment in self.design.fragments:
            paths = projection_paths(
                analysis, _root_chain(fragment, self.frag_mode), graft_roots
            )
            projected, whole = self.fetch(fragment, paths)
            assert len(projected) <= len(whole)
            if paths == (".",):
                assert projected == whole
            partials.append(
                (SubQuery(fragment.name, "s", fragment.name, "q"), projected)
            )
        spec = CompositionSpec(
            kind="reconstruct",
            original_query=query,
            source_collection=self.collection.name,
            root_label=self.design.root_label,
        )
        return ResultComposer().compose(spec, partials).result_text


def _prune_complement(pruned: str, stubs: bool = False) -> FragmentationSchema:
    return FragmentationSchema(
        "Cpapers",
        [
            VerticalFragment(
                "F1", "Cpapers", path="/article", prune=(pruned,), stub_prunes=stubs
            ),
            VerticalFragment("F2", "Cpapers", path=pruned),
        ],
        root_label="article",
    )


_NESTED = FragmentationSchema(
    "Cpapers",
    [
        VerticalFragment(
            "F1", "Cpapers", path="/article", prune=("/article/body/abstract",)
        ),
        VerticalFragment("F2", "Cpapers", path="/article/body/abstract"),
    ],
    root_label="article",
)

ARTICLE_DESIGNS = {
    "three-way": xbench_vertical_fragmentation(),
    "prune-body": _prune_complement("/article/body"),
    "prune-epilog": _prune_complement("/article/epilog"),
    "prune-body-stubs": _prune_complement("/article/body", stubs=True),
    "nested-prune": _NESTED,
}

EDGE_QUERIES = [
    # descendant step, wildcard, positional step on a non-final step
    'for $a in collection("Cpapers")/article where $a/prolog/genre = "survey"'
    " return element r { $a//p }",
    'for $a in collection("Cpapers")/article where $a/prolog/genre = "survey"'
    " return $a/body/*[1]",
    'for $a in collection("Cpapers")/article return $a/body/section[2]/p',
    'for $a in collection("Cpapers")/article return'
    " $a/body/section[position() = last()]/title",
    'collection("Cpapers")//section/title/text()',
    'collection("Cpapers")//section[title][1]/title/text()',
    # the bare variable, an attribute step, the focus read for its value
    'for $a in collection("Cpapers")/article where $a/epilog/country = "BR"'
    " return $a",
    'for $a in collection("Cpapers")/article where $a/prolog/genre = "survey"'
    " return string($a/body/@lang)",
    'for $a in collection("Cpapers")/article where $a/prolog/genre != "demo"'
    " return $a/body/section[string-length(.) > 200]/title",
    'collection("Cpapers")/article[prolog/genre = "survey"]/body/abstract',
    # bindings nothing is read below: the iterated nodes must survive
    'for $s in collection("Cpapers")/article/body/section return 1',
    'for $p in collection("Cpapers")/article/prolog return 1',
    'for $a in collection("Cpapers")/article where'
    " some $s in $a/body/section satisfies 1 = 1 return $a/prolog/genre",
    'count(collection("Cpapers")/article/body/section)',
    # nothing of the documents is read at all
    'for $a in collection("Cpapers")/article return 1',
    # inside a pruned region and outside it at once
    'for $a in collection("Cpapers")/article where'
    ' contains($a/body/abstract, "novel") return $a/body/section[1]/title',
    'for $a in collection("Cpapers")/article order by $a/prolog/title'
    " return element t { $a/prolog/title/text(), count($a/body/section/p) }",
]


@pytest.fixture(scope="module")
def article_repositories():
    documents = build_xbench_collection(5, doc_bytes=6_000, seed=19).documents()
    # One attribute on a body, so `@lang` has something to find (and no
    # schema on the collection, which would reject it).
    body = documents[0].root.first_child("body")
    attribute = XMLNode.attribute("lang", "en")
    attribute.parent = body
    body.children.insert(0, attribute)
    collection = Collection("Cpapers", documents)
    repositories = {
        name: _Repository(collection, design)
        for name, design in ARTICLE_DESIGNS.items()
    }
    yield repositories
    for repository in repositories.values():
        repository.partix.close()


@pytest.fixture(scope="module")
def store_repositories():
    collection = build_store_collection(30, seed=5)
    repositories = {
        mode: _Repository(
            collection, store_hybrid_fragmentation(2), frag_mode=mode
        )
        for mode in FragMode
    }
    yield repositories
    for repository in repositories.values():
        repository.partix.close()


class TestProjectionContract:
    @pytest.mark.parametrize("design", sorted(ARTICLE_DESIGNS))
    def test_xbench_queries(self, article_repositories, design):
        repository = article_repositories[design]
        for query in xbench_queries():
            assert repository.answer_from_projected_parts(
                query.text
            ) == repository.centralized(query.text), query.qid

    @pytest.mark.parametrize("design", sorted(ARTICLE_DESIGNS))
    def test_edge_queries(self, article_repositories, design):
        repository = article_repositories[design]
        for query in EDGE_QUERIES:
            expected = repository.centralized(query)
            assert repository.answer_from_projected_parts(query) == expected, query
            # ... and through the real planner, whatever it decides.
            planned = repository.partix.execute(query, collection="Cpapers")
            if planned.plan.composition.kind == "reconstruct":
                assert planned.result_text == expected, query

    @pytest.mark.parametrize("mode", list(FragMode), ids=lambda m: m.name)
    def test_store_queries(self, store_repositories, mode):
        repository = store_repositories[mode]
        chain = 'for $s in collection("Cstore")/Store return count($s/Items/Item)'
        for text in [q.text for q in store_queries()] + [chain]:
            assert repository.answer_from_projected_parts(
                text
            ) == repository.centralized(text), text


class TestProjectionPaths:
    """What the decomposer asks each fragment for."""

    BODY = ["article", "body"]
    ROOTS = [parse_path(p) for p in ("/article/prolog", "/article/body", "/article/epilog")]

    def _paths(self, query, chain=None, roots=None):
        return projection_paths(
            analyze_query(query),
            chain or self.BODY,
            self.ROOTS if roots is None else roots,
        )

    def _article(self, where_return: str) -> str:
        return f'for $a in collection("C")/article {where_return}'

    def test_simple_child_paths_are_kept_whole(self):
        query = self._article(
            'where contains($a/body/abstract, "x") return $a/prolog/title'
        )
        assert self._paths(query) == ("abstract",)
        assert self._paths(query, ["article", "prolog"]) == ("title",)
        # no touched path enters the epilog: its bare roots still travel
        assert self._paths(query, ["article", "epilog"]) == ()

    def test_supersets(self):
        whole = (".",)
        assert self._paths(self._article("return $a//p")) == whole
        assert self._paths(self._article("return $a/body/*[1]")) == whole
        assert self._paths(self._article("return $a")) == whole
        assert self._paths(self._article("return $a/body")) == whole
        assert self._paths(self._article("return $a/body/section//p")) == ("section",)
        assert self._paths(self._article("return $a/body/section/*")) == ("section",)
        # every section stays, so the position still counts right
        assert self._paths(self._article("return $a/body/section[2]/p")) == ("section/p",)
        # an attribute travels with its bare owner
        assert self._paths(self._article("return $a/body/@lang")) == ()
        assert self._paths(self._article("return $a/body/section/@id")) == ("section/@*",)
        assert self._paths(self._article('return $a/body/section[. = "x"]/p')) == ("section",)

    def test_inexact_analysis_keeps_the_whole_document(self):
        analysis = analyze_query(self._article("return $a/body/abstract"))
        analysis.paths_exact = False
        assert projection_paths(analysis, self.BODY, self.ROOTS) == (".",)
        inexact = self._article("return $a/body/section/text()/x")
        assert not analyze_query(inexact).paths_exact
        assert self._paths(inexact) == (".",)

    def test_iterated_nodes_are_kept_bare(self):
        query = 'for $s in collection("C")/article/body/section return 1'
        assert self._paths(query) == ("section/@*",)
        query = (
            'for $a in collection("C")/article where'
            " every $s in $a/body/section satisfies 1 = 1 return 1"
        )
        assert "section/@*" in self._paths(query) or self._paths(query) == (".",)

    def test_spine_to_the_graft_target_survives(self):
        remainder = ["article"]
        roots = [parse_path("/article"), parse_path("/article/body/abstract")]
        query = self._article("return $a/prolog/title")
        # `body` is where the abstract part grafts: bare, though unread.
        assert self._paths(query, remainder, roots) == (
            "body/abstract/@*",
            "prolog/title",
        )
        inside = self._article("return $a/body/abstract/p")
        assert self._paths(inside, remainder, roots) == ("body/abstract/p",)


# ----------------------------------------------------------------------
# Plans, explain and the wire
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def xbench_partix():
    collection = build_xbench_collection(6, doc_bytes=20_000, seed=7)
    partix = Partix(Cluster.with_sites(3))
    partix.publish(collection, xbench_vertical_fragmentation())
    yield partix
    partix.close()


#: Joins the semi-join rule declines (the return reads two fragments),
#: so they still fetch, ID-join and re-query.
TITLE_AND_ABSTRACT = (
    'for $a in collection("Cpapers")/article'
    ' where contains($a/body/abstract, "novel")'
    " return ($a/prolog/title/text(), $a/body/abstract/text())"
)
TITLE_AND_BODY = (
    'for $a in collection("Cpapers")/article'
    ' where $a/prolog/genre = "demo" return ($a/prolog/title, $a/body)'
)


class TestProjectedPlans:
    def _query(self, qid):
        return {q.qid: q.text for q in xbench_queries()}[qid]

    def test_fetch_sub_queries_call_px_project(self, xbench_partix):
        plan = xbench_partix.explain(TITLE_AND_ABSTRACT, "Cpapers")
        texts = {sq.fragment: sq.query for sq in plan.subqueries}
        assert texts == {
            "F1papers": 'px:project(collection("F1papers"), "title")',
            "F2papers": 'px:project(collection("F2papers"), "abstract")',
        }
        assert all(sq.purpose == "fetch" for sq in plan.subqueries)

    def test_explain_renders_the_kept_paths(self, xbench_partix):
        rendered = xbench_partix.explain(TITLE_AND_ABSTRACT, "Cpapers").render()
        assert "purpose=fetch project=[title]" in rendered
        assert "purpose=fetch project=[abstract]" in rendered
        whole = xbench_partix.explain(TITLE_AND_BODY, "Cpapers").render()
        assert "F2papers purpose=fetch project=[.]" in whole
        answer_only = xbench_partix.explain(self._query("Q1"), "Cpapers").render()
        assert "project=" not in answer_only

    def test_hybrid_fallback_fetches_whole_documents(self):
        partix = Partix(Cluster.with_sites(4))
        with partix:
            partix.publish(
                build_store_collection(12, seed=3), store_hybrid_fragmentation(2)
            )
            plan = partix.explain(
                'for $s in collection("Cstore")/Store return count($s/Items/Item)',
                "Cstore",
            )
            assert plan.composition.kind == "reconstruct"
            assert all(
                sq.query == f'px:project(collection("{sq.collection}"), ".")'
                for sq in plan.subqueries
            )

    def test_all_modes_answer_the_same_bytes_and_the_wire_shrinks(
        self, xbench_partix
    ):
        stored_body_bytes = xbench_partix.cluster.site("site1").driver.collection_bytes(
            "F2papers"
        )
        texts = {query.qid: query.text for query in xbench_queries()}
        texts.update(titles=TITLE_AND_ABSTRACT, bodies=TITLE_AND_BODY)
        xbench_partix.start_tcp()
        try:
            for qid, text in texts.items():
                results = {
                    mode: xbench_partix.execute(
                        text, collection="Cpapers", execution_mode=mode
                    )
                    for mode in ("simulated", "threads", "tcp", "tcp-stream")
                }
                assert len({r.result_text for r in results.values()}) == 1, qid
                streamed = results["tcp-stream"]
                assert streamed.wire_measured
                if qid in ("Q4", "titles"):
                    assert streamed.bytes_received < 0.05 * stored_body_bytes
                if qid == "bodies":
                    # a reconstruction that returns the bodies fetches
                    # every one of them, matching or not
                    assert streamed.bytes_received > 0.9 * stored_body_bytes
        finally:
            xbench_partix.stop_tcp()
