"""Seeded generation of random (collection, design, query) triples.

Everything derives deterministically from a :class:`CaseSpec`: the same
spec always yields the same documents, the same fragmentation design and
the same query texts, which is what makes minimization and committed
reproducers possible. Three families cover the paper's three experiment
shapes:

* ``items`` — an MD repository of Item documents, horizontally fragmented
  by a random partition of the Section values (equality groups plus a
  ≠-residual, so completeness holds for any value);
* ``articles`` — an MD repository of article documents (body and epilog
  are optional, so their fragments hold fewer parts than there are
  documents),
  vertically fragmented either three ways (prolog/body/epilog) or as a
  prune complement (π/article,{/article/body} ⋈ π/article/body) of one
  part or, at three fragments or more, of two — each part the body, the
  epilog or ``/article/prolog/authors``, whose fragment path is three
  labels deep;
* ``store`` — an SD repository (one Store document), hybrid-fragmented
  into a remainder fragment pruning ``/Store/Items`` plus a random
  Section partition of the items, materialized as FragMode1 or FragMode2;
  besides unit and remainder queries it draws paths at or above the unit
  region and ``//`` paths from the root, which only a reconstruction
  answers.

Queries are assembled as ASTs from the supported subset — FLWOR with
``where`` predicates (comparisons against values spelled ``5``, ``5.0``,
``05``; point lookups by ``Code``, which value summaries route to one
fragment or to none; existence conditions), path-step predicates,
``contains`` text search,
``count``/``sum`` aggregation, computed element constructors, and
multi-fragment shapes: joins one fragment can answer for the keys of the
others (the vertical semi-join, whole-subtree returns included) and
joins none can (an ``or`` across fragments, a constructor reading two, a
negation on the filtering side, a per-article ``count`` over the optional
part), which force the cross-fragment ID-join; and one-fragment shapes a
document without that part changes (a per-article ``count`` of an
optional part with no ``where``, a counted negation alone), which only a
reconstruction over every fragment answers — then
rendered through :func:`repro.xquery.unparse.unparse`. Generation asserts
the ``parse(unparse(ast)) == ast`` round-trip on every query it emits, so
a broken unparser fails the fuzzer before it can corrupt the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Optional

from repro.datamodel.collection import Collection, RepositoryKind
from repro.partix.fragments import (
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    VerticalFragment,
)
from repro.partix.publisher import FragMode
from repro.paths.predicates import And, Or, Predicate, eq, ne
from repro.workloads.toxgene import (
    Choice,
    Counter,
    DateRange,
    IntRange,
    NodeTemplate,
    ToXgene,
    Words,
    child,
)
from repro.xquery.ast_nodes import (
    AxisStep,
    BinaryOp,
    ContextItem,
    ElementConstructor,
    Expr,
    FLWOR,
    ForClause,
    FunctionCall,
    Literal,
    PathApply,
    VarRef,
)
from repro.xquery.parser import parse_query
from repro.xquery.unparse import unparse

FAMILIES = ("items", "articles", "store")

#: Section vocabulary for items/store families. Queries deliberately also
#: probe values outside the generated subset (empty-answer edge cases).
SECTION_POOL = (
    "CD", "DVD", "Book", "Electronics", "Games", "Toys", "Garden", "Software",
)
#: Terms injected into text fields (and probed by contains() queries).
TEXT_TERMS = ("good", "novel", "remarkable", "frontier")
GENRES = ("research", "survey", "demo")
COUNTRIES = ("BR", "US", "DE", "FR")
#: The numbers 1–5, some spelled non-canonically: values an exact-string
#: probe misses and a numeric comparison must not.
NUMERALS = ("1", "2", "3", "4", "5", "1.0", "02", "40e-1", "5.0", "05")


#: The (transport, disturbance) pairs a case runs under. ``tcp`` adds
#: real site-server processes to the in-process modes; ``kill`` kills one
#: of those processes between two passes, so it needs ``tcp``; ``migrate``
#: moves data between the passes.
CONFIGURATIONS = (
    ("in-process", None),
    ("in-process", "migrate"),
    ("tcp", None),
    ("tcp", "kill"),
    ("tcp", "migrate"),
)


class GenerationError(RuntimeError):
    """A generated artifact violated one of the generator's own invariants."""


@dataclass(frozen=True)
class CaseSpec:
    """Deterministic recipe for one fuzz case.

    The minimizer shrinks cases by editing these fields and regenerating;
    reproducers commit the spec verbatim (see :func:`CaseSpec.to_dict`).

    ``query_index`` pins a single query (None runs the whole generated
    set); ``strip_where`` / ``simple_return`` are minimizer knobs that
    simplify the pinned query after generation. ``transport`` and
    ``disturbance`` are the case's configuration, one of
    :data:`CONFIGURATIONS` (see :func:`repro.fuzz.runner.run_case`).
    """

    seed: int
    family: str
    doc_count: int
    fragment_count: int
    frag_mode: int = 2
    query_count: int = 5
    query_index: Optional[int] = None
    strip_where: bool = False
    simple_return: bool = False
    transport: str = "in-process"
    disturbance: Optional[str] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise GenerationError(f"unknown family {self.family!r}")
        if self.doc_count < 1 or self.fragment_count < 2 or self.query_count < 1:
            raise GenerationError(
                "doc_count >= 1, fragment_count >= 2 and query_count >= 1"
                " required"
            )
        if (self.transport, self.disturbance) not in CONFIGURATIONS:
            raise GenerationError(
                f"unknown configuration {self.configuration!r}: a case"
                f" runs under one of {CONFIGURATIONS} (kill needs tcp)"
            )

    @property
    def configuration(self) -> str:
        """``transport/disturbance``, the key the session summary counts."""
        return f"{self.transport}/{self.disturbance or 'none'}"

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "family": self.family,
            "doc_count": self.doc_count,
            "fragment_count": self.fragment_count,
            "frag_mode": self.frag_mode,
            "query_count": self.query_count,
            "query_index": self.query_index,
            "strip_where": self.strip_where,
            "simple_return": self.simple_return,
            "transport": self.transport,
            "disturbance": self.disturbance,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CaseSpec":
        return cls(**payload)

    def describe(self) -> str:
        pinned = "all" if self.query_index is None else f"#{self.query_index}"
        return (
            f"{self.family}(seed={self.seed}, docs={self.doc_count},"
            f" fragments={self.fragment_count}, frag_mode={self.frag_mode},"
            f" query={pinned}, {self.configuration})"
        )


@dataclass
class GeneratedCase:
    """One materialized fuzz case."""

    spec: CaseSpec
    collection: Collection
    design: FragmentationSchema
    queries: list[str]
    frag_mode: FragMode
    notes: list[str] = field(default_factory=list)

    @property
    def active_queries(self) -> list[tuple[int, str]]:
        """(index, text) pairs the runner should execute."""
        if self.spec.query_index is None:
            return list(enumerate(self.queries))
        index = self.spec.query_index % len(self.queries)
        return [(index, self.queries[index])]


def spec_for_iteration(seed: int, iteration: int) -> CaseSpec:
    """The spec the fuzz session runs at ``iteration`` (deterministic)."""
    rng = random.Random(f"partix-fuzz:{seed}:{iteration}")
    family = FAMILIES[iteration % len(FAMILIES)]
    if family == "store":
        # doc_count counts *units* (items inside the single Store document)
        doc_count = rng.randint(3, 12)
    else:
        doc_count = rng.randint(3, 10)
    spec = CaseSpec(
        seed=rng.randrange(1 << 31),
        family=family,
        doc_count=doc_count,
        fragment_count=rng.randint(2, 4),
        frag_mode=rng.choice((1, 2)),
        query_count=5,
    )
    # Drawn last: the draws above alone fix the case's documents, design
    # and queries, which pinned iterations (CI seeds, tests) rely on.
    transport, disturbance = rng.choice(CONFIGURATIONS)
    return replace(spec, transport=transport, disturbance=disturbance)


def generate_case(spec: CaseSpec) -> GeneratedCase:
    """Materialize ``spec`` into documents, a design and query texts."""
    if spec.family == "items":
        case = _generate_items(spec)
    elif spec.family == "articles":
        case = _generate_articles(spec)
    else:
        case = _generate_store(spec)
    case.queries = [_finalize_query(spec, text) for text in case.queries]
    return case


# ----------------------------------------------------------------------
# Query AST helpers
# ----------------------------------------------------------------------
def _coll(collection: str, *labels: str, descendant_first: bool = False) -> PathApply:
    """``collection("name")/a/b`` (optionally ``//a/b``)."""
    steps = []
    for index, label in enumerate(labels):
        axis = "descendant-or-self" if descendant_first and index == 0 else "child"
        steps.append(AxisStep(axis, label))
    return PathApply(
        FunctionCall("collection", (Literal(collection),)), tuple(steps)
    )


def _var_path(name: str, *labels: str, text: bool = False) -> PathApply:
    steps = [AxisStep("child", label) for label in labels]
    if text:
        steps.append(AxisStep("child", "text()", is_text=True))
    return PathApply(VarRef(name), tuple(steps))


def _flwor(var: str, seq: Expr, where: Optional[Expr], ret: Expr) -> FLWOR:
    return FLWOR((ForClause(var, seq),), where, (), ret)


def _and(left: Expr, right: Expr) -> Expr:
    return BinaryOp("and", left, right)


def _or(left: Expr, right: Expr) -> Expr:
    return BinaryOp("or", left, right)


def _emit(ast: Expr) -> str:
    """Unparse + assert the parse round-trip (the invariant the
    decomposer's AST-to-text shipping relies on)."""
    text = unparse(ast)
    reparsed = parse_query(text)
    if reparsed != ast:
        raise GenerationError(
            f"unparse round-trip broken for generated query:\n  text: {text}"
            f"\n  ast: {ast!r}\n  reparsed: {reparsed!r}"
        )
    return text


def _finalize_query(spec: CaseSpec, text: str) -> str:
    """Apply minimizer simplification knobs to a generated query."""
    if not spec.strip_where and not spec.simple_return:
        return text
    ast = parse_query(text)
    ast = _simplify(ast, spec.strip_where, spec.simple_return)
    return _emit(ast)


def _simplify(ast: Expr, strip_where: bool, simple_return: bool) -> Expr:
    if isinstance(ast, FunctionCall):
        return FunctionCall(
            ast.name,
            tuple(_simplify(a, strip_where, simple_return) for a in ast.args),
        )
    if isinstance(ast, FLWOR):
        where = None if strip_where else ast.where
        ret = ast.return_expr
        if simple_return:
            first = ast.clauses[0]
            if isinstance(first, ForClause):
                ret = Literal(1)
        return FLWOR(ast.clauses, where, ast.order_by, ret)
    return ast


# ----------------------------------------------------------------------
# Shared predicate / section-partition generation
# ----------------------------------------------------------------------
def _partition_sections(
    rng: random.Random, sections: tuple[str, ...], fragment_count: int
) -> list[tuple[str, ...]]:
    """A random partition of ``sections`` into ``fragment_count`` groups."""
    count = max(2, min(fragment_count, len(sections)))
    shuffled = list(sections)
    rng.shuffle(shuffled)
    groups: list[list[str]] = [[] for _ in range(count)]
    for index, section in enumerate(shuffled):
        groups[index % count].append(section)
    return [tuple(group) for group in groups]


def _group_predicate(
    group: tuple[str, ...],
    sections: tuple[str, ...],
    residual: bool,
    root: str = "Item",
) -> Predicate:
    """Equality disjunction, or the ≠-residual making coverage total."""
    path = f"/{root}/Section"
    if residual:
        others = [s for s in sections if s not in group]
        parts = tuple(ne(path, section) for section in others)
        return parts[0] if len(parts) == 1 else And(parts)
    parts = tuple(eq(path, section) for section in group)
    return parts[0] if len(parts) == 1 else Or(parts)


def _item_where(rng: random.Random, var: str, sections: tuple[str, ...]) -> Expr:
    """A random filter over an Item-shaped element bound to ``$var``."""

    def atom() -> Expr:
        kind = rng.choice(
            (
                "section", "release", "contains", "price", "rating",
                "pictures", "code",
            )
        )
        if kind == "code":
            # A point lookup on a path the design never fragments by.
            # Cases hold at most 12 items: the high numbers are Codes no
            # document carries (every fragment pruned by its summary).
            return BinaryOp(
                "=",
                _var_path(var, "Code"),
                Literal(f"I-{rng.randint(1, 14):04d}"),
            )
        if kind == "rating":
            # Ratings and their votes are NUMERALS; a string literal that
            # parses as a number still compares numerically.
            value = rng.randint(1, 5)
            steps = [AxisStep("child", "Rating")]
            if rng.random() < 0.4:
                steps.append(AxisStep("child", "votes", is_attribute=True))
            return BinaryOp(
                rng.choice(("=", "=", "<", ">=")),
                PathApply(VarRef(var), tuple(steps)),
                Literal(rng.choice((value, str(value)))),
            )
        if kind == "pictures":
            # Existence conditions over the optional PictureList.
            path = _var_path(var, "PictureList")
            form = rng.choice(("path", "exists", "empty"))
            return path if form == "path" else FunctionCall(form, (path,))
        if kind == "section":
            # Occasionally probe a section no document carries — the
            # empty-answer / all-fragments-pruned edge.
            value = rng.choice(sections + ("Antiques",))
            op = rng.choice(("=", "!="))
            return BinaryOp(op, _var_path(var, "Section"), Literal(value))
        if kind == "release":
            op = rng.choice((">=", "<", "<="))
            date = f"200{rng.randint(0, 5)}-0{rng.randint(1, 9)}-15"
            return BinaryOp(op, _var_path(var, "Release"), Literal(date))
        if kind == "price":
            op = rng.choice((">=", "<"))
            return BinaryOp(op, _var_path(var, "Price"), Literal(rng.randint(50, 450)))
        term = rng.choice(TEXT_TERMS + ("absent-term",))
        return FunctionCall(
            "contains", (_var_path(var, "Description"), Literal(term))
        )

    shape = rng.random()
    if shape < 0.5:
        return atom()
    if shape < 0.8:
        return _and(atom(), atom())
    return _or(atom(), atom())


# ----------------------------------------------------------------------
# items family — MD repository, horizontal designs
# ----------------------------------------------------------------------
def _item_template(rng: random.Random, sections: tuple[str, ...]) -> NodeTemplate:
    children = [
        child(NodeTemplate("Code", value=Counter("I-{:04d}"))),
        child(NodeTemplate("Name", value=Words(2, 3))),
        child(
            NodeTemplate(
                "Description",
                value=Words(4, 10, inject=(rng.choice(TEXT_TERMS), 0.5)),
            )
        ),
        child(NodeTemplate("Section", value=Choice(sections))),
        child(NodeTemplate("Release", value=DateRange(2000, 2005))),
        # Integer prices keep distributed sums exact (float partial sums
        # would make byte-comparison order-sensitive).
        child(NodeTemplate("Price", value=IntRange(1, 500))),
        child(
            NodeTemplate(
                "Rating",
                value=Choice(NUMERALS),
                attributes={"votes": Choice(NUMERALS)},
            )
        ),
    ]
    if rng.random() < 0.5:
        children.append(
            child(
                NodeTemplate(
                    "PictureList",
                    children=[child(NodeTemplate("Picture", value=Words(1, 2)), 1, 2)],
                ),
                min_occurs=0,
                max_occurs=1,
            )
        )
    return NodeTemplate("Item", children=children)


def _generate_items(spec: CaseSpec) -> GeneratedCase:
    data_rng = random.Random(f"data:{spec.seed}")
    design_rng = random.Random(f"design:{spec.seed}")
    section_count = data_rng.randint(2, len(SECTION_POOL))
    sections = tuple(data_rng.sample(SECTION_POOL, section_count))
    template = _item_template(data_rng, sections)
    generator = ToXgene(seed=spec.seed)
    documents = generator.generate_documents(
        template, spec.doc_count, name_fmt="item-{:05d}.xml"
    )
    collection = Collection(
        "Cfuzz", documents, kind=RepositoryKind.MULTIPLE_DOCUMENTS
    )
    groups = _partition_sections(design_rng, sections, spec.fragment_count)
    fragments = [
        HorizontalFragment(
            f"F{index + 1}",
            "Cfuzz",
            predicate=_group_predicate(
                group, sections, residual=(index == len(groups) - 1)
            ),
        )
        for index, group in enumerate(groups)
    ]
    design = FragmentationSchema("Cfuzz", fragments, root_label="Item")
    queries = _items_queries(spec, sections)
    return GeneratedCase(
        spec=spec,
        collection=collection,
        design=design,
        queries=queries,
        frag_mode=FragMode.SINGLE_DOCUMENT,
    )


def _items_queries(spec: CaseSpec, sections: tuple[str, ...]) -> list[str]:
    queries = []
    for index in range(spec.query_count):
        rng = random.Random(f"query:{spec.seed}:{index}")
        queries.append(_emit(_one_items_query(rng, sections)))
    return queries


def _one_items_query(rng: random.Random, sections: tuple[str, ...]) -> Expr:
    recipe = rng.choice(
        ("value", "value", "constructor", "step-predicate", "count", "sum")
    )
    binding = _coll("Cfuzz", "Item", descendant_first=rng.random() < 0.2)
    where = _item_where(rng, "i", sections) if rng.random() < 0.85 else None
    if recipe == "step-predicate":
        # Path-step predicate instead of a where clause:
        #   collection("Cfuzz")/Item[Section = "CD"]/Name/text()
        section = rng.choice(sections)
        step = AxisStep(
            "child",
            "Item",
            predicates=(
                BinaryOp(
                    "=",
                    PathApply(ContextItem(), (AxisStep("child", "Section"),)),
                    Literal(section),
                ),
            ),
        )
        return PathApply(
            FunctionCall("collection", (Literal("Cfuzz"),)),
            (step, AxisStep("child", "Name"), AxisStep("child", "text()", is_text=True)),
        )
    if recipe == "count":
        # ``//`` below the binding: Picture sits under the optional
        # PictureList, so the step reaches a grandchild or nothing.
        pictures = PathApply(
            VarRef("i"), (AxisStep("descendant-or-self", "Picture"),)
        )
        return FunctionCall("count", (_flwor("i", binding, where, pictures),))
    if recipe == "sum":
        return FunctionCall(
            "sum", (_flwor("i", binding, where, _var_path("i", "Price")),)
        )
    if recipe == "constructor":
        # The votes attribute is copied onto the constructed element, and
        # the pictures' captions follow the code: ``//text()`` below the
        # optional PictureList is an unnamed descendant step.
        votes = PathApply(
            VarRef("i"),
            (
                AxisStep("child", "Rating"),
                AxisStep("child", "votes", is_attribute=True),
            ),
        )
        captions = PathApply(
            VarRef("i"),
            (
                AxisStep("child", "PictureList"),
                AxisStep("descendant-or-self", "text()", is_text=True),
            ),
        )
        ret: Expr = ElementConstructor(
            "hit", (votes, _var_path("i", "Code", text=True), captions)
        )
    else:
        ret = rng.choice(
            (
                # Every child's text: a wildcard step, then text().
                _var_path("i", "*", text=True),
                _var_path("i", "Code", text=True),
                VarRef("i"),
            )
        )
    return _flwor("i", binding, where, ret)


# ----------------------------------------------------------------------
# articles family — MD repository, vertical designs
# ----------------------------------------------------------------------
def _article_template(rng: random.Random) -> NodeTemplate:
    section = NodeTemplate(
        "section",
        children=[
            child(NodeTemplate("title", value=Words(2, 4))),
            child(
                NodeTemplate("p", value=Words(5, 12, inject=("remarkable", 0.4))),
                1,
                2,
            ),
        ],
    )
    return NodeTemplate(
        "article",
        children=[
            child(
                NodeTemplate(
                    "prolog",
                    children=[
                        child(NodeTemplate("title", value=Words(3, 6, inject=("frontier", 0.4)))),
                        child(NodeTemplate("genre", value=Choice(GENRES))),
                        child(
                            NodeTemplate(
                                "authors",
                                children=[
                                    child(NodeTemplate("author", value=Words(2, 2)), 1, 2)
                                ],
                            )
                        ),
                        child(NodeTemplate("date", value=DateRange(2000, 2005))),
                    ],
                )
            ),
            child(
                NodeTemplate(
                    "body",
                    children=[
                        child(NodeTemplate("abstract", value=Words(6, 14, inject=("novel", 0.45)))),
                        child(section, 1, rng.randint(1, 3)),
                    ],
                ),
                0,
                1,
            ),
            # Body and epilog are optional: a vertical fragment holds *at
            # most* one part per document, and an article without one has
            # none in that fragment — no sub-query there answers for it.
            child(
                NodeTemplate(
                    "epilog",
                    children=[
                        child(
                            NodeTemplate(
                                "references",
                                children=[child(NodeTemplate("a_id", value=Counter("r-{:04d}")), 1, 4)],
                            )
                        ),
                        child(NodeTemplate("country", value=Choice(COUNTRIES))),
                    ],
                ),
                0,
                1,
            ),
        ],
    )


def _generate_articles(spec: CaseSpec) -> GeneratedCase:
    data_rng = random.Random(f"data:{spec.seed}")
    design_rng = random.Random(f"design:{spec.seed}")
    template = _article_template(data_rng)
    generator = ToXgene(seed=spec.seed)
    documents = generator.generate_documents(
        template, spec.doc_count, name_fmt="article-{:05d}.xml"
    )
    collection = Collection(
        "Cfuzz", documents, kind=RepositoryKind.MULTIPLE_DOCUMENTS
    )
    # Single-valued parts (Definition 3 holds); the authors sit three
    # labels deep, so two are stripped off a variable bound to articles.
    parts = ("/article/body", "/article/epilog", "/article/prolog/authors")
    if spec.fragment_count >= 3:
        # Three fragments: the three-way split or a two-part complement.
        pruned = design_rng.choice((None, *combinations(parts, 2)))
    else:
        pruned = None if design_rng.random() < 0.5 else (design_rng.choice(parts),)
    if pruned is None:
        fragments = [
            VerticalFragment("F1", "Cfuzz", path="/article/prolog"),
            VerticalFragment("F2", "Cfuzz", path="/article/body"),
            VerticalFragment("F3", "Cfuzz", path="/article/epilog"),
        ]
        note = "vertical 3-way prolog/body/epilog"
    else:
        fragments = [
            VerticalFragment("F1", "Cfuzz", path="/article", prune=pruned),
            *(
                VerticalFragment(f"F{number}", "Cfuzz", path=path)
                for number, path in enumerate(pruned, 2)
            ),
        ]
        note = f"vertical prune-complement on {', '.join(pruned)}"
    design = FragmentationSchema("Cfuzz", fragments, root_label="article")
    queries = []
    for index in range(spec.query_count):
        rng = random.Random(f"query:{spec.seed}:{index}")
        queries.append(_emit(_one_article_query(rng)))
    return GeneratedCase(
        spec=spec,
        collection=collection,
        design=design,
        queries=queries,
        frag_mode=FragMode.SINGLE_DOCUMENT,
        notes=[note],
    )


def _one_article_query(rng: random.Random) -> Expr:
    binding = _coll("Cfuzz", "article")
    recipe = rng.choice(
        (
            "single-prolog",
            "single-body",
            "cross-body-prolog",
            "cross-prolog-epilog",
            "count-genre",
            "sections",
            "bodies-by-genre",
            "or-across-fragments",
            "hit-from-two-fragments",
            "not-on-the-key-side",
            "references-per-article",
            "optional-part-per-article",
            "counted-negation",
        )
    )
    if recipe == "single-prolog":
        where: Optional[Expr] = FunctionCall(
            "contains", (_var_path("a", "prolog", "title"), Literal("frontier"))
        )
        ret: Expr = _var_path("a", "prolog", "title", text=True)
    elif recipe == "single-body":
        where = FunctionCall(
            "contains", (_var_path("a", "body", "abstract"), Literal("novel"))
        )
        ret = _var_path("a", "body", "abstract", text=True)
    elif recipe == "cross-body-prolog":
        # Filters on body, returns from prolog: needs the ID-join.
        where = FunctionCall(
            "contains",
            (_var_path("a", "body", "abstract"), Literal(rng.choice(("novel", "absent")))),
        )
        ret = _var_path("a", "prolog", "title", text=True)
    elif recipe == "cross-prolog-epilog":
        where = _and(
            BinaryOp("=", _var_path("a", "prolog", "genre"), Literal(rng.choice(GENRES))),
            BinaryOp("=", _var_path("a", "epilog", "country"), Literal(rng.choice(COUNTRIES))),
        )
        ret = _var_path("a", "prolog", "title", text=True)
    elif recipe == "bodies-by-genre":
        # Whole subtrees from another fragment than the filter's: the
        # semi-join ships the matching bodies and nothing else. Or the
        # authors' names: under a complement on the authors their
        # fragment sits three labels deep, two of them stripped off $a.
        where = BinaryOp(
            "=", _var_path("a", "prolog", "genre"), Literal(rng.choice(GENRES))
        )
        ret = (
            _var_path("a", "body")
            if rng.random() < 0.5
            else _var_path("a", "prolog", "authors", "author", text=True)
        )
    elif recipe == "or-across-fragments":
        # No fragment decides an `or` alone: reconstruction.
        where = _or(
            FunctionCall(
                "contains", (_var_path("a", "body", "abstract"), Literal("novel"))
            ),
            BinaryOp(
                "=", _var_path("a", "epilog", "country"), Literal(rng.choice(COUNTRIES))
            ),
        )
        ret = _var_path("a", "prolog", "title", text=True)
    elif recipe == "hit-from-two-fragments":
        # The return reads two fragments: reconstruction.
        where = BinaryOp(
            "=", _var_path("a", "prolog", "genre"), Literal(rng.choice(GENRES))
        )
        return _flwor(
            "a",
            binding,
            where,
            ElementConstructor(
                "hit",
                (
                    _var_path("a", "prolog", "title", text=True),
                    _var_path("a", "epilog", "country", text=True),
                ),
            ),
        )
    elif recipe == "not-on-the-key-side":
        # A negation holds for a document with no body at all, so the
        # body cannot answer with keys: reconstruction.
        where = FunctionCall(
            "not",
            (
                FunctionCall(
                    "contains", (_var_path("a", "body", "abstract"), Literal("novel"))
                ),
            ),
        )
        ret = _var_path("a", "prolog", "title", text=True)
    elif recipe == "references-per-article":
        # An article without an epilog answers 0, and the epilog fragment
        # never sees it: reconstruction. (So does a `hit` wrapped around
        # a path into a part no conjunct needs, below.)
        where = BinaryOp(
            "=", _var_path("a", "prolog", "genre"), Literal(rng.choice(GENRES))
        )
        return _flwor(
            "a",
            binding,
            where,
            FunctionCall("count", (_var_path("a", "epilog", "references", "a_id"),)),
        )
    elif recipe == "optional-part-per-article":
        # Reads one fragment, yet an article without that part answers 0
        # there: only a reconstruction over every fragment sees it.
        part = rng.choice((("body", "section"), ("epilog", "references", "a_id")))
        return _flwor(
            "a", binding, None, FunctionCall("count", (_var_path("a", *part),))
        )
    elif recipe == "counted-negation":
        # The negation holds for an article without a body, which the
        # body fragment never sees: counted over every fragment.
        search = (_var_path("a", "body", "abstract"), Literal("novel"))
        where = FunctionCall("not", (FunctionCall("contains", search),))
        return FunctionCall("count", (_flwor("a", binding, where, VarRef("a")),))
    elif recipe == "count-genre":
        where = BinaryOp(
            "=", _var_path("a", "prolog", "genre"), Literal(rng.choice(GENRES))
        )
        return FunctionCall("count", (_flwor("a", binding, where, VarRef("a")),))
    else:  # sections — iterate deeper than the fragment root
        binding = _coll("Cfuzz", "article", "body", "section")
        where = FunctionCall(
            "contains", (_var_path("s", "p"), Literal("remarkable"))
        )
        return _flwor("s", binding, where, _var_path("s", "title", text=True))
    if rng.random() < 0.2:
        ret = ElementConstructor("hit", (ret,))
    return _flwor("a", binding, where, ret)


# ----------------------------------------------------------------------
# store family — SD repository, hybrid designs
# ----------------------------------------------------------------------
def _generate_store(spec: CaseSpec) -> GeneratedCase:
    data_rng = random.Random(f"data:{spec.seed}")
    design_rng = random.Random(f"design:{spec.seed}")
    section_count = data_rng.randint(2, 5)
    sections = tuple(data_rng.sample(SECTION_POOL, section_count))
    store = NodeTemplate(
        "Store",
        children=[
            child(
                NodeTemplate(
                    "Sections",
                    children=[
                        child(
                            NodeTemplate(
                                "SectionEntry",
                                children=[
                                    child(NodeTemplate("Code", value=Counter("S-{:02d}"))),
                                    child(NodeTemplate("Name", value=Words(1, 2))),
                                ],
                            ),
                            len(sections),
                        )
                    ],
                )
            ),
            child(
                NodeTemplate(
                    "Items",
                    children=[child(_item_template(data_rng, sections), spec.doc_count)],
                )
            ),
            child(
                NodeTemplate(
                    "Employees",
                    children=[
                        child(
                            NodeTemplate(
                                "Employee",
                                children=[
                                    child(NodeTemplate("Code", value=Counter("E-{:02d}"))),
                                    child(NodeTemplate("Name", value=Words(2, 2))),
                                ],
                            ),
                            data_rng.randint(1, 3),
                        )
                    ],
                )
            ),
        ],
    )
    generator = ToXgene(seed=spec.seed)
    document = generator.generate_document(store, name="store.xml")
    collection = Collection(
        "Cfuzz", [document], kind=RepositoryKind.SINGLE_DOCUMENT
    )
    groups = _partition_sections(design_rng, sections, spec.fragment_count)
    fragments: list = [
        VerticalFragment(
            "F1", "Cfuzz", path="/Store", prune=("/Store/Items",), stub_prunes=True
        )
    ]
    for index, group in enumerate(groups):
        fragments.append(
            HybridFragment(
                f"F{index + 2}",
                "Cfuzz",
                path="/Store/Items",
                unit_label="Item",
                predicate=_group_predicate(
                    group, sections, residual=(index == len(groups) - 1)
                ),
            )
        )
    design = FragmentationSchema("Cfuzz", fragments, root_label="Store")
    queries = []
    for index in range(spec.query_count):
        rng = random.Random(f"query:{spec.seed}:{index}")
        queries.append(_emit(_one_store_query(rng, sections)))
    return GeneratedCase(
        spec=spec,
        collection=collection,
        design=design,
        queries=queries,
        frag_mode=FragMode(spec.frag_mode),
        notes=[f"hybrid FragMode{spec.frag_mode}, {len(groups)} unit groups"],
    )


def _one_store_query(rng: random.Random, sections: tuple[str, ...]) -> Expr:
    recipe = rng.choice(
        ("unit-value", "unit-value", "unit-count", "remainder", "chain", "region")
    )
    items = _coll("Cfuzz", "Store", "Items", "Item")
    if recipe == "unit-value":
        where = _item_where(rng, "i", sections) if rng.random() < 0.9 else None
        ret = rng.choice(
            (
                _var_path("i", "Name", text=True),
                _var_path("i", "Code", text=True),
                VarRef("i"),
            )
        )
        return _flwor("i", items, where, ret)
    if recipe == "unit-count":
        where = _item_where(rng, "i", sections)
        return FunctionCall("count", (_flwor("i", items, where, VarRef("i")),))
    if recipe == "remainder":
        region, label = rng.choice(
            (("Employees", "Employee"), ("Sections", "SectionEntry"))
        )
        binding = _coll("Cfuzz", "Store", region, label)
        return _flwor("e", binding, None, _var_path("e", "Name", text=True))
    if recipe == "region":
        # Unbound paths at or above the unit region, or ``//`` from the
        # root: every FragMode2 fragment holds its own copy of the spine,
        # and ``//Name`` matches units and remainder alike — only the
        # reconstruction answers them.
        return rng.choice(
            (
                FunctionCall("count", (_coll("Cfuzz", "Store", "Items"),)),
                _coll("Cfuzz", "Store", "Items"),
                FunctionCall(
                    "count", (_coll("Cfuzz", "Name", descendant_first=True),)
                ),
            )
        )
    # chain — iterate over the Store root itself: per-document semantics
    # that force the reconstruction fallback (units + remainder).
    binding = _coll("Cfuzz", "Store")
    ret = FunctionCall("count", (_var_path("s", "Items", "Item"),))
    return _flwor("s", binding, None, ret)


def shrink_candidates(spec: CaseSpec) -> list[CaseSpec]:
    """Greedy shrink moves, most aggressive first (used by the minimizer)."""
    candidates: list[CaseSpec] = []
    # A reproducer spawns no process and moves no data unless the
    # failure needs it.
    if spec.disturbance is not None:
        candidates.append(replace(spec, disturbance=None))
    if spec.transport != "in-process" and spec.disturbance != "kill":
        candidates.append(replace(spec, transport="in-process"))
    if spec.doc_count > 1:
        candidates.append(replace(spec, doc_count=max(1, spec.doc_count // 2)))
        candidates.append(replace(spec, doc_count=spec.doc_count - 1))
    if spec.fragment_count > 2:
        candidates.append(replace(spec, fragment_count=2))
        candidates.append(replace(spec, fragment_count=spec.fragment_count - 1))
    if not spec.strip_where:
        candidates.append(replace(spec, strip_where=True))
    if not spec.simple_return:
        candidates.append(replace(spec, simple_return=True))
    return candidates
