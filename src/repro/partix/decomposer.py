"""Query decomposition and data localization.

Given a query over the *global* collection and the fragmentation schema
from the distribution catalog, the decomposer emits one sub-query per
relevant fragment plus a composition specification (§3.3's "query
processing methodology similar to the relational model": map the global
query onto fragments via the reconstruction program, then localize).

Localization rules:

* **horizontal** — a fragment is pruned when its predicate μ is provably
  unsatisfiable together with the query's extracted selection predicate
  (``definitely_disjoint``), or when the value summary its primary
  replica's site recorded next to the planner statistics proves that no
  stored document can satisfy that selection predicate
  (``ValueSummary.proves_empty``: routing by value, for predicates the
  design did not anticipate). Sub-queries are the original query with
  the collection renamed to the fragment's stored collection.
* **vertical** — a fragment is relevant when a path the query touches may
  fall inside the fragment's projected region. One rule plans every
  vertical query (:meth:`QueryDecomposer._decompose_vertical`): a *key
  stage* of zero or more key lanes, then an *answer stage* on one
  fragment B — the filtering fragments answer with join keys, B answers
  the query for those keys (a *semi-join*); with no key lane B answers
  the query alone, its paths stripped of the fragment path's prefix
  (fragment documents are rooted at the projected node). One guard —
  could a document with no part in a set of fragments contribute to the
  answer? (:meth:`_VerticalSplit.part_needed`) — decides whether B may
  answer, and else which fragments the fallback fetches: the relevant
  ones, or every fragment. The fallback is
  *projected fetch + ID-join + re-query on the rebuilt
  trees* — the reconstruction the paper blames for vertical slowdowns,
  shipping and rebuilding only what the query reads. Each fetch asks
  its site for every stored document projected onto the query's touched
  paths (``px:project``, :func:`projection_paths`; *document
  projection*, Marian & Siméon, VLDB 2003). The keep rule: a node whose
  label path **matches** a touched path is kept whole; a node on a
  **proper prefix** of a kept path is kept bare (the element and all its
  attributes — ``pxid``/``pxparent``/``pxorigin`` and stub placeholders
  included, which is what the ID-join needs of it); everything the
  analysis cannot prove unreachable is kept (a **conservative
  superset**: descendant steps, wildcards, a touched path at or above
  the fragment root, an inexact analysis → up to the whole document,
  which is just the projection whose kept path is the root). Sound by
  the contract that already drops whole fragments: with ``paths_exact``
  the query navigates nothing outside ``touched_paths``, and the subset
  has no upward axis — the same fact, applied inside a fragment. A
  fragment the query does not read travels as bare roots.
* **hybrid** — no rule of its own: a hybrid fragment is π • σ
  (Definition 4), so a query whose every touched and bound path walks
  the unit path takes the horizontal rule over the unit fragments (the
  predicate re-rooted at the unit; a FragMode1 replica runs the query
  with the chain prefix stripped), a query no path of which may reach
  the units takes the vertical rule over the remainder fragments, and
  everything else — or an inexact analysis — is reconstructed from
  every fragment (fetching whole documents: unit fragments are stored
  under two shapes, FragMode1/FragMode2).

Aggregates (``count``/``sum``/``min``/``max``/``avg``) are decomposed into
partial aggregates merged by the composer; ``avg`` ships as a
``(sum, count)`` pair.

The decomposer emits a *logical plan* (:mod:`repro.plan.logical`): its
scans — one ``FragmentScan`` per relevant fragment, carrying one
candidate per replica, after the key scans of a semi-join — plus the
``CompositionSpec`` that combines their answers (union, merge of partial
aggregates, or ID-join). :meth:`QueryDecomposer.decompose` lowers it to
a :class:`~repro.plan.physical.PhysicalPlan` with cost-based
site/replica selection.

The paper's prototype shipped *annotated* sub-queries (locations supplied
by hand); :func:`annotated` builds the same structure for that mode.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.errors import DecompositionError
from repro.algebra.annotations import PXORIGIN
from repro.partix.catalog import DistributionCatalog
from repro.plan.cost import CostModel
from repro.plan.logical import FragmentScan, LogicalPlan
from repro.plan.lower import lower
from repro.plan.physical import PhysicalPlan
from repro.plan.spec import CompositionSpec, SubQuery, SubQueryTarget
from repro.partix.fragments import (
    FragmentationSchema,
    HorizontalFragment,
    HybridFragment,
    VerticalFragment,
)
from repro.paths.ast import Axis, PathExpr, Step
from repro.paths.predicates import (
    And,
    Comparison,
    Contains,
    Empty,
    Exists,
    Not,
    Or,
    Predicate,
    StartsWith,
    definitely_disjoint,
)
from repro.xmltext.projection import (
    WHOLE_DOCUMENT,
    Keep,
    keep_path,
    render_keep,
)
from repro.xquery.analysis import (
    DECOMPOSABLE_AGGREGATES,
    QueryAnalysis,
    _descendants,
    _neutralize_counted_returns,
    analyze_in_scope,
    analyze_query,
    condition_predicate,
    steps_to_path,
)
from repro.xquery.ast_nodes import (
    INPUT_FUNCTIONS,
    AttributeConstructor,
    AxisStep,
    BinaryOp,
    ElementConstructor,
    Expr,
    FLWOR,
    FilterExpr,
    ForClause,
    FunctionCall,
    IfExpr,
    LetClause,
    Literal,
    OrderSpec,
    PathApply,
    Quantified,
    RangeExpr,
    SequenceExpr,
    TextConstructor,
    UnaryOp,
    VarRef,
)
from repro.xquery.parser import parse_query
from repro.xquery.unparse import unparse


def annotated(
    collection: str,
    subqueries: list[SubQuery],
    composition: CompositionSpec,
) -> PhysicalPlan:
    """Build a hand-annotated decomposition (the paper's prototype mode).

    Each sub-query already names its site, so every scan has exactly one
    candidate; lowering only contributes the estimates.
    """
    if not subqueries:
        raise DecompositionError("an annotated decomposition needs sub-queries")
    scans = tuple(
        FragmentScan(
            fragment=subquery.fragment,
            candidates=subquery.targets()[:1],
            purpose=subquery.purpose,
        )
        for subquery in subqueries
    )
    return lower(LogicalPlan(collection, composition, scans))


class QueryDecomposer:
    """Automatic decomposition against a distribution catalog.

    :meth:`decompose_logical` performs localization and emits the logical
    plan; :meth:`decompose` lowers it with the cost model (site/replica
    selection happens there, fed by the catalog's fragment statistics).
    """

    def __init__(
        self,
        catalog: DistributionCatalog,
        cost_model: Optional[CostModel] = None,
        site_health=None,
    ):
        self.catalog = catalog
        self.cost_model = (
            cost_model if cost_model is not None else CostModel(catalog=catalog)
        )
        #: Optional shared :class:`~repro.cluster.health.SiteHealth`
        #: tracker: lowering avoids scan candidates at ejected sites.
        self.site_health = site_health

    # ------------------------------------------------------------------
    def decompose(
        self, query: str, collection: Optional[str] = None
    ) -> PhysicalPlan:
        return lower(
            self.decompose_logical(query, collection),
            cost_model=self.cost_model,
            site_health=self.site_health,
        )

    def decompose_logical(
        self, query: str, collection: Optional[str] = None
    ) -> LogicalPlan:
        expr = parse_query(query)
        analysis = analyze_query(expr)
        collection = self._resolve_collection(analysis, collection)
        fragmentation = self.catalog.fragmentation(collection)
        kinds = fragmentation.kinds
        if kinds == {"horizontal"}:
            return self._decompose_horizontal(
                expr, analysis, collection, fragmentation.horizontal_fragments()
            )
        if kinds == {"vertical"}:
            return self._decompose_vertical(
                query, expr, analysis, collection, fragmentation
            )
        return self._decompose_hybrid(
            query, expr, analysis, collection, fragmentation
        )

    def _rename_scan(
        self,
        collection: str,
        fragment_name: str,
        shipped: Expr,
        selectivity: float,
        purpose: str = "answer",
        function: str = "collection",
        stripped: Optional[Expr] = None,
    ) -> FragmentScan:
        """One scan with a renamed-query candidate per replica:
        ``collection(C)`` becomes ``function("stored collection")``.
        A FragMode1 replica runs ``stripped`` when it is given (the hybrid
        unit fragments: those replicas store bare units)."""
        candidates = tuple(
            SubQueryTarget(
                site=entry.site,
                collection=entry.stored_collection,
                query=unparse(
                    rename_collections(
                        stripped
                        if stripped is not None and entry.hybrid_mode == 1
                        else shipped,
                        {collection: entry.stored_collection},
                        function,
                    )
                ),
            )
            for entry in self.catalog.replicas(collection, fragment_name)
        )
        return FragmentScan(
            fragment=fragment_name,
            candidates=candidates,
            purpose=purpose,
            selectivity=selectivity,
        )

    def _resolve_collection(
        self, analysis: QueryAnalysis, collection: Optional[str]
    ) -> str:
        named = {name for name in analysis.collections if name is not None}
        if collection is not None:
            return collection
        if len(named) == 1:
            return next(iter(named))
        if not named:
            raise DecompositionError(
                "query reads no named collection; pass collection= explicitly"
            )
        raise DecompositionError(
            f"query reads several collections ({', '.join(sorted(named))});"
            " multi-collection decomposition is not supported"
        )

    # ------------------------------------------------------------------
    # Horizontal
    # ------------------------------------------------------------------
    def _decompose_horizontal(
        self,
        expr: Expr,
        analysis: QueryAnalysis,
        collection: str,
        fragments: Sequence[Union[HorizontalFragment, HybridFragment]],
        unit_path: Optional[PathExpr] = None,
        stripped: Optional[Expr] = None,
    ) -> LogicalPlan:
        """The horizontal rule: the query shipped to every fragment
        :meth:`_prune_by_predicate` keeps, the partial answers unioned
        or merged. Over a hybrid design's unit fragments (``unit_path``)
        the predicate is re-rooted at the unit, positions among the
        units are refused, and a FragMode1 replica runs ``stripped``,
        the query with the chain stripped (it stores bare units).
        """
        if len(fragments) > 1:
            _refuse_fragmented_inputs(analysis)
            _refuse_fragmented_positions(analysis, unit_path)
        predicate = analysis.predicate
        if unit_path is not None and predicate is not None:
            predicate = _reroot_predicate(predicate, unit_path)
        relevant, pruned, summary_pruned = self._prune_by_predicate(
            collection, fragments, predicate
        )
        notes = []
        if pruned:
            notes.append(
                "pruned fragments (predicate contradiction): "
                + ", ".join(pruned)
            )
        composition = self._value_composition(analysis)
        if not relevant:
            # The query contradicts every fragment: answer is empty, but we
            # must still return a well-formed plan; ship to none and let the
            # composer produce the aggregate identity / empty result.
            return LogicalPlan(
                collection,
                composition,
                notes=tuple(notes),
                summary_pruned=tuple(summary_pruned),
            )
        shipped = self._shippable_ast(expr, analysis)
        selectivity = analysis.selectivity_hint()
        scans = tuple(
            self._rename_scan(
                collection,
                fragment.name,
                shipped,
                selectivity,
                stripped=stripped,
            )
            for fragment in relevant
        )
        self._note_order_by(expr, len(scans), notes)
        return LogicalPlan(
            collection,
            composition,
            scans,
            notes=tuple(notes),
            summary_pruned=tuple(summary_pruned),
        )

    def _prune_by_predicate(
        self,
        collection: str,
        fragments: Sequence[Union[HorizontalFragment, HybridFragment]],
        predicate: Optional[Predicate],
    ) -> tuple[list, list[str], list[str]]:
        """``(relevant, pruned by contradiction, pruned by summary)`` —
        the one place a horizontal or hybrid unit fragment is dropped
        from a plan.

        ``predicate`` is a necessary condition for a document to
        contribute to the answer. A fragment goes when that condition
        contradicts its own predicate μ, or when its primary replica's
        recorded value summary proves no stored document meets it. The
        summary describes a superset of the stored values, so it can
        keep a useless lane but never drop a needed one; a replica with
        no summary (never recorded, or a driver that reports none) is
        never pruned on it.
        """
        if predicate is None:
            return list(fragments), [], []
        relevant, pruned, summary_pruned = [], [], []
        for fragment in fragments:
            if definitely_disjoint(predicate, fragment.predicate):
                pruned.append(fragment.name)
                continue
            statistics = self.catalog.statistics(
                collection,
                fragment.name,
                self.catalog.allocation(collection, fragment.name).site,
            )
            if (
                statistics is not None
                and statistics.summary is not None
                and statistics.summary.proves_empty(predicate)
            ):
                summary_pruned.append(fragment.name)
            else:
                relevant.append(fragment)
        return relevant, pruned, summary_pruned

    @staticmethod
    def _value_composition(analysis: QueryAnalysis) -> CompositionSpec:
        if analysis.aggregate is not None:
            return CompositionSpec(kind="aggregate", aggregate=analysis.aggregate)
        return CompositionSpec(kind="concat")

    @staticmethod
    def _note_order_by(expr: Expr, subquery_count: int, notes: list[str]) -> None:
        """Concat composition has bag semantics: warn when a top-level
        ``order by`` spans several fragments (each sub-result is ordered,
        but the concatenation interleaves fragments in catalog order)."""
        if (
            subquery_count > 1
            and isinstance(expr, FLWOR)
            and expr.order_by
        ):
            notes.append(
                "top-level 'order by' spans multiple fragments: each"
                " partial result is ordered, the concatenation is not"
            )

    def _shippable_ast(self, expr: Expr, analysis: QueryAnalysis) -> Expr:
        """The AST each fragment executes (aggregates become partials)."""
        if analysis.aggregate == "avg":
            return rewrite_avg_to_sum_count(expr)
        if analysis.aggregate == "count":
            # count(for ... return $v) counts binding tuples; returning a
            # literal instead is execution-equivalent and lets fragment
            # rewriting succeed even when $v's node is not materialized in
            # the fragment (e.g. the bare article of a vertical design).
            return _neutralize_counted_returns(expr)
        return expr

    # ------------------------------------------------------------------
    # Vertical
    # ------------------------------------------------------------------
    def _decompose_vertical(
        self,
        query: str,
        expr: Expr,
        analysis: QueryAnalysis,
        collection: str,
        fragmentation: FragmentationSchema,
    ) -> LogicalPlan:
        """The one vertical rule: a key stage of zero or more key lanes,
        then an answer stage on one fragment **B**; or, when that cannot
        be proven exact, the reconstruction.

        :class:`_VerticalSplit` names B and the key fragments. Each key
        fragment **A** gets a *key scan*: its ``where`` conjuncts
        re-rooted at A's documents, answering each match's ``pxorigin``.
        B then gets its own conjuncts, ``order by`` and ``return``
        re-rooted over ``px:collection("B's stored collection")``, the
        slot the executor writes the intersected keys into. With no key
        scan, B gets the whole query re-rooted over ``collection(...)``:
        one round. Exact because a vertical fragment holds at most one
        part per source document (Definition 3) — and possibly none: a
        key side must fail without a node under A's root, and B may
        answer only when :meth:`_VerticalSplit.part_needed` holds for
        {B}. Otherwise the reconstruction fetches the relevant fragments
        when the guard holds for them, else every fragment (the ones the
        query does not read travel as bare roots). Decided from the
        query and the design alone: no statistics, threshold or option.
        """
        fragments = fragmentation.vertical_fragments()
        relevant = relevant_fragments(analysis, fragments)
        notes = [
            f"vertical localization: {len(relevant)}/{len(fragments)}"
            " fragment(s) relevant"
        ]
        split = _VerticalSplit(expr, analysis, collection, relevant)
        answering, hint = split.answering, analysis.selectivity_hint()
        if answering is not None and split.part_needed({answering.name}):
            flwor, answered = split.flwor, expr
            keys = [
                rewrite_paths_for_fragment_root(
                    FLWOR(flwor.clauses, split.where_of(fragment), (), Literal(1)),
                    [step.name for step in fragment.path.steps],
                )
                for fragment in split.keyed
            ]
            if split.keyed:
                answered = FLWOR(
                    flwor.clauses,
                    split.where_of(answering),
                    flwor.order_by,
                    flwor.return_expr,
                )
                if split.shaped is not flwor:
                    answered = FunctionCall(split.shaped.name, (answered,))
            rooted = rewrite_paths_for_fragment_root(
                self._shippable_ast(answered, analysis),
                [step.name for step in answering.path.steps],
            )
            if rooted is not None and None not in keys:
                key_scans = tuple(
                    self._rename_scan(
                        collection,
                        fragment.name,
                        FLWOR(key.clauses, key.where, (), split.origin()),
                        hint,
                        purpose="keys",
                    )
                    for fragment, key in zip(split.keyed, keys)
                )
                if key_scans:
                    notes.append(
                        "vertical semi-join: keys from "
                        + ", ".join(fragment.name for fragment in split.keyed)
                        + f" restrict {answering.name}"
                    )
                function = "px:collection" if key_scans else "collection"
                answer = self._rename_scan(
                    collection, answering.name, rooted, hint, function=function
                )
                return LogicalPlan(
                    collection,
                    self._value_composition(analysis),
                    scans=(answer,),
                    key_scans=key_scans,
                    notes=tuple(notes),
                )
        fetched = relevant
        if not split.part_needed({fragment.name for fragment in relevant}):
            fetched = fragments
            if len(fetched) > len(relevant):
                notes.append(
                    "reconstruction fetches every fragment: a document"
                    " with no part in the relevant ones could contribute"
                )
        return self._reconstruction_plan(
            query, collection, fragmentation, fetched, notes, analysis
        )

    def _reconstruction_plan(
        self,
        query: str,
        collection: str,
        fragmentation: FragmentationSchema,
        fetched,
        notes: list[str],
        analysis: Optional[QueryAnalysis] = None,
    ) -> LogicalPlan:
        """Projected fetch of the ``fetched`` fragments + ID-join + re-query.

        With the query's ``analysis`` (the pure vertical designs) each
        fetch ships the fragment's documents projected onto the paths the
        query reads (:func:`projection_paths`); without it — the hybrid
        fallbacks, whose unit fragments are stored under two document
        shapes — the whole documents travel.
        """
        roots = [fragment.path for fragment in fetched]
        project = analysis is not None and all(p.is_simple for p in roots)
        scans = []
        for fragment in fetched:
            paths = (WHOLE_DOCUMENT,)
            if project:
                paths = projection_paths(
                    analysis, [s.name for s in fragment.path.steps], roots
                )
            arguments = "".join(f', "{path}"' for path in paths)
            candidates = tuple(
                SubQueryTarget(
                    site=entry.site,
                    collection=entry.stored_collection,
                    query=(
                        f'px:project(collection("{entry.stored_collection}")'
                        f"{arguments})"
                    ),
                )
                for entry in self.catalog.replicas(collection, fragment.name)
            )
            scans.append(
                FragmentScan(
                    fragment=fragment.name,
                    candidates=candidates,
                    purpose="fetch",
                    selectivity=1.0,
                    project=paths,
                )
            )
        notes.append(
            "composition requires the ID-join (expensive; cf. paper §5,"
            " vertical fragmentation)"
        )
        composition = CompositionSpec(
            kind="reconstruct",
            original_query=query,
            source_collection=collection,
            root_label=fragmentation.root_label,
        )
        return LogicalPlan(
            collection, composition, tuple(scans), notes=tuple(notes)
        )

    # ------------------------------------------------------------------
    # Hybrid
    # ------------------------------------------------------------------
    def _decompose_hybrid(
        self,
        query: str,
        expr: Expr,
        analysis: QueryAnalysis,
        collection: str,
        fragmentation: FragmentationSchema,
    ) -> LogicalPlan:
        """A hybrid fragment is π • σ (Definition 4), so a hybrid design
        takes the rules of the other two kinds. A query whose every
        touched and bound path walks the unit path as plain child steps
        reads the units alone: the horizontal rule plans it over the unit
        fragments. A query no path of which may reach the units, at or
        above the unit path, reads the remainder alone: the vertical rule
        plans it over the vertical fragments. Anything else — or an
        inexact analysis — is reconstructed from every fragment.
        """
        hybrids = fragmentation.hybrid_fragments()
        if not hybrids:
            raise DecompositionError(
                "mixed fragmentation without hybrid fragments is unsupported"
            )
        unit_path = hybrids[0].unit_path()
        read = [*analysis.touched_paths, *analysis.binding_paths]
        exact = analysis.paths_exact and analysis.bindings_exact
        if exact and analysis.touched_paths:
            if all(_walks(path, unit_path) for path in read):
                # FragMode1 replicas store bare units: they run the query
                # with the chain stripped; without that text, reconstruct.
                mode1 = any(
                    entry.hybrid_mode == 1
                    for fragment in hybrids
                    for entry in self.catalog.replicas(collection, fragment.name)
                )
                stripped = None
                if mode1:
                    stripped = rewrite_paths_for_fragment_root(
                        self._shippable_ast(expr, analysis),
                        [step.name for step in unit_path.steps],
                    )
                if stripped is not None or not mode1:
                    return self._decompose_horizontal(
                        expr, analysis, collection, hybrids, unit_path, stripped
                    )
            elif fragmentation.vertical_fragments() and not any(
                unit_path.may_contain(path) or path.may_contain(unit_path)
                for path in read
            ):
                return self._decompose_vertical(
                    query, expr, analysis, collection, fragmentation
                )
        return self._reconstruction_plan(
            query, collection, fragmentation, list(fragmentation), []
        )


# ----------------------------------------------------------------------
# Relevance helpers
# ----------------------------------------------------------------------
def _refuse_fragmented_inputs(analysis: QueryAnalysis) -> None:
    """Refuse a query with several input calls (``collection()``,
    ``doc()``) that is about to be shipped to several fragments.

    At a fragment every input call reads that fragment's documents only,
    so an inner ``count(collection("C")/…)`` would count per fragment —
    a wrong answer, so the query gets a typed error instead. (A vertical
    design never ships such a query per fragment: it reconstructs.)
    """
    if analysis.input_calls > 1:
        raise DecompositionError(
            f"query makes {analysis.input_calls} input calls (collection(),"
            " doc()); shipped to each fragment, every one would read that"
            " fragment's documents only"
        )


def _refuse_fragmented_positions(
    analysis: QueryAnalysis, unit_path: Optional[PathExpr] = None
) -> None:
    """Refuse a query whose positional filter counts positions over a
    sequence the design spreads over several fragments.

    Shipped per fragment, such a filter would count per fragment and
    answer one item per fragment — a wrong answer, so the query gets a
    typed error instead. Spread are: a sequence drawn from
    ``collection()`` (documents sit in different fragments), and under a
    hybrid design the unit nodes one parent holds (``unit_path``; a step
    the analysis cannot place is taken to reach them). Positions among
    the nodes *inside* one document or unit are the same in a fragment
    as in the source, and stay shippable. Called per *design*, not per
    plan: a plan pruned to one fragment is no safer, because the filter
    may count before the ``where`` clause that pruned it applies
    (``Item[1][Section = "CD"]``, ``for $i at $p … where``).
    """
    spread = list(analysis.positional_sequences)
    if unit_path is not None:
        labels = [step.name for step in unit_path.steps]
        spread += [
            text
            for focus, text in analysis.positional_steps
            if focus is None
            or not focus.is_simple
            or [step.name for step in focus.steps] == labels
        ]
    if spread:
        raise DecompositionError(
            f"positional predicate {spread[0]} filters a sequence that is"
            " spread over several fragments; evaluating it per fragment"
            " would count positions per fragment"
        )


def _walks(path: PathExpr, prefix: PathExpr) -> bool:
    """Does ``path`` start with ``prefix``'s labels as plain child steps?
    What follows may be anything (``$i//Code`` below the units walks)."""
    return len(path.steps) >= len(prefix.steps) and all(
        step.axis is Axis.CHILD
        and not step.is_attribute
        and step.name == mine.name
        for step, mine in zip(path.steps, prefix.steps)
    )


def _path_touches_fragment(fragment: VerticalFragment, path: PathExpr) -> bool:
    """Could ``path`` select nodes inside the fragment's projected region?"""
    inside = fragment.path.may_contain(path) or path.may_contain(fragment.path)
    if not inside:
        return False
    for prune in fragment.prune:
        # Only a plain path provably stays inside a pruned region; with a
        # descendant step or wildcard the prefix test merely cannot refute.
        if path.is_simple and prune.is_prefix_of(path) and str(prune) != str(path):
            return False
    return True


def relevant_fragments(
    analysis: QueryAnalysis, fragments: list[VerticalFragment]
) -> list[VerticalFragment]:
    """The vertical fragments a query reads: those a touched path may
    select nodes in — every fragment when the analysis cannot tell."""
    if analysis.paths_exact and analysis.touched_paths:
        relevant = [
            fragment
            for fragment in fragments
            if any(
                _path_touches_fragment(fragment, path)
                for path in analysis.touched_paths
            )
        ]
        if relevant:
            return relevant
    return list(fragments)


class _VerticalSplit:
    """A vertical query split by fragment for the one planning rule.

    Of a root-bound FLWOR (``flwor``; None for any other shape or an
    inexact analysis) each ``where`` conjunct must read one fragment and
    ``order by`` + ``return`` one fragment **B** (with nothing to read,
    the last fragment a conjunct reads): ``answering`` is B, ``keyed``
    the other fragments a conjunct reads. Any other query reading one
    fragment is answered by it alone. ``answering`` is None when the
    rule declines.
    """

    def __init__(
        self,
        expr: Expr,
        analysis: QueryAnalysis,
        collection: str,
        relevant: list[VerticalFragment],
    ):
        self.analysis = analysis
        self.relevant = relevant
        self.flwor: Optional[FLWOR] = None
        self.conjuncts: list[tuple[Expr, Optional[set[str]]]] = []
        self.by_fragment: dict[str, list[Expr]] = {}
        self.answering: Optional[VerticalFragment] = None
        self.keyed: list[VerticalFragment] = []
        self.shaped = (
            _neutralize_counted_returns(expr)
            if analysis.aggregate == "count"
            else expr
        )
        if (
            analysis.paths_exact
            and analysis.bindings_exact
            and all(fragment.path.is_simple for fragment in relevant)
        ):
            self.flwor = _root_bound_flwor(self.shaped, collection, relevant)
        if self.flwor is None:
            if len(relevant) == 1:
                self.answering = relevant[0]
            return
        clause = self.flwor.clauses[0]
        self.variable = clause.var
        self.scope = {clause.var: steps_to_path(clause.seq.steps)}
        self.conjuncts = [
            (conjunct, self.reads([conjunct]))
            for conjunct in _conjuncts(self.flwor.where)
        ]
        if any(read is None or len(read) != 1 for _, read in self.conjuncts):
            return  # a conjunct reads two fragments (an ``or`` across them)
        for conjunct, read in self.conjuncts:
            self.by_fragment.setdefault(next(iter(read)), []).append(conjunct)
        rest = self.reads(
            [*(spec.key for spec in self.flwor.order_by), self.flwor.return_expr]
        )
        if rest is None or len(rest) > 1:
            return
        filtering = [f for f in relevant if f.name in self.by_fragment]
        answering = next(
            (f for f in relevant if f.name in rest),
            filtering[-1] if filtering else None,
        )
        keyed = [f for f in filtering if f is not answering]
        if keyed and not (
            analysis.predicate_exact
            and all(
                self._needs_node(conjunct)
                for fragment in keyed
                for conjunct in self.by_fragment[fragment.name]
            )
        ):
            return  # a key side that could hold without a part there
        self.answering, self.keyed = answering, keyed

    def reads(self, parts: list[Expr]) -> Optional[set[str]]:
        """Names of the fragments ``parts`` read; None unless every path
        they navigate lies in exactly one relevant fragment."""
        read = analyze_in_scope(parts, self.scope)
        if not (read.paths_exact and read.bindings_exact):
            return None
        names: set[str] = set()
        for path in read.touched_paths:
            holders = self._holders(path)
            if len(holders) != 1:
                return None
            names.update(holders)
        return names

    def where_of(self, fragment: VerticalFragment) -> Optional[Expr]:
        return _conjunction(self.by_fragment.get(fragment.name, []))

    def origin(self) -> Expr:
        """``string($v/@pxorigin)``: what a key scan returns."""
        step = AxisStep("child", PXORIGIN, True)
        return FunctionCall("string", (PathApply(VarRef(self.variable), (step,)),))

    def _holders(self, path: PathExpr) -> set[str]:
        return {
            fragment.name
            for fragment in self.relevant
            if _path_touches_fragment(fragment, path)
        }

    def _needs_node(self, conjunct: Expr) -> bool:
        """Does ``conjunct`` fail for a document with no node on its paths?"""
        predicate = condition_predicate(conjunct, self.scope)
        return predicate is not None and not _holds_without_nodes(predicate)

    def part_needed(self, names: set[str]) -> bool:
        """Must a document have a part in one of the fragments ``names``
        to contribute to the answer? The rule's one guard. It holds when
        every variable the query iterates is bound at or below one of
        their roots and every path it touches lies in them (XBench Q5,
        a plain path); or, of a root-bound FLWOR, when a conjunct reading
        only them needs a node there (the ``where`` fails), or the
        ``return`` is a plain path from ``$v`` into them (it selects
        nothing). ``return count($v/epilog/x)``, a constructor or a
        literal over conditions that hold without such a node would
        answer ``0``, an empty element or the literal: the guard fails.
        """
        analysis = self.analysis
        roots = [
            fragment.path
            for fragment in self.relevant
            if fragment.name in names and fragment.path.is_simple
        ]
        if (
            analysis.paths_exact
            and analysis.bindings_exact
            and all(
                binding.is_simple
                and any(root.is_prefix_of(binding) for root in roots)
                for binding in analysis.binding_paths
            )
            and all(
                self._holders(path) <= names for path in analysis.touched_paths
            )
        ):
            return True
        if self.flwor is None:
            return False
        if any(
            read is not None and read <= names and self._needs_node(conjunct)
            for conjunct, read in self.conjuncts
        ):
            return True
        returned = self.flwor.return_expr
        if not (
            isinstance(returned, PathApply)
            and returned.primary == VarRef(self.variable)
            and returned.steps
        ):
            return False
        read = self.reads([returned])
        return read is not None and read <= names


def _root_bound_flwor(
    expr: Expr, collection: str, fragments: list[VerticalFragment]
) -> Optional[FLWOR]:
    """The FLWOR the vertical rule splits by fragment: ``expr`` itself,
    or the one argument of a decomposable aggregate, when it is a single
    ``for $v in collection("collection")/<root label>`` (with or without
    a ``where``) and the binding is its only input call. None for anything else — a
    ``let`` or second ``for``, ``at $p``, a binding below the root or
    with a step predicate, another ``collection()``/``doc()`` inside."""
    if (
        isinstance(expr, FunctionCall)
        and expr.name in DECOMPOSABLE_AGGREGATES
        and len(expr.args) == 1
    ):
        expr = expr.args[0]
    if (
        not isinstance(expr, FLWOR)
        or len(expr.clauses) != 1
        or not isinstance(expr.clauses[0], ForClause)
        or expr.clauses[0].position_var
    ):
        return None
    seq = expr.clauses[0].seq
    if not (
        isinstance(seq, PathApply)
        and seq.primary == FunctionCall("collection", (Literal(collection),))
        and len(seq.steps) == 1
    ):
        return None
    root = seq.steps[0]
    if (
        root.axis != "child"
        or root.is_attribute
        or root.is_text
        or root.predicates
        or any(f.path.steps[0].name != root.name for f in fragments)
    ):
        return None
    inputs = [
        node
        for node in _descendants(expr)
        if isinstance(node, FunctionCall) and node.name in INPUT_FUNCTIONS
    ]
    return expr if len(inputs) == 1 else None


def _conjuncts(condition: Optional[Expr]) -> list[Expr]:
    """The operands of a (nested) ``and``, left to right (none for no
    condition)."""
    if condition is None:
        return []
    if isinstance(condition, BinaryOp) and condition.op == "and":
        return _conjuncts(condition.left) + _conjuncts(condition.right)
    return [condition]


def _conjunction(conjuncts: list[Expr]) -> Optional[Expr]:
    """``conjuncts`` joined by ``and`` (None for none)."""
    joined = None
    for conjunct in conjuncts:
        joined = (
            conjunct if joined is None else BinaryOp("and", joined, conjunct)
        )
    return joined


def _holds_without_nodes(predicate: Predicate) -> bool:
    """Could ``predicate`` hold for a document with no node on any of
    its paths? A fragment's sub-query only sees documents that *have* a
    part there, so such a condition would lose the documents without one.
    Comparisons, ``exists`` and searches for a non-empty string need a
    node; negations and ``empty`` do not (conservatively: any ``not``)."""
    if isinstance(predicate, And):
        return all(_holds_without_nodes(part) for part in predicate.parts)
    if isinstance(predicate, Or):
        return any(_holds_without_nodes(part) for part in predicate.parts)
    if isinstance(predicate, Contains):
        return predicate.needle == ""
    if isinstance(predicate, StartsWith):
        return predicate.prefix == ""
    return not isinstance(predicate, (Comparison, Exists))


def projection_paths(
    analysis: QueryAnalysis, chain: list[str], graft_roots: list[PathExpr]
) -> tuple[str, ...]:
    """What a fetch keeps of fragment documents rooted at ``chain[-1]``.

    The answer is the argument list of ``px:project``
    (:mod:`repro.xmltext.projection`): the query's touched paths
    re-rooted at the fragment root are kept *whole*; kept *bare* (the
    nodes must exist, nothing below them is read) are the paths its
    ``for``/``some``/``every`` variables iterate and ``graft_roots``, the
    root paths of every fragment fetched for the join — the spine down
    to each graft target (the node carrying the ``pxid`` a part's
    ``pxparent`` names, or its stub) survives wherever it is stored.
    Sound by the contract that already drops whole fragments — with
    ``paths_exact`` the query navigates nothing but ``touched_paths`` —
    applied one level finer; whatever the analysis cannot pin down keeps
    a superset: an inexact analysis, or a touched path at or above the
    fragment root, keeps the whole document; a descendant or wildcard
    step keeps everything below the last plain step before it.
    """
    if not analysis.paths_exact or not analysis.bindings_exact:
        return (WHOLE_DOCUMENT,)
    keep: Keep = {}
    for path in analysis.touched_paths:
        keep = _keep_below_root(keep, path, chain, whole=True)
    for path in (*analysis.binding_paths, *graft_roots):
        keep = _keep_below_root(keep, path, chain, whole=False)
    return render_keep(keep)


def _keep_below_root(
    keep: Keep, path: PathExpr, chain: list[str], whole: bool
) -> Keep:
    """``keep`` plus what ``path`` reaches in documents rooted at
    ``chain[-1]`` (``whole``: the selected subtrees; else the bare nodes)."""
    steps = path.steps
    for depth, label in enumerate(chain):
        if depth == len(steps):
            # Selects an ancestor of the fragment root: a whole path reads
            # the entire fragment; a bare one needs only the root.
            return None if whole else keep
        step = steps[depth]
        if step.axis is Axis.DESCENDANT or step.is_wildcard:
            return None
        if step.is_attribute or step.name != label:
            return keep  # leaves the chain: never enters these documents
    labels = []
    for step in steps[len(chain) :]:
        if step.is_attribute:
            whole = False  # attributes travel with their bare owner
            break
        if step.axis is Axis.DESCENDANT or step.is_wildcard:
            whole = True  # may reach anything below the last plain step
            break
        labels.append(step.name)
    return keep_path(keep, labels, whole)


def _reroot_predicate(
    predicate: Predicate, unit_path: PathExpr
) -> Optional[Predicate]:
    """Translate a document-rooted predicate to a unit-rooted one.

    ``/Store/Items/Item/Section = "CD"`` becomes ``/Item/Section = "CD"``
    when the unit path is ``/Store/Items/Item``. Parts that do not sit
    under the unit path are dropped (the result stays a sound necessary
    condition for unit membership).
    """
    if isinstance(predicate, And):
        parts = [
            p
            for p in (
                _reroot_predicate(part, unit_path)
                for part in predicate.parts
            )
            if p is not None
        ]
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else And(tuple(parts))
    if isinstance(predicate, Or):
        parts = []
        for part in predicate.parts:
            rerooted = _reroot_predicate(part, unit_path)
            if rerooted is None:
                return None  # a disjunct escaping the unit defeats pruning
            parts.append(rerooted)
        return Or(tuple(parts))
    if isinstance(predicate, Not):
        inner = _reroot_predicate(predicate.inner, unit_path)
        return Not(inner) if inner is not None else None
    path = getattr(predicate, "path", None)
    if path is None:
        return None
    rerooted_path = _reroot_path(path, unit_path)
    if rerooted_path is None:
        return None
    if isinstance(predicate, Comparison):
        return Comparison(rerooted_path, predicate.op, predicate.value)
    if isinstance(predicate, Contains):
        return Contains(rerooted_path, predicate.needle)
    if isinstance(predicate, StartsWith):
        return StartsWith(rerooted_path, predicate.prefix)
    if isinstance(predicate, Exists):
        return Exists(rerooted_path)
    if isinstance(predicate, Empty):
        return Empty(rerooted_path)
    return None


def _reroot_path(path: PathExpr, unit_path: PathExpr) -> Optional[PathExpr]:
    if not unit_path.is_simple or not path.is_simple:
        return None
    unit_labels = [s.name for s in unit_path.steps]
    path_labels = [s.name for s in path.steps]
    if len(path_labels) < len(unit_labels):
        return None
    if path_labels[: len(unit_labels)] != unit_labels:
        return None
    kept = path.steps[len(unit_labels) :]
    steps = (Step(Axis.CHILD, unit_path.last.name),) + kept
    return PathExpr(steps)


# ----------------------------------------------------------------------
# AST rewriters
# ----------------------------------------------------------------------
def rename_collections(
    expr: Expr, mapping: dict[str, str], function: str = "collection"
) -> Expr:
    """Replace collection names per ``mapping`` throughout the AST; the
    renamed calls call ``function`` (``"px:collection"``: the key slot of
    a semi-join's answer template, ``plan.spec.origin_restricted``)."""

    def transform(node: Expr) -> Expr:
        if isinstance(node, FunctionCall) and node.name == "collection":
            if node.args and isinstance(node.args[0], Literal):
                name = str(node.args[0].value)
                if name in mapping:
                    return FunctionCall(function, (Literal(mapping[name]),))
        return node

    return _transform(expr, transform)


def rewrite_paths_for_fragment_root(
    expr: Expr, chain_labels: list[str]
) -> Optional[Expr]:
    """Rewrite a query to run against fragment documents.

    ``chain_labels`` are the labels of the fragment's path (e.g.
    ``[article, prolog]`` or ``[Store, Items, Item]``); fragment documents
    are rooted at the *last* label. Collection-rooted paths starting with
    the full chain keep only the last label onward; a ``for`` binding that
    stops partway down the chain (``for $a in collection()/article``) is
    re-bound to the fragment roots, and the chain remainder is stripped
    from every path hanging off the variable (``$a/prolog/title`` →
    ``$a/title``). Descendant-axis leading steps need no rewriting.

    Returns None when some path addresses the original document shape in a
    way that cannot be mapped (the caller falls back to reconstruction).
    """
    rewriter = _FragmentRootRewriter(chain_labels)
    rewritten = rewriter.rewrite(expr, {})
    return None if rewriter.failed else rewritten


class _FragmentRootRewriter:
    """Variable-aware chain-prefix stripping (see the function above).

    ``strips`` maps each in-scope variable to the list of labels still to
    be consumed by paths hanging off it: ``[]`` means the variable binds
    fragment-level nodes (no stripping needed), a non-empty list means the
    variable nominally binds an ancestor that fragment documents lack, so
    any use must first navigate down through exactly those labels.
    """

    def __init__(self, chain: list[str]):
        self.chain = chain
        self.failed = False

    # ------------------------------------------------------------------
    def rewrite(self, expr: Expr, strips: dict[str, list[str]]) -> Expr:
        if self.failed:
            return expr
        if isinstance(expr, FLWOR):
            return self._rewrite_flwor(expr, strips)
        if isinstance(expr, Quantified):
            scope = dict(strips)
            seq, strip = self._rewrite_binding(expr.seq, strips)
            if strip is not None:
                scope[expr.var] = strip
            return Quantified(
                expr.kind, expr.var, seq, self.rewrite(expr.condition, scope)
            )
        if isinstance(expr, PathApply):
            return self._rewrite_path(expr, strips)
        if isinstance(expr, VarRef):
            if strips.get(expr.name):
                # The variable's nominal node does not exist in fragment
                # documents; a bare use cannot be mapped.
                self.failed = True
            return expr
        return _rebuild(expr, lambda node: self.rewrite(node, strips))

    def _rewrite_flwor(self, expr: FLWOR, strips: dict[str, list[str]]) -> Expr:
        scope = dict(strips)
        clauses = []
        for clause in expr.clauses:
            if isinstance(clause, ForClause):
                seq, strip = self._rewrite_binding(clause.seq, scope)
                clauses.append(ForClause(clause.var, seq, clause.position_var))
                scope[clause.var] = strip if strip is not None else []
            else:
                seq, strip = self._rewrite_binding(clause.expr, scope)
                clauses.append(LetClause(clause.var, seq))
                scope[clause.var] = strip if strip is not None else []
        where = self.rewrite(expr.where, scope) if expr.where is not None else None
        order_by = tuple(
            OrderSpec(self.rewrite(s.key, scope), s.descending)
            for s in expr.order_by
        )
        return FLWOR(
            tuple(clauses), where, order_by, self.rewrite(expr.return_expr, scope)
        )

    def _rewrite_binding(
        self, seq: Expr, strips: dict[str, list[str]]
    ) -> tuple[Expr, Optional[list[str]]]:
        """Rewrite a binding sequence; returns (new_seq, strip-for-var)."""
        if isinstance(seq, PathApply) and _is_anchored(seq):
            return self._strip_anchored(seq, strips, binding=True)
        if isinstance(seq, PathApply) and isinstance(seq.primary, VarRef):
            return self._strip_var_rooted(seq, strips, binding=True)
        return self.rewrite(seq, strips), []

    # ------------------------------------------------------------------
    def _rewrite_path(self, expr: PathApply, strips: dict[str, list[str]]) -> Expr:
        if _is_anchored(expr):
            rewritten, strip = self._strip_anchored(expr, strips, binding=False)
        elif isinstance(expr.primary, VarRef):
            rewritten, strip = self._strip_var_rooted(expr, strips, binding=False)
        else:
            primary = self.rewrite(expr.primary, strips)
            return PathApply(
                primary, self._rewrite_step_predicates(expr.steps, strips), expr.absolute
            )
        if strip:  # non-binding use must map fully
            self.failed = True
        return rewritten

    def _keep(
        self, expr: PathApply, steps: tuple[AxisStep, ...], strips: dict[str, list[str]]
    ) -> PathApply:
        """``expr``'s primary followed by ``steps``, predicates rewritten."""
        return PathApply(
            expr.primary, self._rewrite_step_predicates(steps, strips), expr.absolute
        )

    def _strip_anchored(
        self, expr: PathApply, strips: dict[str, list[str]], binding: bool
    ) -> tuple[Expr, Optional[list[str]]]:
        steps = expr.steps
        if not steps:
            return expr, []
        first = steps[0]
        if (
            first.axis == "descendant-or-self"
            or first.name != self.chain[0]
            or first.is_attribute
        ):
            return self._keep(expr, steps, strips), []
        matched = 0
        for step, label in zip(steps, self.chain):
            if step.axis != "child" or step.name != label or step.is_attribute:
                break
            matched += 1
        if matched < len(self.chain):
            # Binding stops partway down the chain: bind fragment roots and
            # leave the chain remainder to be stripped off the variable.
            if not binding or matched < len(steps):
                self.failed = True
                return expr, None
            if any(step.predicates for step in steps):
                self.failed = True  # predicates on dropped chain steps
                return expr, None
            new_steps = (AxisStep("child", self.chain[-1]),)
            remainder = self.chain[matched:]
            return PathApply(expr.primary, new_steps, expr.absolute), remainder
        # Full chain matched: keep the last chain step (with predicates)
        # and everything after it.
        if any(step.predicates for step in steps[: len(self.chain) - 1]):
            self.failed = True  # predicates on dropped chain steps
            return expr, None
        return self._keep(expr, steps[len(self.chain) - 1 :], strips), []

    def _strip_var_rooted(
        self, expr: PathApply, strips: dict[str, list[str]], binding: bool
    ) -> tuple[Expr, Optional[list[str]]]:
        assert isinstance(expr.primary, VarRef)
        strip = strips.get(expr.primary.name) or []
        steps = expr.steps
        if not strip:
            return self._keep(expr, steps, strips), []
        consumable = min(len(strip), len(steps))
        for index in range(consumable):
            step = steps[index]
            if (
                step.axis != "child"
                or step.name != strip[index]
                or step.is_attribute
                or step.predicates
            ):
                if step.axis == "descendant-or-self":
                    # '//' skips the missing ancestors by itself.
                    return self._keep(expr, steps, strips), []
                self.failed = True
                return expr, None
        remaining_strip = strip[consumable:]
        kept = steps[consumable:]
        if remaining_strip and not binding:
            self.failed = True
            return expr, None
        if not kept:
            return expr.primary, remaining_strip
        return self._keep(expr, kept, strips), remaining_strip

    def _rewrite_step_predicates(
        self, steps: tuple[AxisStep, ...], strips: dict[str, list[str]]
    ) -> tuple[AxisStep, ...]:
        return _map_step_predicates(steps, lambda p: self.rewrite(p, strips))


def _is_anchored(expr: PathApply) -> bool:
    """Does ``expr`` start at a document root (``collection()``, ``doc()``,
    a leading ``/``)?"""
    return expr.primary is None or (
        isinstance(expr.primary, FunctionCall)
        and expr.primary.name in ("collection", "doc")
    )


def _map_step_predicates(steps: tuple[AxisStep, ...], fn) -> tuple[AxisStep, ...]:
    """``steps`` with ``fn`` applied to every step predicate."""
    return tuple(
        AxisStep(
            s.axis, s.name, s.is_attribute, s.is_text, tuple(map(fn, s.predicates))
        )
        for s in steps
    )


def rewrite_avg_to_sum_count(expr: Expr) -> Expr:
    """Turn a top-level ``avg(X)`` into the pair ``(sum(X), count(X))``."""
    if isinstance(expr, FunctionCall) and expr.name == "avg":
        return SequenceExpr(
            (
                FunctionCall("sum", expr.args),
                FunctionCall("count", expr.args),
            )
        )
    if isinstance(expr, ElementConstructor) and len(expr.content) == 1:
        return ElementConstructor(
            expr.name, (rewrite_avg_to_sum_count(expr.content[0]),)
        )
    if isinstance(expr, FLWOR) and all(
        isinstance(c, LetClause) for c in expr.clauses
    ):
        return FLWOR(
            expr.clauses,
            expr.where,
            expr.order_by,
            rewrite_avg_to_sum_count(expr.return_expr),
        )
    return expr


def _transform(expr: Expr, fn) -> Expr:
    """Bottom-up AST transformation applying ``fn`` to every node."""
    rebuilt = _rebuild(expr, lambda child: _transform(child, fn))
    return fn(rebuilt)


def _rebuild(expr: Expr, fn) -> Expr:
    """Rebuild one node, transforming direct children through ``fn``.

    ``fn`` fully transforms each child; this function never recurses by
    itself, so callers with scoped state (the fragment-root rewriter)
    control the traversal.
    """
    if isinstance(expr, SequenceExpr):
        return SequenceExpr(tuple(fn(item) for item in expr.items))
    if isinstance(expr, RangeExpr):
        return RangeExpr(fn(expr.start), fn(expr.end))
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, fn(expr.left), fn(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, fn(expr.operand))
    if isinstance(expr, FunctionCall):
        return FunctionCall(expr.name, tuple(fn(a) for a in expr.args))
    if isinstance(expr, PathApply):
        primary = fn(expr.primary) if expr.primary is not None else None
        return PathApply(
            primary, _map_step_predicates(expr.steps, fn), expr.absolute
        )
    if isinstance(expr, FilterExpr):
        return FilterExpr(
            fn(expr.primary),
            tuple(fn(p) for p in expr.predicates),
        )
    if isinstance(expr, FLWOR):
        clauses = []
        for clause in expr.clauses:
            if isinstance(clause, ForClause):
                clauses.append(
                    ForClause(
                        clause.var, fn(clause.seq), clause.position_var
                    )
                )
            else:
                clauses.append(LetClause(clause.var, fn(clause.expr)))
        where = fn(expr.where) if expr.where is not None else None
        order_by = tuple(
            OrderSpec(fn(s.key), s.descending) for s in expr.order_by
        )
        return FLWOR(tuple(clauses), where, order_by, fn(expr.return_expr))
    if isinstance(expr, IfExpr):
        return IfExpr(
            fn(expr.condition),
            fn(expr.then_branch),
            fn(expr.else_branch),
        )
    if isinstance(expr, Quantified):
        return Quantified(
            expr.kind,
            expr.var,
            fn(expr.seq),
            fn(expr.condition),
        )
    if isinstance(expr, ElementConstructor):
        return ElementConstructor(
            expr.name, tuple(fn(c) for c in expr.content)
        )
    if isinstance(expr, AttributeConstructor):
        return AttributeConstructor(
            expr.name, tuple(fn(c) for c in expr.content)
        )
    if isinstance(expr, TextConstructor):
        return TextConstructor(tuple(fn(c) for c in expr.content))
    return expr
