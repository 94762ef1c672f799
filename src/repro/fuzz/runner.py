"""The differential oracle: centralized vs fragmented, across transports.

For each generated case the runner stands up a fresh cluster (one site
per fragment plus a ``central`` baseline site), publishes the collection
both ways, re-verifies the §3.3 correctness rules empirically, and runs
every query once per configuration: centralized, then fragmented in each
requested execution mode (``simulated`` and ``threads`` by default;
``tcp`` adds real site-server processes — the case's repository is
mirrored over the wire and sub-queries travel through sockets, with an
adversarially tiny negotiated chunk size, so nearly every reply is
chunked, chunk boundaries fall inside multi-byte UTF-8 characters and
the assembled answer must still be byte-identical). Two comparisons
apply:

* **mode** — the composed answers of every execution mode must be
  byte-identical, always. Plan-order composition is a hard contract:
  the middleware aligns partial results by plan index no matter in which
  order the dispatcher's lanes complete.
* **answer** — the fragmented answer must match the centralized one.
  Byte-identical when the composition is an aggregate or a
  reconstruction, or when one lane answers (a single-fragment plan, a
  vertical semi-join); for
  multi-fragment ``concat`` plans the comparison is an order-insensitive
  line multiset, because fragments legitimately interleave the document
  order of the centralized repository (same policy as
  ``bench.scenarios``).

* **accessor** — the engine evaluates on its stored node tables; the
  same evaluator over the DOM trees ``materialize()`` decodes from the
  centralized collection (:func:`evaluate_on_dom`) must produce the
  centralized answer byte for byte. Always on: every configuration also checks
  table-vs-DOM.
* **index** — the fragment sites probe their indexes and the ``central``
  reference site scans every document, so the answer comparison above
  is also indexed against scanning, in every mode. Candidates keep store
  order, so an unsound candidate set — a dropped or a reordered
  document — shows up as an ``answer`` mismatch.

Two more oracles guard the planning layer itself:

* **plan-order composition** (reported as kind ``mode``) — a concat
  answer must equal the plan-order composition of the round's *own*
  per-lane partial results; a dispatcher that mis-aligns completed
  sub-queries corrupts every mode identically now that all modes share
  the one plan executor, so the contract is checked directly instead of
  by cross-mode comparison alone.
* **plan** — planning must be deterministic (two ``explain`` calls
  render the identical physical plan) and the rendered plan must
  round-trip through its JSON-serialized form.

Execution errors must be symmetric: a query that raises centrally must
raise the same error class against the fragmented repository, and vice
versa — an asymmetric error is reported as a mismatch of kind
``error``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.cluster.site import Cluster, Site
from repro.engine.database import XMLEngine, serialize_sequence
from repro.errors import StorageError
from repro.fuzz.generator import CaseSpec, GeneratedCase, generate_case, spec_for_iteration
from repro.partix.catalog import FragmentAllocation
from repro.partix.correctness import verify_fragmentation
from repro.partix.decomposer import relevant_fragments
from repro.partix.middleware import Partix, PartixResult
from repro.paths.predicates import Empty, Exists, as_number, atoms
from repro.plan.executor import ExecutionMode
from repro.plan.explain import plan_from_dict
from repro.xmltext.projection import WHOLE_DOCUMENT
from repro.xquery.analysis import analyze_query
from repro.xquery.evaluator import DynamicContext, Evaluator
from repro.xquery.parser import parse_query
from repro.xquery.values import atomic_to_string

CENTRAL_SITE = "central"
#: Extra site holding one replica of every fragment in ``kill_site``
#: mode, so killing a primary's server leaves a live copy reachable.
MIRROR_SITE = "mirror"
#: Extra empty site added in ``migrate`` mode: the mid-run migration
#: splits or moves a fragment onto it, so the second pass exercises a
#: placement the first pass never saw.
SPARE_SITE = "spare"
EXECUTION_MODES = ("simulated", "threads")
ALL_EXECUTION_MODES = ExecutionMode.names()

#: Chunk size proposed to the site servers when a tcp mode is under
#: test. Tiny on purpose: every answer of 7 bytes or more is chunked,
#: and with 7-byte RESULT_CHUNK frames almost every multi-byte UTF-8
#: character in a result is split across a chunk boundary; shorter
#: answers keep the inline RESULT form covered in the same session.
ADVERSARIAL_CHUNK_BYTES = 7


@dataclass
class Mismatch:
    """One oracle violation observed while running a case."""

    kind: str  # "answer" | "mode" | "plan" | "correctness" | "error" | "failover" | "migrate" | "accessor"
    detail: str
    query_index: Optional[int] = None
    query: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "query_index": self.query_index,
            "query": self.query,
        }


@dataclass
class CaseOutcome:
    """Everything the oracle observed for one case."""

    spec: CaseSpec
    mismatches: list[Mismatch] = field(default_factory=list)
    queries_run: int = 0
    queries_skipped: int = 0
    comparisons: int = 0
    composition_kinds: Counter = field(default_factory=Counter)
    #: Fetch sub-queries of the compared plans, by what they shipped: a
    #: ``strict`` projection or the ``whole`` document.
    fetch_projections: Counter = field(default_factory=Counter)
    #: What the index oracle actually exercised: ``index_lookups`` spent
    #: by the fragmented runs, ``existence_conditions`` among the compared
    #: queries' predicates, ``noncanonical_numerals`` among the case's
    #: values (``5.0``, ``05``) — a session reading 0 proved nothing.
    index_oracle: Counter = field(default_factory=Counter)
    #: Fragments the compared plans dropped on a value summary — every
    #: such plan's answer still faced the centralized one, which is the
    #: summaries-off side of the differential.
    summary_pruned: int = 0
    #: Compared plans that ran as a vertical semi-join (keys, then the
    #: answer restricted to them).
    semijoin_plans: int = 0
    #: Compared vertical plans that fetched a fragment the query does not
    #: read: reconstructions over the whole design, for the documents
    #: with no part in the fragments it does read.
    whole_design_fetches: int = 0
    #: Compared hybrid plans by the branch of the hybrid rule that made
    #: them: ``units`` (the horizontal rule over the unit fragments),
    #: ``remainder`` (the vertical rule) or ``reconstruct``.
    hybrid_plans: Counter = field(default_factory=Counter)
    #: Lanes answered over a socket, by the form the reply rule gave
    #: them: ``inline`` (one terminal frame) or ``chunked``.
    reply_forms: Counter = field(default_factory=Counter)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def mismatch_kinds(self) -> tuple[str, ...]:
        """Stable fingerprint used by the minimizer to match failures."""
        return tuple(sorted({m.kind for m in self.mismatches}))

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "queries_run": self.queries_run,
            "queries_skipped": self.queries_skipped,
            "comparisons": self.comparisons,
            "composition_kinds": dict(self.composition_kinds),
            "fetch_projections": dict(self.fetch_projections),
            "index_oracle": dict(self.index_oracle),
            "summary_pruned": self.summary_pruned,
            "semijoin_plans": self.semijoin_plans,
            "whole_design_fetches": self.whole_design_fetches,
            "hybrid_plans": dict(self.hybrid_plans),
            "reply_forms": dict(self.reply_forms),
            "mismatches": [m.to_dict() for m in self.mismatches],
            "notes": self.notes,
        }


def _diff_snippet(left: str, right: str, limit: int = 240) -> str:
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    for index, (a, b) in enumerate(zip(left_lines, right_lines)):
        if a != b:
            return (
                f"first differing line {index}:"
                f" {a[:limit]!r} vs {b[:limit]!r}"
            )
    return (
        f"line counts differ: {len(left_lines)} vs {len(right_lines)}"
        f" (tail: {left_lines[len(right_lines):len(right_lines)+1]!r}"
        f" vs {right_lines[len(left_lines):len(left_lines)+1]!r})"
    )


def _signature(text: str) -> tuple[str, ...]:
    """Order-insensitive line multiset (fragments interleave doc order)."""
    return tuple(sorted(line for line in text.splitlines() if line.strip()))


class _DomProvider:
    """An engine's stored documents as decoded DOM trees, unpruned."""

    def __init__(self, engine: XMLEngine):
        self._store = engine.store

    def collection_roots(self, name: Optional[str]) -> list:
        if name is None or not self._store.has_collection(name):
            raise StorageError(f"no collection named {name!r}")
        collection = self._store.collection(name)
        return [
            collection.get(doc_name).binary.materialize(name=doc_name).root
            for doc_name in collection.names()
        ]

    def document_root(self, name: str):
        return None  # the generator emits no doc() call


def _fetch_projections(plan) -> Counter:
    """The plan's fetch scans counted as ``strict`` projections or
    ``whole`` documents (the ``project=[...]`` annotation of EXPLAIN)."""
    counts: Counter = Counter()
    for lane in plan.lanes:
        if lane.project is not None:
            whole = lane.project == (WHOLE_DOCUMENT,)
            counts["whole" if whole else "strict"] += 1
    return counts


def _fetches_unread_fragment(partix: Partix, analysis, plan) -> bool:
    """Does a vertical plan fetch a fragment the query does not read?"""
    design = partix.distribution_catalog.fragmentation("Cfuzz")
    if design.kinds != {"vertical"}:
        return False
    read = {
        fragment.name
        for fragment in relevant_fragments(analysis, design.vertical_fragments())
    }
    return any(
        lane.subquery.purpose == "fetch" and lane.subquery.fragment not in read
        for lane in plan.lanes
    )


def _hybrid_branch(partix: Partix, plan) -> Optional[str]:
    """The branch of the hybrid rule that made ``plan`` (None for the
    other designs): ``reconstruct``, ``units`` when every lane (of none
    or more) reads a unit fragment, else ``remainder``."""
    design = partix.distribution_catalog.fragmentation("Cfuzz")
    if "hybrid" not in design.kinds:
        return None
    if plan.composition.kind == "reconstruct":
        return "reconstruct"
    units = {fragment.name for fragment in design.hybrid_fragments()}
    if all(lane.subquery.fragment in units for lane in plan.lanes):
        return "units"
    return "remainder"


def evaluate_on_dom(engine: XMLEngine, query: str) -> str:
    """The accessor oracle's reference answer: ``query`` through the one
    evaluator over DOM trees decoded from ``engine``'s node tables — the
    second implementation of the node accessor — serialized the way the
    engine serializes its own."""
    items = Evaluator().evaluate(
        parse_query(query), DynamicContext(provider=_DomProvider(engine))
    )
    return serialize_sequence(items)


def run_case(
    spec: CaseSpec,
    case: Optional[GeneratedCase] = None,
    partix_factory: Optional[Callable[[Cluster], Partix]] = None,
    modes: Sequence[str] = EXECUTION_MODES,
    kill_site: bool = False,
    migrate: bool = False,
) -> CaseOutcome:
    """Generate (unless given) and differentially execute one case.

    ``partix_factory`` lets tests swap in a middleware with a tampered
    dispatcher — that is how the injected-bug acceptance test proves the
    oracle actually bites. ``modes`` selects the fragmented execution
    modes to compare; including ``"tcp"`` spawns real site-server
    processes for the case (mirrored over the wire, reaped afterwards).

    ``kill_site`` is the failover oracle (requires a tcp mode): every
    fragment is published twice — primary on its round-robin site plus a
    replica on a dedicated ``mirror`` site — the queries run once
    healthy, then the first primary's server process is killed and the
    same queries run again. The answers must still converge to the
    centralized baseline through the replica: an asymmetric error or a
    differing answer is caught by the standard oracles, and if the dead
    site was targeted but no sub-query ever failed over (nor was the
    site ejected by health tracking) a mismatch of kind ``failover`` is
    reported. Killing between the passes means the coordinator's pooled
    sockets to the victim die mid-use — the retry loop discovers the
    corpse on a live connection, not on a fresh connect.

    ``migrate`` is the online-rebalancing oracle (any execution mode):
    the queries run once against the published design, then a live
    migration fires — the first splittable horizontal fragment is split
    onto a dedicated empty ``spare`` site, falling back to moving the
    first fragment there — and the same queries run again against the
    new catalog version. Both passes face the standard oracles, so at
    least one query is compared on *each* catalog version and the
    answers must keep converging to the centralized baseline; a
    migration that fails to complete (or to bump the catalog version) is
    reported as a mismatch of kind ``migrate``. A plan cache is
    installed so the version bump also exercises cache invalidation.
    """
    outcome = CaseOutcome(spec=spec)
    if kill_site and migrate:
        raise ValueError(
            "kill_site and migrate are mutually exclusive oracles:"
            " a mid-run migration needs every site alive"
        )
    if case is None:
        case = generate_case(spec)
    outcome.notes.extend(case.notes)
    outcome.index_oracle["noncanonical_numerals"] = sum(
        _is_noncanonical_numeral(node.value)
        for document in case.collection
        for node in document.root.descendants_or_self()
        if node.value is not None
    )

    parsed_modes = [ExecutionMode.parse(mode) for mode in modes]
    if kill_site and not any(mode.transport == "tcp" for mode in parsed_modes):
        raise ValueError(
            "kill_site=True needs a tcp execution mode: killing a site"
            " process only perturbs the networked transports"
        )

    report = verify_fragmentation(case.design, case.collection)
    if not report.ok:
        for violation in report.violations:
            outcome.mismatches.append(
                Mismatch(kind="correctness", detail=violation)
            )
        return outcome

    cluster = Cluster.with_sites(len(case.design), prefix="site")
    if kill_site:
        cluster.add(Site(MIRROR_SITE))
    partix = (
        partix_factory(cluster) if partix_factory is not None else Partix(cluster)
    )
    allocations = None
    victim = None
    if kill_site:
        # Mirror the publisher's default round-robin placement for the
        # primaries (the mirror site must not absorb one), then add one
        # replica of every fragment on the mirror site. Victim: the
        # first primary — killing it leaves each of its fragments with
        # exactly one live copy.
        primaries = [f"site{index}" for index in range(len(case.design))]
        allocations = []
        for index, fragment in enumerate(case.design.fragments):
            allocations.append(
                FragmentAllocation(
                    fragment=fragment.name,
                    site=primaries[index % len(primaries)],
                    stored_collection=fragment.name,
                )
            )
            allocations.append(
                FragmentAllocation(
                    fragment=fragment.name,
                    site=MIRROR_SITE,
                    stored_collection=fragment.name,
                )
            )
        victim = primaries[0]
    partix.publish(
        case.collection,
        case.design,
        allocations=allocations,
        frag_mode=case.frag_mode,
    )
    if migrate:
        # Added *after* publish so the round-robin placement ignores it:
        # the spare site is empty until the mid-run migration fills it.
        cluster.add(Site(SPARE_SITE))
    # The reference scans: the index oracle (see the module docstring).
    cluster.add(Site(CENTRAL_SITE, use_indexes=False))
    partix.publish_centralized(case.collection, CENTRAL_SITE)

    try:
        if any(mode.transport == "tcp" for mode in parsed_modes):
            # Set before start_tcp so the clients negotiate it.
            partix.chunk_bytes = ADVERSARIAL_CHUNK_BYTES
            partix.start_tcp()
        if migrate:
            _run_migrate_case(partix, case, outcome, modes)
            return outcome
        if not kill_site:
            for index, query in case.active_queries:
                _run_query(partix, index, query, outcome, modes)
            return outcome

        tcp_modes = [
            mode
            for mode, parsed in zip(modes, parsed_modes)
            if parsed.transport == "tcp"
        ]
        # Pass 1 — healthy run: standard oracles, and note whether any
        # tcp plan actually routed a lane to the victim (pruning can
        # legitimately skip its fragment for some queries).
        victim_targeted = False
        for index, query in case.active_queries:
            results = _run_query(partix, index, query, outcome, modes)
            for mode in tcp_modes:
                result = results.get(mode)
                if result is not None and result.plan is not None and any(
                    subquery.site == victim
                    for subquery in result.plan.subqueries
                ):
                    victim_targeted = True

        partix.tcp.kill(victim)
        outcome.notes.append(
            f"killed tcp site {victim!r} between passes"
            " (pooled sockets die mid-use)"
        )

        # Pass 2 — the victim is dead: answers must still converge to
        # the centralized baseline through the mirror replica.
        failovers = 0
        for index, query in case.active_queries:
            results = _run_query(partix, index, query, outcome, modes)
            failovers += sum(
                results[mode].failover_count
                for mode in tcp_modes
                if mode in results
            )
        outcome.notes.append(f"replica failovers observed: {failovers}")
        if (
            victim_targeted
            and failovers == 0
            and partix.site_health is not None
            and not partix.site_health.is_ejected(victim)
        ):
            outcome.mismatches.append(
                Mismatch(
                    kind="failover",
                    detail=(
                        f"site {victim!r} was killed while hosting primary"
                        " lanes, yet no tcp sub-query failed over to its"
                        " replica and the site was never ejected"
                    ),
                )
            )
    finally:
        partix.close()
    return outcome


def _run_migrate_case(
    partix: Partix,
    case: GeneratedCase,
    outcome: CaseOutcome,
    modes: Sequence[str],
) -> None:
    """Two differential passes with a live migration fired in between."""
    catalog = partix.distribution_catalog
    version_before = catalog.version

    for index, query in case.active_queries:
        _run_query(partix, index, query, outcome, modes)
    first_pass = outcome.queries_run

    report = _fire_migration(partix, case, outcome)
    if report is None or not report.completed:
        outcome.mismatches.append(
            Mismatch(
                kind="migrate",
                detail="no migration could be performed on the case design",
            )
        )
        return
    if catalog.version == version_before:
        outcome.mismatches.append(
            Mismatch(
                kind="migrate",
                detail=(
                    f"migration reported completion but the catalog version"
                    f" stayed at {version_before}"
                ),
            )
        )
        return

    for index, query in case.active_queries:
        _run_query(partix, index, query, outcome, modes)
    outcome.notes.append(
        f"queries compared on catalog v{version_before}: {first_pass},"
        f" on v{catalog.version}: {outcome.queries_run - first_pass}"
    )
    stats = partix.plan_cache.stats()
    outcome.notes.append(
        f"plan cache across the migration: {stats}"
    )


def _fire_migration(partix: Partix, case: GeneratedCase, outcome: CaseOutcome):
    """Split the first splittable horizontal fragment onto the spare
    site, else move the first fragment there. Returns the report, or
    None when every migration attempt failed."""
    from repro.errors import RebalanceError
    from repro.partix.fragments import HorizontalFragment
    from repro.rebalance import Rebalancer

    rebalancer = Rebalancer(partix)
    collection = case.collection.name
    catalog = partix.distribution_catalog
    for fragment in case.design.fragments:
        if not isinstance(fragment, HorizontalFragment):
            continue
        primary = catalog.allocation(collection, fragment.name)
        try:
            report = rebalancer.split(
                collection,
                fragment.name,
                target_sites=(primary.site, SPARE_SITE),
            )
        except RebalanceError:
            continue
        outcome.notes.append(
            f"migration: split {fragment.name!r} at {report.split_path}"
            f" ∈ {report.split_values} → {report.new_fragments}"
            f" ({report.documents_moved} documents, spare site got one half)"
        )
        return report
    first = case.design.fragments[0].name
    try:
        report = rebalancer.move(collection, first, SPARE_SITE)
    except RebalanceError as error:
        outcome.notes.append(f"migration fallback failed: {error}")
        return None
    outcome.notes.append(
        f"migration: moved {first!r} to the spare site"
        f" ({report.documents_moved} documents)"
    )
    return report


def _run_query(
    partix: Partix,
    index: int,
    query: str,
    outcome: CaseOutcome,
    modes: Sequence[str],
) -> dict[str, PartixResult]:
    """Run one query through every configuration; returns the successful
    fragmented results keyed by mode (empty on error paths)."""
    central_text, central_error = _attempt(
        lambda: partix.execute_centralized(query, CENTRAL_SITE).result_text
    )
    by_mode: dict[str, str] = {}
    results_by_mode: dict[str, PartixResult] = {}
    for mode in modes:
        result, error = _attempt(
            lambda mode=mode: partix.execute(
                query, collection="Cfuzz", execution_mode=mode
            )
        )
        text = result.result_text if result is not None else None
        if (error is None) != (central_error is None) or (
            error is not None
            and central_error is not None
            and type(error) is not type(central_error)
        ):
            outcome.mismatches.append(
                Mismatch(
                    kind="error",
                    detail=(
                        f"asymmetric failure in mode {mode!r}:"
                        f" centralized {central_error!r},"
                        f" fragmented {error!r}"
                    ),
                    query_index=index,
                    query=query,
                )
            )
            return {}
        if text is not None:
            by_mode[mode] = text
            results_by_mode[mode] = result

    if central_error is not None:
        # Same error everywhere: consistent, but nothing to compare.
        outcome.queries_skipped += 1
        outcome.notes.append(
            f"query {index} raises {type(central_error).__name__} in all"
            " configurations"
        )
        return {}

    outcome.queries_run += 1
    _check_accessor(partix, query, central_text, outcome, index)
    plan = partix.explain(query, "Cfuzz")
    outcome.composition_kinds[plan.composition.kind] += 1
    outcome.fetch_projections.update(_fetch_projections(plan))
    outcome.summary_pruned += len(plan.summary_pruned)
    outcome.semijoin_plans += bool(plan.key_lanes)
    branch = _hybrid_branch(partix, plan)
    if branch is not None:
        outcome.hybrid_plans[branch] += 1
    analysis = analyze_query(parse_query(query))
    outcome.whole_design_fetches += _fetches_unread_fragment(
        partix, analysis, plan
    )
    outcome.index_oracle["existence_conditions"] += sum(
        isinstance(atom, (Exists, Empty)) for atom in atoms(analysis.predicate)
    )
    for result in results_by_mode.values():
        for execution in result.round.executions:
            outcome.index_oracle["index_lookups"] += (
                execution.result.index_lookups
            )
            if execution.chunked_bytes:
                outcome.reply_forms["chunked"] += 1
            elif execution.on_wire:
                outcome.reply_forms["inline"] += 1
    _check_plan_equivalence(partix, query, plan, outcome, index)
    _check_plan_order(partix, results_by_mode, outcome, index, query)

    reference_mode = modes[0]
    simulated = by_mode[reference_mode]
    for mode in modes[1:]:
        outcome.comparisons += 1
        if by_mode[mode] != simulated:
            outcome.mismatches.append(
                Mismatch(
                    kind="mode",
                    detail=(
                        f"{reference_mode} vs {mode} answers differ;"
                        f" {_diff_snippet(simulated, by_mode[mode])}"
                    ),
                    query_index=index,
                    query=query,
                )
            )

    outcome.comparisons += 1
    byte_strict = (
        plan.composition.kind in ("aggregate", "reconstruct")
        or len(plan.lanes) <= 1
    )
    if byte_strict:
        matches = simulated == central_text
    else:
        matches = _signature(simulated) == _signature(central_text)
    if not matches:
        policy = "byte-identical" if byte_strict else "line-multiset"
        outcome.mismatches.append(
            Mismatch(
                kind="answer",
                detail=(
                    f"centralized vs fragmented ({policy},"
                    f" composition={plan.composition.kind},"
                    f" lanes={len(plan.lanes)});"
                    f" {_diff_snippet(central_text, simulated)}"
                ),
                query_index=index,
                query=query,
            )
        )
    return results_by_mode


def _check_accessor(
    partix: Partix,
    query: str,
    central_text: str,
    outcome: CaseOutcome,
    index: int,
) -> None:
    """Table-vs-DOM: the centralized answer (evaluated on the node tables)
    against :func:`evaluate_on_dom` over the same site's documents."""
    outcome.comparisons += 1
    dom_text, dom_error = _attempt(
        lambda: evaluate_on_dom(
            partix.cluster.site(CENTRAL_SITE).driver.engine, query
        )
    )
    if dom_text != central_text:
        detail = (
            repr(dom_error)
            if dom_error is not None
            else _diff_snippet(central_text, dom_text)
        )
        outcome.mismatches.append(
            Mismatch(
                kind="accessor",
                detail="node tables vs decoded DOM (centralized): " + detail,
                query_index=index,
                query=query,
            )
        )


def _is_noncanonical_numeral(value: str) -> bool:
    number = as_number(value)
    return number is not None and value != atomic_to_string(number)


def _check_plan_equivalence(
    partix: Partix,
    query: str,
    plan,
    outcome: CaseOutcome,
    index: int,
) -> None:
    """Planning must be deterministic and explain must round-trip.

    Two independent ``explain`` calls have to render the identical
    physical plan (lowering is pure given the catalog), and the rendered
    plan must survive ``to_dict`` → JSON → ``plan_from_dict``.
    """
    rendered = plan.render()
    replanned = partix.explain(query, "Cfuzz")
    if replanned.render() != rendered:
        outcome.mismatches.append(
            Mismatch(
                kind="plan",
                detail=(
                    "planning is nondeterministic: two explain calls"
                    f" rendered different plans; {_diff_snippet(rendered, replanned.render())}"
                ),
                query_index=index,
                query=query,
            )
        )
    roundtripped = plan_from_dict(json.loads(json.dumps(plan.to_dict())))
    if roundtripped.render() != rendered:
        outcome.mismatches.append(
            Mismatch(
                kind="plan",
                detail=(
                    "explain does not round-trip through its serialized"
                    f" form; {_diff_snippet(rendered, roundtripped.render())}"
                ),
                query_index=index,
                query=query,
            )
        )


def _check_plan_order(
    partix: Partix,
    results_by_mode: dict,
    outcome: CaseOutcome,
    index: int,
    query: str,
) -> None:
    """The plan-order composition contract, checked directly.

    A concat answer must equal the plan-order composition of the round's
    own per-lane partial results. Every mode runs through the same plan
    executor, so a dispatcher that mis-aligns completions corrupts all
    modes identically — cross-mode comparison alone can no longer see
    it. The reference ordering is recovered from each execution's own
    ``fragment`` (stamped by the transport from the sub-query itself),
    never from list positions, so a merely reordered completion log stays
    benign while a mis-*aligned* one is caught.
    """
    for mode, result in results_by_mode.items():
        plan = result.plan
        if (
            plan is None
            or plan.composition.kind != "concat"
            or len(plan.lanes) <= 1
        ):
            continue  # (a semi-join answers through one lane)
        position = {
            subquery.fragment: order
            for order, subquery in enumerate(plan.subqueries)
        }
        ordered = sorted(
            result.round.executions,
            key=lambda execution: position.get(
                execution.fragment, len(position)
            ),
        )
        expected = partix.composer.compose(
            plan.composition,
            [
                (None, execution.result.result_text)
                for execution in ordered
            ],
        ).result_text
        if result.result_text != expected:
            outcome.mismatches.append(
                Mismatch(
                    kind="mode",
                    detail=(
                        f"mode {mode!r} composed answer does not follow"
                        f" plan order; {_diff_snippet(expected, result.result_text)}"
                    ),
                    query_index=index,
                    query=query,
                )
            )


def _attempt(thunk: Callable[[], Any]) -> tuple[Any, Optional[Exception]]:
    try:
        return thunk(), None
    except Exception as error:  # noqa: BLE001 — the oracle compares failures
        return None, error


def run_fuzz(
    seed: int,
    iterations: int,
    minimize: bool = True,
    repro_dir: Optional[str] = None,
    partix_factory: Optional[Callable[[Cluster], Partix]] = None,
    max_failures: int = 5,
    modes: Sequence[str] = EXECUTION_MODES,
    kill_site: bool = False,
    migrate: bool = False,
) -> dict:
    """Run the full differential session; returns a JSON-able summary.

    Stops early once ``max_failures`` distinct failing cases have been
    collected (each one is expensive: it triggers minimization and a
    written reproducer when ``repro_dir`` is set). ``kill_site`` runs
    every case through the failover oracle, ``migrate`` through the
    online-rebalancing oracle (see :func:`run_case`).
    """
    summary: dict = {
        "seed": seed,
        "iterations": iterations,
        "execution_modes": list(modes),
        "kill_site": kill_site,
        "migrate": migrate,
        "migrations_completed": 0,
        "cases": 0,
        "queries_run": 0,
        "queries_skipped": 0,
        "comparisons": 0,
        "families": {},
        "composition_kinds": {},
        "fetch_projections": {},
        "index_oracle": {},
        "summary_pruned": 0,
        "semijoin_plans": 0,
        "whole_design_fetches": 0,
        "hybrid_plans": {"units": 0, "remainder": 0, "reconstruct": 0},
        "reply_forms": {"inline": 0, "chunked": 0},
        "failures": [],
        "ok": True,
    }
    families: Counter = Counter()
    kinds: Counter = Counter()
    projections: Counter = Counter()
    index_oracle: Counter = Counter()
    reply_forms: Counter = Counter(summary["reply_forms"])
    hybrid_plans: Counter = Counter(summary["hybrid_plans"])
    for iteration in range(iterations):
        spec = spec_for_iteration(seed, iteration)
        outcome = run_case(
            spec,
            partix_factory=partix_factory,
            modes=modes,
            kill_site=kill_site,
            migrate=migrate,
        )
        if migrate and not any(
            m.kind == "migrate" for m in outcome.mismatches
        ):
            summary["migrations_completed"] += 1
        summary["cases"] += 1
        summary["queries_run"] += outcome.queries_run
        summary["queries_skipped"] += outcome.queries_skipped
        summary["comparisons"] += outcome.comparisons
        families[spec.family] += 1
        kinds.update(outcome.composition_kinds)
        projections.update(outcome.fetch_projections)
        index_oracle.update(outcome.index_oracle)
        reply_forms.update(outcome.reply_forms)
        hybrid_plans.update(outcome.hybrid_plans)
        summary["summary_pruned"] += outcome.summary_pruned
        summary["semijoin_plans"] += outcome.semijoin_plans
        summary["whole_design_fetches"] += outcome.whole_design_fetches
        if outcome.ok:
            continue
        summary["ok"] = False
        failure: dict = {"iteration": iteration, **outcome.to_dict()}
        if minimize or repro_dir is not None:
            from repro.fuzz.minimize import minimize_spec, write_repro

            minimized = (
                minimize_spec(
                    spec,
                    outcome,
                    partix_factory=partix_factory,
                    modes=modes,
                    kill_site=kill_site,
                    migrate=migrate,
                )
                if minimize
                else outcome
            )
            failure["minimized"] = minimized.to_dict()
            if repro_dir is not None:
                failure["repro_path"] = write_repro(minimized, repro_dir)
        summary["failures"].append(failure)
        if len(summary["failures"]) >= max_failures:
            summary["stopped_early_at"] = iteration
            break
    summary["families"] = dict(families)
    summary["composition_kinds"] = dict(kinds)
    summary["fetch_projections"] = dict(projections)
    summary["index_oracle"] = dict(index_oracle)
    summary["reply_forms"] = dict(reply_forms)
    summary["hybrid_plans"] = dict(hybrid_plans)
    return summary
