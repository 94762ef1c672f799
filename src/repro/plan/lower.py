"""Lowering: logical plan → physical plan.

Lowering makes the two decisions the logical plan left open:

* **site/replica selection** — each :class:`FragmentScan` offers one
  candidate per replica; lowering greedily assigns the scan to the
  candidate minimizing the site's *projected busy time* (current lane
  budget + this scan's cost estimate). With uniform statistics this
  degenerates to the classic least-loaded-by-count spread (ties break by
  assigned-lane count, then catalog order, primary first); with skewed
  statistics a large fragment no longer lands on an already-busy site
  just because counts matched. When a shared
  :class:`~repro.cluster.health.SiteHealth` tracker is supplied,
  candidates at *ejected* sites are skipped (noted on the plan) unless
  every replica of the fragment is ejected — new plans stop routing
  scans to a site the dispatcher has declared dead. The candidates the
  scheduler did *not* choose ride along on the emitted
  :class:`~repro.plan.spec.SubQuery` as failover ``replicas`` so the
  dispatcher can rotate to them at retry time.
  A keys-then-answer plan is scheduled stage by stage: the key lanes
  share one budget, the answer lane starts from idle sites (the stages
  never overlap).
* **cost annotation** — every physical node carries a
  :class:`~repro.plan.cost.CostEstimate`, so EXPLAIN can render the tree
  with per-node costs and measured per-lane timings can be compared
  against the estimates.
"""

from __future__ import annotations

from typing import Optional

from repro.plan.cost import CostModel
from repro.plan.logical import (
    Compose,
    FragmentScan,
    IdJoin,
    LogicalPlan,
    MergeAggregate,
    PartialAggregate,
    ScanCandidate,
    Union,
)
from repro.plan.physical import Lane, PhysicalPlan, PlanNode
from repro.plan.spec import CompositionSpec, SubQuery, SubQueryTarget


class _LaneScheduler:
    """Greedy cost-based assignment of scans to replica sites."""

    def __init__(self, model: CostModel, collection: str, site_health=None):
        self.model = model
        self.collection = collection
        self.site_health = site_health
        self.busy: dict = {}
        self.counts: dict = {}
        #: Ejected sites whose candidates were skipped (for plan notes).
        self.avoided_sites: set = set()

    def _eligible(self, scan: FragmentScan):
        """The scan's candidates minus ejected sites — unless *every*
        replica is ejected, in which case all stay eligible (a plan that
        targets a possibly-dead site still beats one with no target;
        the dispatcher's rotation and failure policy take it from
        there)."""
        if self.site_health is None:
            return list(enumerate(scan.candidates))
        eligible = []
        skipped = []
        for position, candidate in enumerate(scan.candidates):
            if self.site_health.is_ejected(candidate.site):
                skipped.append(candidate.site)
            else:
                eligible.append((position, candidate))
        if not eligible:
            return list(enumerate(scan.candidates))
        self.avoided_sites.update(skipped)
        return eligible

    def next_stage(self) -> None:
        """Start scheduling the stage that runs after the lanes assigned
        so far: every site is idle again."""
        self.busy.clear()
        self.counts.clear()

    def assign(
        self, scan: FragmentScan, pushdown: Optional[str], restricted=False
    ):
        """Pick (candidate, estimate) for ``scan``: the eligible replica
        with the least projected busy time. A ``restricted`` scan — the
        answer stage of a semi-join — is priced as the key lookup it is.
        How a site reaches the documents (index probe or full scan) is
        the site's own setting, not a plan decision.
        """
        access = "keys" if restricted else "scan"
        best = None
        for position, candidate in self._eligible(scan):
            estimate = self.model.scan_estimate(
                self.collection,
                scan.fragment,
                candidate.site,
                candidate.query,
                purpose=scan.purpose,
                selectivity=scan.selectivity,
                pushdown=pushdown,
                access=access,
            )
            projected = self.busy.get(candidate.site, 0.0) + estimate.total_seconds
            key = (projected, self.counts.get(candidate.site, 0), position)
            if best is None or key < best[0]:
                best = (key, candidate, estimate)
        _, candidate, estimate = best
        self.busy[candidate.site] = (
            self.busy.get(candidate.site, 0.0) + estimate.total_seconds
        )
        self.counts[candidate.site] = self.counts.get(candidate.site, 0) + 1
        return candidate, estimate


def lower(
    logical: LogicalPlan,
    cost_model: Optional[CostModel] = None,
    site_health=None,
) -> PhysicalPlan:
    """Lower a logical plan to an executable physical plan.

    ``site_health``, when given, is the shared
    :class:`~repro.cluster.health.SiteHealth` tracker: candidates at
    ejected sites are avoided (see :class:`_LaneScheduler`).
    """
    model = cost_model if cost_model is not None else CostModel()
    scheduler = _LaneScheduler(model, logical.collection, site_health)
    lanes: list = []
    key_lanes: list = []
    key_nodes: list = []

    def scan_node(
        scan: FragmentScan, pushdown: Optional[str], into: list = lanes
    ) -> PlanNode:
        """Lower one scan to a lane (appended to ``into``, by default the
        answer stage) and its plan node. Under a keys-then-answer plan
        the answer scan comes back wrapped in the ``semi-join`` node
        that lists the key scans before it."""
        restricted = into is lanes and bool(key_lanes)
        candidate, estimate = scheduler.assign(
            scan, pushdown, restricted=restricted
        )
        index = len(into)
        node_id = f"{'keys' if into is key_lanes else 'scan'}{index}"
        subquery = SubQuery(
            fragment=scan.fragment,
            site=candidate.site,
            collection=candidate.stored_collection,
            query=candidate.query,
            purpose=scan.purpose,
            replicas=tuple(
                SubQueryTarget(
                    site=other.site,
                    collection=other.stored_collection,
                    query=other.query,
                )
                for other in scan.candidates
                if other.site != candidate.site
            ),
        )
        into.append(
            Lane(
                index=index,
                node_id=node_id,
                subquery=subquery,
                estimate=estimate,
                candidates=len(scan.candidates),
            )
        )
        detail = {
            "fragment": scan.fragment,
            "site": candidate.site,
            "collection": candidate.stored_collection,
            "purpose": scan.purpose,
            "selectivity": scan.selectivity,
            "candidates": len(scan.candidates),
        }
        if scan.project is not None:
            detail["project"] = list(scan.project)
        if restricted:
            detail["restricted"] = True
        node = PlanNode(
            op="scan",
            node_id=node_id,
            detail=detail,
            estimate=estimate,
        )
        if not restricted:
            return node
        return PlanNode(
            op="semi-join",
            node_id="semi-join",
            detail={
                "keys": [lane.subquery.fragment for lane in key_lanes],
                "answer": scan.fragment,
            },
            estimate=estimate,
            children=[*key_nodes, node],
        )

    for scan in logical.key_scans:
        # ("keys" sizes the reply like a pushed-down scalar: a few names)
        key_nodes.append(scan_node(scan, pushdown="keys", into=key_lanes))
    if key_lanes:
        scheduler.next_stage()

    child = logical.root.child
    if isinstance(child, MergeAggregate):
        partial_nodes = []
        for position, partial in enumerate(child.children):
            scan = scan_node(partial.child, pushdown=partial.op)
            partial_nodes.append(
                PlanNode(
                    op="partial-aggregate",
                    node_id=f"partial{position}",
                    detail={"aggregate": partial.op},
                    estimate=scan.estimate,
                    children=[scan],
                )
            )
        inner = PlanNode(
            op="merge-aggregate",
            node_id="merge",
            detail={"aggregate": child.op},
            estimate=model.merge_estimate(
                [node.estimate for node in partial_nodes]
            ),
            children=partial_nodes,
        )
    elif isinstance(child, IdJoin):
        scan_nodes = [scan_node(scan, pushdown=None) for scan in child.children]
        inner = PlanNode(
            op="id-join",
            node_id="id-join",
            detail={
                "source_collection": child.source_collection,
                "root_label": child.root_label,
            },
            estimate=model.id_join_estimate(
                [node.estimate for node in scan_nodes]
            ),
            children=scan_nodes,
        )
    elif isinstance(child, Union):
        scan_nodes = [scan_node(scan, pushdown=None) for scan in child.children]
        inner = PlanNode(
            op="union",
            node_id="union",
            detail={},
            estimate=model.union_estimate(
                [node.estimate for node in scan_nodes]
            ),
            children=scan_nodes,
        )
    else:  # pragma: no cover - the decomposer only emits the three shapes
        raise TypeError(f"cannot lower plan child {type(child).__name__}")

    root = PlanNode(
        op="compose",
        node_id="compose",
        detail={
            "kind": logical.composition.kind,
            "aggregate": logical.composition.aggregate,
        },
        estimate=inner.estimate,
        children=[inner],
    )
    notes = list(logical.notes)
    if scheduler.avoided_sites:
        avoided = ", ".join(sorted(scheduler.avoided_sites))
        notes.append(f"lowering: avoided ejected site(s) {avoided}")
    return PhysicalPlan(
        collection=logical.collection,
        root=root,
        lanes=lanes,
        composition=logical.composition,
        notes=notes,
        summary_pruned=list(logical.summary_pruned),
        key_lanes=key_lanes,
    )


def lower_annotated(
    collection: str,
    subqueries: list,
    composition: CompositionSpec,
    cost_model: Optional[CostModel] = None,
    notes: Optional[list] = None,
) -> PhysicalPlan:
    """Lower a hand-annotated sub-query list (the paper's prototype mode).

    Each sub-query already names its site, so every scan has exactly one
    candidate; lowering only contributes the tree shape and estimates.
    """
    scans = tuple(
        FragmentScan(
            fragment=subquery.fragment,
            candidates=(
                ScanCandidate(
                    site=subquery.site,
                    stored_collection=subquery.collection,
                    query=subquery.query,
                ),
            ),
            purpose=subquery.purpose,
        )
        for subquery in subqueries
    )
    if composition.kind == "aggregate":
        child = MergeAggregate(
            composition.aggregate,
            tuple(
                PartialAggregate(composition.aggregate, scan) for scan in scans
            ),
        )
    elif composition.kind == "reconstruct":
        child = IdJoin(
            composition.original_query,
            composition.source_collection,
            composition.root_label,
            scans,
        )
    else:
        child = Union(scans)
    logical = LogicalPlan(
        collection=collection,
        root=Compose(child),
        composition=composition,
        notes=list(notes) if notes else [],
    )
    return lower(logical, cost_model=cost_model)
