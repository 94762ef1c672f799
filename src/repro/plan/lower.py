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
* **cost annotation** — every lane carries a
  :class:`~repro.plan.cost.CostEstimate`, and the composition is priced
  once (:meth:`~repro.plan.cost.CostModel.composition_estimate`), so
  EXPLAIN can draw the tree with per-node costs and measured per-lane
  timings can be compared against the estimates.

Nothing else: the plan's shape is its ``composition.kind`` and whether
it has key lanes, and only EXPLAIN spells that shape out as a tree.
"""

from __future__ import annotations

from typing import Optional

from repro.plan.cost import CostModel
from repro.plan.logical import FragmentScan, LogicalPlan
from repro.plan.physical import Lane, PhysicalPlan
from repro.plan.spec import SubQuery


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
        the dispatcher's replica rotation takes it from there)."""
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

    def lanes(
        self,
        scans,
        prefix: str,
        pushdown: Optional[str],
        restricted: bool = False,
    ) -> list:
        """One stage's lanes (ids ``{prefix}{i}``): each scan at its
        chosen candidate, the others kept as failover ``replicas``."""
        lanes = []
        for index, scan in enumerate(scans):
            candidate, estimate = self.assign(scan, pushdown, restricted)
            subquery = SubQuery(
                fragment=scan.fragment,
                site=candidate.site,
                collection=candidate.collection,
                query=candidate.query,
                purpose=scan.purpose,
                replicas=tuple(
                    other
                    for other in scan.candidates
                    if other.site != candidate.site
                ),
            )
            lanes.append(
                Lane(
                    index=index,
                    node_id=f"{prefix}{index}",
                    subquery=subquery,
                    estimate=estimate,
                    candidates=len(scan.candidates),
                    project=scan.project,
                )
            )
        return lanes


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
    # ("keys" sizes the reply like a pushed-down scalar: a few names)
    key_lanes = scheduler.lanes(logical.key_scans, "keys", pushdown="keys")
    if key_lanes:
        scheduler.next_stage()
    composition = logical.composition
    lanes = scheduler.lanes(
        logical.scans,
        "scan",
        pushdown=composition.aggregate if composition.kind == "aggregate" else None,
        restricted=bool(key_lanes),
    )
    notes = list(logical.notes)
    if scheduler.avoided_sites:
        avoided = ", ".join(sorted(scheduler.avoided_sites))
        notes.append(f"lowering: avoided ejected site(s) {avoided}")
    return PhysicalPlan(
        collection=logical.collection,
        lanes=lanes,
        composition=composition,
        composition_estimate=model.composition_estimate(
            composition.kind, [lane.estimate for lane in lanes]
        ),
        notes=notes,
        summary_pruned=list(logical.summary_pruned),
        key_lanes=key_lanes,
    )
