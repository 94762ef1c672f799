"""The physical plan: lanes and node tree.

A :class:`PhysicalPlan` is what :meth:`Partix.explain` returns and what
the single plan executor runs, whatever the execution mode. It keeps the
decomposer-era surface (``subqueries`` / ``composition`` / ``notes`` /
``fragment_names``) so existing callers — the composer, the fuzz oracle,
the bench scenarios — read it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.site import staged_seconds
from repro.plan.cost import CostEstimate
from repro.plan.spec import CompositionSpec, SubQuery


@dataclass
class PlanNode:
    """One node of the physical plan tree.

    ``op`` is the node kind (``compose`` / ``union`` /
    ``merge-aggregate`` / ``id-join`` / ``partial-aggregate`` /
    ``semi-join`` / ``scan``); ``node_id`` is its
    stable identity, threaded into ``SubQueryExecution.plan_node`` so measured per-lane timings can be
    joined back to the estimates; ``detail`` carries op-specific
    attributes (fragment, site, aggregate, purpose, …) as a JSON-able
    dict.
    """

    op: str
    node_id: str
    detail: dict = field(default_factory=dict)
    estimate: Optional[CostEstimate] = None
    children: list = field(default_factory=list)


@dataclass
class Lane:
    """One physical scan assignment: plan index, node and sub-query."""

    index: int
    node_id: str
    subquery: SubQuery
    estimate: Optional[CostEstimate] = None
    #: How many replica candidates lowering chose between.
    candidates: int = 1


@dataclass
class PhysicalPlan:
    """The lowered plan the executor runs (all modes, one code path)."""

    collection: str
    root: PlanNode
    lanes: list = field(default_factory=list)
    composition: CompositionSpec = field(
        default_factory=lambda: CompositionSpec(kind="concat")
    )
    notes: list = field(default_factory=list)
    #: Horizontal fragments that got no lane because their recorded
    #: value summary proves the query's selection empty there (EXPLAIN
    #: prints them as a note of their own).
    summary_pruned: list = field(default_factory=list)
    #: Stage one of a keys-then-answer plan (the vertical semi-join):
    #: these lanes run first and answer join keys; ``lanes`` — then one
    #: template over ``px:collection`` — runs second, restricted to the
    #: keys every key lane returned. Empty for a one-round plan.
    key_lanes: list = field(default_factory=list)

    # -- decomposer-era surface ----------------------------------------
    @property
    def subqueries(self) -> list:
        """Every sub-query the plan may send, in dispatch order (key
        lanes first; the answer lane of a two-stage plan as its
        template)."""
        return [lane.subquery for lane in (*self.key_lanes, *self.lanes)]

    @property
    def fragment_names(self) -> list:
        return [subquery.fragment for subquery in self.subqueries]

    # ------------------------------------------------------------------
    @property
    def estimated_parallel_seconds(self) -> float:
        """Estimated completion: each stage's slowest site's lane budget
        (the stages run one after the other) plus the interior
        (composition-side) node costs."""
        stages = [
            [
                (lane.subquery.site, lane.estimate.total_seconds)
                for lane in lanes
                if lane.estimate is not None
            ]
            for lanes in (self.key_lanes, self.lanes)
        ]
        return staged_seconds(stages) + self._interior_cpu_seconds(self.root)

    def _interior_cpu_seconds(self, node: PlanNode) -> float:
        own = 0.0
        if (
            node.op not in ("scan", "compose", "semi-join")
            and node.estimate is not None
        ):
            own = node.estimate.cpu_seconds
        return own + sum(
            self._interior_cpu_seconds(child) for child in node.children
        )

    def estimated_lane_seconds(self) -> dict:
        """Per-lane estimated total seconds, keyed by plan node id."""
        return {
            lane.node_id: lane.estimate.total_seconds
            for lane in (*self.key_lanes, *self.lanes)
            if lane.estimate is not None
        }

    # ------------------------------------------------------------------
    def with_execution(self, streaming, chunk_bytes) -> "PhysicalPlan":
        return self  # no-op: benchmarks/e2e/tracing.py calls it

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The indented EXPLAIN tree with per-node cost estimates."""
        from repro.plan.explain import render_plan

        return render_plan(self)

    def to_dict(self) -> dict:
        from repro.plan.explain import plan_to_dict

        return plan_to_dict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PhysicalPlan":
        from repro.plan.explain import plan_from_dict

        return plan_from_dict(payload)
