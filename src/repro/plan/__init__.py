"""Explicit query-plan IR: plan → lower → execute.

The paper's §3.3 methodology is plan-shaped — localize the global query
onto fragments, run the sub-queries in parallel, recompose — and this
package materializes that plan instead of leaving it implicit in the
decomposer/middleware control flow. A plan, logical or physical, is its
scans plus its composition (the ``CompositionSpec``: union, merge of
partial aggregates, or ID-join reconstruction); neither layer keeps a
node tree, and only EXPLAIN draws one.

* :mod:`repro.plan.logical` — the logical plan the decomposer emits:
  ``FragmentScan`` records (one per relevant fragment, carrying one
  ``SubQueryTarget`` candidate per replica), optional key scans, and
  the composition.
* :mod:`repro.plan.cost` — the cost model: catalog fragment statistics
  (documents / bytes, recorded at publish time) combined with the
  :class:`~repro.cluster.network.NetworkModel`.
* :mod:`repro.plan.lower` — lowering to a :class:`PhysicalPlan`: one
  *lane* per scan with cost-based site/replica selection, stage by
  stage, and the composition priced once.
* :mod:`repro.plan.explain` — the indented ``EXPLAIN`` tree drawn from
  the composition kind, with per-node cost estimates, plus dict
  round-tripping.
* :mod:`repro.plan.cache` — a bounded LRU of *logical* plans keyed on
  ``(query, collection, catalog_version)``; hits re-lower against the
  live site health, so cached queries still avoid ejected sites.
* :mod:`repro.plan.executor` — the single plan-driven executor every
  execution mode runs through (modes are Transport choices, nothing
  more), and the :class:`ExecutionMode` parser.
"""

from repro.plan.cache import PlanCache
from repro.plan.cost import CostEstimate, CostModel
from repro.plan.executor import ExecutedPlan, ExecutionMode, PlanExecutor
from repro.plan.explain import plan_from_dict, plan_to_dict, render_plan
from repro.plan.logical import FragmentScan, LogicalPlan
from repro.plan.lower import lower
from repro.plan.physical import Lane, PhysicalPlan
from repro.plan.spec import CompositionSpec, SubQuery

__all__ = [
    "CompositionSpec",
    "CostEstimate",
    "CostModel",
    "ExecutedPlan",
    "ExecutionMode",
    "FragmentScan",
    "Lane",
    "LogicalPlan",
    "PhysicalPlan",
    "PlanCache",
    "PlanExecutor",
    "SubQuery",
    "lower",
    "plan_from_dict",
    "plan_to_dict",
    "render_plan",
]
