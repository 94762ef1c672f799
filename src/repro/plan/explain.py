"""EXPLAIN rendering and dict round-tripping of physical plans.

The render is deterministic (the fuzz harness asserts planning twice
renders identically, and the ``plan-golden`` CI job diffs it against
checked-in snapshots), so formatting keeps to plain ``%g``-style float
formatting and raw byte counts — no locale, no rounding surprises.
"""

from __future__ import annotations

from typing import Optional

from repro.plan.cost import CostEstimate
from repro.plan.physical import Lane, PhysicalPlan, PlanNode
from repro.plan.spec import CompositionSpec, SubQuery


def _seconds(value: float) -> str:
    return f"{value:.6g}s"


def _estimate_text(op: str, estimate: Optional[CostEstimate]) -> str:
    if estimate is None:
        return ""
    parts = [f"docs={estimate.documents}", f"result={estimate.result_bytes}B"]
    parts.append(f"cpu={_seconds(estimate.cpu_seconds)}")
    if estimate.network_seconds:
        parts.append(f"net={_seconds(estimate.network_seconds)}")
    parts.append(f"total={_seconds(estimate.total_seconds)}")
    return "  est[" + " ".join(parts) + "]"


def _node_label(node: PlanNode) -> str:
    detail = node.detail
    if node.op == "scan":
        label = (
            f"{node.op} {detail.get('fragment')}"
            f" @ {detail.get('site')}/{detail.get('collection')}"
        )
        if detail.get("purpose") in ("fetch", "keys"):
            label += f" purpose={detail.get('purpose')}"
        project = detail.get("project")
        if project is not None:
            label += f" project=[{', '.join(project)}]"
        if detail.get("restricted"):
            label += " restricted"
        candidates = detail.get("candidates", 1)
        if candidates > 1:
            label += f" candidates={candidates}"
        return label
    if node.op in ("partial-aggregate", "merge-aggregate"):
        return f"{node.op}({detail.get('aggregate')})"
    if node.op == "id-join":
        label = "id-join"
        if detail.get("root_label"):
            label += f" root={detail.get('root_label')}"
        return label
    if node.op == "semi-join":
        # The children are in stage order: the key scans, then the scan
        # restricted to the origins every one of them returned.
        return (
            f"semi-join keys: {', '.join(detail.get('keys', []))}"
            f" → {detail.get('answer')}"
        )
    if node.op == "compose":
        return f"compose [{detail.get('kind')}]"
    return node.op


def render_plan(plan: PhysicalPlan) -> str:
    """Render ``plan`` as an indented tree with per-node estimates."""
    header = (
        f"PhysicalPlan collection={plan.collection}"
        f" composition={plan.composition.kind}"
        f" lanes={len(plan.key_lanes) + len(plan.lanes)}"
        + (" stages=2" if plan.key_lanes else "")
        + f" est-parallel={_seconds(plan.estimated_parallel_seconds)}"
    )
    lines = [header]

    def walk(node: PlanNode, prefix: str, is_last: bool, is_root: bool):
        if is_root:
            connector, child_prefix = "", ""
        else:
            connector = prefix + ("└─ " if is_last else "├─ ")
            child_prefix = prefix + ("   " if is_last else "│  ")
        lines.append(
            connector + _node_label(node) + _estimate_text(node.op, node.estimate)
        )
        for position, child in enumerate(node.children):
            walk(
                child,
                child_prefix,
                position == len(node.children) - 1,
                False,
            )

    walk(plan.root, "", True, True)
    for note in plan.notes:
        lines.append(f"note: {note}")
    if plan.summary_pruned:
        lines.append(
            "note: pruned fragments (value summary): "
            + ", ".join(plan.summary_pruned)
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Dict round-tripping (mirrors repro.partix.serialization's idiom)
# ----------------------------------------------------------------------
def _node_to_dict(node: PlanNode) -> dict:
    return {
        "op": node.op,
        "node_id": node.node_id,
        "detail": dict(node.detail),
        "estimate": node.estimate.to_dict() if node.estimate else None,
        "children": [_node_to_dict(child) for child in node.children],
    }


def _node_from_dict(payload: dict) -> PlanNode:
    estimate = payload.get("estimate")
    return PlanNode(
        op=payload["op"],
        node_id=payload["node_id"],
        detail=dict(payload.get("detail", {})),
        estimate=CostEstimate.from_dict(estimate) if estimate else None,
        children=[
            _node_from_dict(child) for child in payload.get("children", [])
        ],
    )


def _lanes_to_dicts(lanes: list) -> list:
    return [
        {
            "index": lane.index,
            "node_id": lane.node_id,
            "subquery": lane.subquery.to_dict(),
            "estimate": lane.estimate.to_dict() if lane.estimate else None,
            "candidates": lane.candidates,
        }
        for lane in lanes
    ]


def _lanes_from_dicts(entries: list) -> list:
    lanes = []
    for entry in entries:
        estimate = entry.get("estimate")
        lanes.append(
            Lane(
                index=entry["index"],
                node_id=entry["node_id"],
                subquery=SubQuery.from_dict(entry["subquery"]),
                estimate=CostEstimate.from_dict(estimate) if estimate else None,
                candidates=entry.get("candidates", 1),
            )
        )
    return lanes


def plan_to_dict(plan: PhysicalPlan) -> dict:
    payload = {
        "collection": plan.collection,
        "composition": plan.composition.to_dict(),
        "notes": list(plan.notes),
        "summary_pruned": list(plan.summary_pruned),
        "lanes": _lanes_to_dicts(plan.lanes),
        "root": _node_to_dict(plan.root),
    }
    if plan.key_lanes:
        payload["key_lanes"] = _lanes_to_dicts(plan.key_lanes)
    return payload


def plan_from_dict(payload: dict) -> PhysicalPlan:
    """Rebuild a plan from :func:`plan_to_dict`'s form. Known keys only
    are read, so a stored plan that still carries keys of an older
    version (``streaming``, ``chunk_bytes``) loads and they are ignored."""
    return PhysicalPlan(
        collection=payload["collection"],
        root=_node_from_dict(payload["root"]),
        lanes=_lanes_from_dicts(payload.get("lanes", [])),
        composition=CompositionSpec.from_dict(payload["composition"]),
        notes=list(payload.get("notes", [])),
        summary_pruned=list(payload.get("summary_pruned", [])),
        key_lanes=_lanes_from_dicts(payload.get("key_lanes", [])),
    )
