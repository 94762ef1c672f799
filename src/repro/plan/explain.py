"""EXPLAIN rendering and dict round-tripping of physical plans.

A physical plan is flat — lanes, key lanes, one composition — and
:func:`render_plan` is the one place its tree is spelled out: the shape
follows from ``composition.kind`` and whether there are key lanes.

The render is deterministic (the fuzz harness asserts planning twice
renders identically, and ``tests/test_plan_goldens.py`` diffs it against
checked-in snapshots), so formatting keeps to plain ``%g``-style float
formatting and raw byte counts — no locale, no rounding surprises.
"""

from __future__ import annotations

from typing import Optional

from repro.plan.cost import CostEstimate
from repro.plan.physical import Lane, PhysicalPlan
from repro.plan.spec import CompositionSpec, SubQuery


def _seconds(value: float) -> str:
    return f"{value:.6g}s"


def _estimate_text(estimate: Optional[CostEstimate]) -> str:
    if estimate is None:
        return ""
    parts = [f"docs={estimate.documents}", f"result={estimate.result_bytes}B"]
    parts.append(f"cpu={_seconds(estimate.cpu_seconds)}")
    if estimate.network_seconds:
        parts.append(f"net={_seconds(estimate.network_seconds)}")
    parts.append(f"total={_seconds(estimate.total_seconds)}")
    return "  est[" + " ".join(parts) + "]"


def _scan_line(lane: Lane, restricted: bool) -> str:
    subquery = lane.subquery
    label = f"scan {subquery.fragment} @ {subquery.site}/{subquery.collection}"
    if subquery.purpose in ("fetch", "keys"):
        label += f" purpose={subquery.purpose}"
    if lane.project is not None:
        label += f" project=[{', '.join(lane.project)}]"
    if restricted:
        label += " restricted"
    if lane.candidates > 1:
        label += f" candidates={lane.candidates}"
    return label + _estimate_text(lane.estimate)


def _tree(plan: PhysicalPlan) -> tuple:
    """The plan's shape as ``(line, children)``, drawn from
    ``composition.kind`` and the key lanes: ``compose`` over the
    composition step (``union`` / ``merge-aggregate`` / ``id-join``) over
    one branch per answer lane. An aggregate wraps each branch in its
    ``partial-aggregate``; a keys-then-answer plan puts each answer lane
    under a ``semi-join`` node after the key lanes (stage order)."""
    composition = plan.composition
    composing = _estimate_text(plan.composition_estimate)
    keys = [(_scan_line(lane, False), []) for lane in plan.key_lanes]
    keyed = ", ".join(lane.subquery.fragment for lane in plan.key_lanes)
    branches = []
    for lane in plan.lanes:
        branch = (_scan_line(lane, bool(keys)), [])
        if keys:
            branch = (
                f"semi-join keys: {keyed} → {lane.subquery.fragment}"
                + _estimate_text(lane.estimate),
                [*keys, branch],
            )
        if composition.kind == "aggregate":
            branch = (
                f"partial-aggregate({composition.aggregate})"
                + _estimate_text(lane.estimate),
                [branch],
            )
        branches.append(branch)
    if composition.kind == "aggregate":
        step = f"merge-aggregate({composition.aggregate})"
    elif composition.kind == "reconstruct":
        step = "id-join"
        if composition.root_label:
            step += f" root={composition.root_label}"
    else:
        step = "union"
    return (
        f"compose [{composition.kind}]" + composing,
        [(step + composing, branches)],
    )


def _draw(node: tuple, connector: str, prefix: str, lines: list) -> None:
    line, children = node
    lines.append(connector + line)
    for position, child in enumerate(children):
        last = position == len(children) - 1
        _draw(
            child,
            prefix + ("└─ " if last else "├─ "),
            prefix + ("   " if last else "│  "),
            lines,
        )


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
    _draw(_tree(plan), "", "", lines)
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
def _estimate_to_dict(estimate: Optional[CostEstimate]) -> Optional[dict]:
    return estimate.to_dict() if estimate else None


def _estimate_from_dict(payload: Optional[dict]) -> Optional[CostEstimate]:
    return CostEstimate.from_dict(payload) if payload else None


def _lanes_to_dicts(lanes: list) -> list:
    entries = []
    for lane in lanes:
        entry = {
            "index": lane.index,
            "node_id": lane.node_id,
            "subquery": lane.subquery.to_dict(),
            "estimate": _estimate_to_dict(lane.estimate),
            "candidates": lane.candidates,
        }
        if lane.project is not None:
            entry["project"] = list(lane.project)
        entries.append(entry)
    return entries


def _lanes_from_dicts(entries: list) -> list:
    return [
        Lane(
            index=entry["index"],
            node_id=entry["node_id"],
            subquery=SubQuery.from_dict(entry["subquery"]),
            estimate=_estimate_from_dict(entry.get("estimate")),
            candidates=entry.get("candidates", 1),
            project=(
                tuple(entry["project"]) if "project" in entry else None
            ),
        )
        for entry in entries
    ]


def plan_to_dict(plan: PhysicalPlan) -> dict:
    payload = {
        "collection": plan.collection,
        "composition": plan.composition.to_dict(),
        "composition_estimate": _estimate_to_dict(plan.composition_estimate),
        "notes": list(plan.notes),
        "summary_pruned": list(plan.summary_pruned),
        "lanes": _lanes_to_dicts(plan.lanes),
    }
    if plan.key_lanes:
        payload["key_lanes"] = _lanes_to_dicts(plan.key_lanes)
    return payload


def plan_from_dict(payload: dict) -> PhysicalPlan:
    """Rebuild a plan from :func:`plan_to_dict`'s form. Known keys only
    are read, so a stored plan that still carries keys of an older
    version (``streaming``, ``chunk_bytes``, the node tree under
    ``root``) loads and they are ignored."""
    return PhysicalPlan(
        collection=payload["collection"],
        lanes=_lanes_from_dicts(payload.get("lanes", [])),
        composition=CompositionSpec.from_dict(payload["composition"]),
        composition_estimate=_estimate_from_dict(
            payload.get("composition_estimate")
        ),
        notes=list(payload.get("notes", [])),
        summary_pruned=list(payload.get("summary_pruned", [])),
        key_lanes=_lanes_from_dicts(payload.get("key_lanes", [])),
    )
