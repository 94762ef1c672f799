"""Plain-text tables mirroring the paper's Figure 7 panels."""

from __future__ import annotations

from typing import Sequence

from repro.bench.scenarios import ScenarioResult


def format_kv_table(title: str, rows: Sequence[tuple[str, object]]) -> str:
    """A titled, aligned label/value table (shared with the fuzz CLI)."""
    width = max((len(label) for label, _ in rows), default=0)
    lines = [title, "-" * len(title)]
    lines.extend(f"{label:<{width}}  {value}" for label, value in rows)
    return "\n".join(lines)


def format_scenario_table(result: ScenarioResult, transmission: bool = False) -> str:
    """One scenario as an aligned table (per-query rows)."""
    header = (
        f"{result.name} — paper {result.paper_mb}MB"
        f" (scaled {result.target_bytes / 1e6:.2f}MB),"
        f" {result.fragment_count} fragment(s)"
        + (" [with transmission]" if transmission else " [no transmission]")
    )
    lines = [header, "-" * len(header)]
    lines.append(
        f"{'query':<6} {'centralized':>12} {'fragmented':>12} {'speedup':>8}"
        f" {'subq':>5} {'match':>6}  description"
    )
    for run in result.runs:
        if transmission:
            central = run.centralized_total_seconds
            fragmented = run.fragmented_total_seconds
            speedup = run.speedup_with_transmission
        else:
            central = run.centralized_seconds
            fragmented = run.fragmented_seconds
            speedup = run.speedup
        lines.append(
            f"{run.qid:<6} {central * 1000:>10.1f}ms {fragmented * 1000:>10.1f}ms"
            f" {speedup:>7.2f}x {run.subqueries:>5}"
            f" {'ok' if run.results_match else 'DIFF':>6}  {run.description}"
        )
    return "\n".join(lines)


def format_speedup_series(
    results: list[ScenarioResult], qid: str, transmission: bool = False
) -> str:
    """One query's speedup across fragment counts (a Fig. 7 bar group)."""
    lines = [f"speedup of {qid} vs fragment count"]
    for result in results:
        run = result.run_by_id(qid)
        speedup = (
            run.speedup_with_transmission if transmission else run.speedup
        )
        lines.append(
            f"  {result.fragment_count} fragments: {speedup:6.2f}x"
            f" (centralized {run.centralized_seconds * 1000:.1f}ms,"
            f" fragmented {run.fragmented_seconds * 1000:.1f}ms)"
        )
    return "\n".join(lines)


def summarize_wins(result: ScenarioResult, transmission: bool = False) -> dict:
    """Aggregate view: how many queries win/lose under fragmentation."""
    wins = losses = ties = 0
    best = (None, 0.0)
    for run in result.runs:
        speedup = run.speedup_with_transmission if transmission else run.speedup
        if speedup > 1.1:
            wins += 1
        elif speedup < 0.9:
            losses += 1
        else:
            ties += 1
        if speedup > best[1]:
            best = (run.qid, speedup)
    return {
        "wins": wins,
        "losses": losses,
        "ties": ties,
        "best_query": best[0],
        "best_speedup": best[1],
    }
