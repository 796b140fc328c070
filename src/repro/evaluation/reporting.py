"""ASCII reporting: the benchmarks print the same rows/series the paper's
tables and figures show."""

from __future__ import annotations

from typing import List, Sequence

from .experiment import RunResult


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], *, title: str = ""
) -> str:
    """Render a fixed-width ASCII table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_curves(
    runs: Sequence[RunResult], times: Sequence[float], *, title: str = ""
) -> str:
    """Render several recall curves sampled at common times — the textual
    equivalent of one sub-figure of the paper."""
    headers = ["time"] + [run.label for run in runs]
    rows: List[List[object]] = []
    for t in times:
        row: List[object] = [f"{t:.0f}"]
        for run in runs:
            row.append(f"{run.curve.recall_at(t):.3f}")
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_final_summary(runs: Sequence[RunResult], *, title: str = "") -> str:
    """Final recall and total time per run (Table III shape)."""
    headers = ["approach", "final recall", "total time"]
    rows = [
        [run.label, f"{run.final_recall:.3f}", f"{run.total_time:.0f}"]
        for run in runs
    ]
    return format_table(headers, rows, title=title)


def format_fault_summary(runs: Sequence[RunResult], *, title: str = "") -> str:
    """Aggregate ``fault.*`` counters per run as an ASCII table.

    Returns an empty string when no run recorded any fault activity (the
    engine only writes ``fault.*`` counters for non-zero values), so
    callers can print the summary unconditionally without polluting
    fault-free output.
    """
    names: List[str] = []
    totals: List[dict] = []
    for run in runs:
        merged: dict = {}
        for job in run.result.jobs:
            for (group, name), value in job.counters.items():
                if group != "fault":
                    continue
                # Collapse the per-phase split: "map_retries" and
                # "reduce_retries" roll up into one "retries" column.
                metric = name.split("_", 1)[1]
                merged[metric] = merged.get(metric, 0) + value
        totals.append(merged)
        for metric in merged:
            if metric not in names:
                names.append(metric)
    if not any(totals):
        return ""
    names.sort()
    headers = ["approach"] + names
    rows = [
        [run.label] + [str(merged.get(metric, 0)) for metric in names]
        for run, merged in zip(runs, totals)
    ]
    return format_table(headers, rows, title=title or "fault injection")


__all__ = [
    "format_table",
    "format_curves",
    "format_final_summary",
    "format_fault_summary",
]
