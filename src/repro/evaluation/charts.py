"""ASCII chart rendering for recall curves.

The paper's figures are recall-versus-time line plots; this module renders
the same curves in plain text so examples and benchmark reports can show
shape, not just samples — with no plotting dependency.
"""

from __future__ import annotations

from typing import List, Sequence

from .experiment import RunResult

#: Plot symbols assigned to curves in order.
_SYMBOLS = "o*x+#@%&"


def ascii_chart(
    runs: Sequence[RunResult],
    *,
    width: int = 72,
    height: int = 18,
    horizon: float | None = None,
    title: str = "",
) -> str:
    """Render recall curves as an ASCII chart.

    Args:
        runs: labeled curves (at most eight).
        width: plot-area columns (x = time).
        height: plot-area rows (y = recall 0..1).
        horizon: x-axis range; default: the shortest run's end.
        title: optional heading.

    Returns:
        the chart with y labels, x label, and a legend.
    """
    if not runs:
        raise ValueError("need at least one curve")
    if len(runs) > len(_SYMBOLS):
        raise ValueError(f"at most {len(_SYMBOLS)} curves, got {len(runs)}")
    if width < 10 or height < 4:
        raise ValueError("chart too small to be readable")
    end = horizon if horizon is not None else min(r.total_time for r in runs)
    if end <= 0:
        raise ValueError("horizon must be positive")

    grid: List[List[str]] = [[" "] * width for _ in range(height)]
    for run, symbol in zip(runs, _SYMBOLS):
        for column in range(width):
            t = end * (column + 1) / width
            recall = run.curve.recall_at(t)
            row = height - 1 - min(height - 1, int(recall * (height - 1) + 0.5))
            if grid[row][column] == " ":
                grid[row][column] = symbol

    lines: List[str] = []
    if title:
        lines.append(title)
    for index, row in enumerate(grid):
        y_value = 1.0 - index / (height - 1)
        label = f"{y_value:4.2f} |" if index % 3 == 0 or index == height - 1 else "     |"
        lines.append(label + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      0{' ' * (width - 12)}t={end:,.0f}")
    legend = "  ".join(
        f"{symbol}={run.label}" for run, symbol in zip(runs, _SYMBOLS)
    )
    lines.append("      " + legend)
    return "\n".join(lines)


__all__ = ["ascii_chart"]
