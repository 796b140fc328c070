"""Figure 11: recall speedup of our approach versus cluster size.

The paper runs OL-Books on μ = 5..25 machines and reports, for recall
levels 0.1..0.9, the ratio between the time the 5-machine run needs to
reach that recall and the time the μ-machine run needs.

Expected shape (paper): speedup grows with μ, and higher recall levels
speed up better than lower ones — the constant Job-1 + schedule-generation
overhead dominates the early part of every run and does not shrink with
the cluster.
"""

from __future__ import annotations

from repro.core import books_config
from repro.evaluation import ExperimentRun, RunSpec, format_table, recall_speedup

MACHINE_COUNTS = [5, 10, 15, 20, 25]
RECALL_LEVELS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_fig11(books_dataset, books_cached_matcher, report):
    config = books_config(matcher=books_cached_matcher)
    curves = {
        machines: ExperimentRun(RunSpec(books_dataset, config, machines=machines))
        .run()
        .curve
        for machines in MACHINE_COUNTS
    }
    base = curves[MACHINE_COUNTS[0]]
    # Only recall levels every run actually reaches are comparable (the
    # matcher ceiling caps final recall just above 0.9 at this scale).
    reachable = min(curve.final_recall for curve in curves.values())
    levels = [r for r in RECALL_LEVELS if r <= reachable]

    rows = []
    speedups = {}
    for recall in levels:
        row = [f"{recall:.1f}"]
        for machines in MACHINE_COUNTS[1:]:
            s = recall_speedup(base, curves[machines], recall)
            speedups[(recall, machines)] = s
            row.append("n/a" if s is None else f"{s:.2f}")
        rows.append(row)
    report(
        format_table(
            ["recall"] + [f"μ={m}" for m in MACHINE_COUNTS[1:]],
            rows,
            title="fig11 — recall speedup relative to 5 machines",
        )
    )

    # High recall levels scale better than low ones (the paper's claim).
    top = max(MACHINE_COUNTS)
    highest_level = max(levels)
    high = speedups[(highest_level, top)]
    low = speedups[(levels[0], top)]
    assert high is not None and low is not None
    assert high >= low, "high recall must speed up at least as well as low"
    # Adding machines helps at high recall.
    mid = speedups[(highest_level, 15)]
    assert mid is not None and mid > 1.0
