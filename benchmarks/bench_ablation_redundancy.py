"""Ablation: redundancy-free resolution (Section V) on versus off.

With SHOULD-RESOLVE disabled, every shared pair is resolved in every tree
containing it — exactly the waste Section V eliminates.

Expected shape: the redundancy-free run performs strictly fewer
comparisons and finishes far sooner.  The redundant run buys a small final
recall bonus — a shared pair that falls outside the window in its
responsible tree can still surface in another family's block — which is
the same window effect behind Basic F's recall ceiling; the paper accepts
that trade for the large cost saving.
"""

from __future__ import annotations

from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec, format_table

MACHINES = 10


def test_redundancy_ablation(citeseer_dataset, citeseer_cached_matcher, report):
    def run_ablation():
        runs = {}
        for redundancy_free in (True, False):
            config = citeseer_config(
                matcher=citeseer_cached_matcher, redundancy_free=redundancy_free
            )
            label = "redundancy-free" if redundancy_free else "redundant"
            runs[redundancy_free] = ExperimentRun(
                RunSpec(citeseer_dataset, config, machines=MACHINES, label=label)
            ).run()
        return runs

    runs = run_ablation()
    rows = [
        [
            run.label,
            f"{run.final_recall:.3f}",
            f"{run.total_time:,.0f}",
            f"{run.curve.area_under(min(r.total_time for r in runs.values())):.3f}",
        ]
        for run in runs.values()
    ]
    report(
        format_table(
            ["variant", "final recall", "total time", "recall AUC"],
            rows,
            title="ablation — redundancy-free resolution (Section V)",
        )
    )

    free, redundant = runs[True], runs[False]
    assert free.total_time < redundant.total_time, (
        "skipping shared pairs must shorten the run"
    )
    # The redundant run may pick up window-missed shared pairs elsewhere,
    # so its final recall can sit slightly above — but never far below.
    assert redundant.final_recall >= free.final_recall - 0.02
    assert free.final_recall >= redundant.final_recall - 0.10
