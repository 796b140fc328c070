"""Figure 10: ours versus Basic on OL-Books, varying entities per machine.

The paper fixes the dataset (30M books) and varies the cluster size over
μ = 20, 10, 5, i.e. θ = 1.5M, 3M, 6M entities per machine, comparing our
approach (PSNM) against Basic with popcorn thresholds 0.0005/0.005/0.05.

Expected shape (paper): our approach wins in every sub-figure and the gap
grows with θ; for the smallest θ Basic leads briefly at the start because
of our Job-1 + schedule-generation overhead, which stops mattering as the
per-machine workload grows.
"""

from __future__ import annotations

import pytest

from repro.baselines import BasicConfig
from repro.core import books_config
from repro.evaluation import (
    ExperimentRun,
    RunSpec,
    format_curves,
    sample_times,
)

MACHINE_COUNTS = [12, 6, 3]  # decreasing machines = increasing θ
THRESHOLDS = [0.0005, 0.005, 0.05]


def _gap_area(runs, horizon):
    """Mean recall lead of ours over the best Basic across the horizon."""
    ours = runs[0]
    times = sample_times(horizon, points=20)
    lead = 0.0
    for t in times:
        best_basic = max(run.curve.recall_at(t) for run in runs[1:])
        lead += ours.curve.recall_at(t) - best_basic
    return lead / len(times)


@pytest.mark.parametrize("machines", MACHINE_COUNTS)
def test_fig10(machines, books_dataset, books_cached_matcher, report):
    theta = len(books_dataset) // machines

    def run_subfigure():
        runs = [
            ExperimentRun(
                RunSpec(
                    books_dataset,
                    books_config(matcher=books_cached_matcher),
                    machines=machines,
                    label="Our Approach",
                )
            ).run()
        ]
        for threshold in THRESHOLDS:
            config = BasicConfig(
                books_config(matcher=books_cached_matcher),
                window=15,
                popcorn_threshold=threshold,
            )
            runs.append(
                ExperimentRun(
                    RunSpec(
                        books_dataset, config,
                        machines=machines, label=f"Basic {threshold}",
                    )
                ).run()
            )
        return runs

    runs = run_subfigure()
    # Anchor the x-range on our approach's run (the paper's sub-figures
    # span roughly that range); earlier-ending Basic curves flatline.
    horizon = runs[0].total_time
    times = sample_times(horizon, points=10)
    report(
        format_curves(
            runs,
            times,
            title=f"fig10 — ours vs Basic, μ={machines} (θ={theta} entities/machine)",
        )
    )

    ours, *basics = runs
    late = [t for t in times if t >= horizon * 0.4]
    for basic in basics:
        wins = sum(
            1
            for t in late
            if ours.curve.recall_at(t) >= basic.curve.recall_at(t) - 0.02
        )
        assert wins >= len(late) - 1, f"ours must dominate {basic.label} late"
    assert ours.final_recall >= max(b.final_recall for b in basics) - 0.02


def test_fig10_gap_grows_with_theta(books_dataset, books_cached_matcher, report):
    """The paper's summary claim: the ours-versus-Basic gap widens as θ
    (entities per machine) increases."""

    def measure():
        leads = {}
        for machines in MACHINE_COUNTS:
            runs = [
                ExperimentRun(
                    RunSpec(
                        books_dataset,
                        books_config(matcher=books_cached_matcher),
                        machines=machines,
                        label="ours",
                    )
                ).run()
            ]
            config = BasicConfig(
                books_config(matcher=books_cached_matcher),
                window=15,
                popcorn_threshold=0.0005,
            )
            runs.append(
                ExperimentRun(
                    RunSpec(books_dataset, config, machines=machines, label="basic")
                ).run()
            )
            leads[machines] = _gap_area(runs, runs[0].total_time)
        return leads

    leads = measure()
    report(
        "fig10 summary — mean recall lead of ours over Basic 0.0005:\n"
        + "\n".join(
            f"  μ={m:2d} (θ={len(books_dataset)//m:5d}): {leads[m]:+.3f}"
            for m in MACHINE_COUNTS
        )
    )
    # The lead at the largest θ exceeds the lead at the smallest θ.
    assert leads[MACHINE_COUNTS[-1]] >= leads[MACHINE_COUNTS[0]] - 0.02
