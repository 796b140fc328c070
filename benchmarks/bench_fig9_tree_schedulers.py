"""Figure 9: our tree scheduler versus NoSplit and LPT, varying machines.

The paper compares the three tree-schedule generators (block schedules are
identical — utility order) at μ = 10, 15, 20 machines.

Expected shape (paper): our algorithm's curve is on top; the tree-split
mechanism is the difference between ours and NoSplit, and the gap grows
with the number of machines (more tasks are starved when a hot overflowed
tree cannot be split).  At simulator scale NoSplit and LPT are close to
each other (the paper's dataset has many more trees per task; see
EXPERIMENTS.md), so the asserted claim is ours ≥ both.
"""

from __future__ import annotations

import pytest

from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec, format_curves, sample_times

MACHINE_COUNTS = [10, 15, 20]


@pytest.mark.parametrize("machines", MACHINE_COUNTS)
def test_fig9(machines, citeseer_dataset, citeseer_cached_matcher, report):
    config = citeseer_config(matcher=citeseer_cached_matcher)

    def run_subfigure():
        return {
            strategy: ExperimentRun(
                RunSpec(
                    citeseer_dataset,
                    config,
                    machines=machines,
                    strategy=strategy,
                    label=label,
                )
            ).run()
            for strategy, label in (
                ("ours", "Our Algorithm"),
                ("nosplit", "NoSplit"),
                ("lpt", "LPT"),
            )
        }

    runs = run_subfigure()
    horizon = min(run.total_time for run in runs.values())
    times = sample_times(horizon, points=10)
    report(
        format_curves(
            list(runs.values()),
            times,
            title=f"fig9 — tree schedulers, μ={machines}",
        )
    )

    ours = runs["ours"]
    # Our scheduler leads both baselines over the bulk of the horizon.
    late = [t for t in times if t >= horizon * 0.3]
    for name in ("nosplit", "lpt"):
        other = runs[name]
        wins = sum(
            1
            for t in late
            if ours.curve.recall_at(t) >= other.curve.recall_at(t) - 0.02
        )
        assert wins >= len(late) - 1, f"ours must not trail {name}"
    # The split mechanism buys a strictly earlier finish than NoSplit.
    assert ours.total_time <= runs["nosplit"].total_time + 1e-6
