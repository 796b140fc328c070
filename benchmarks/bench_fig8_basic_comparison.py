"""Figure 8: our approach versus Basic on the CiteSeerX-like workload.

The paper's three sub-figures plot duplicate recall against execution time
on 10 machines: Basic with popcorn thresholds {F, 0.1, 0.07, 0.04, 0.01}
and {F, 0.007, 0.004, 0.001, 0.00001} at window w = 15, and the best four
thresholds at w = 5, each against our approach.

Expected shape (paper): our curve dominates every Basic variant after the
brief preprocessing overhead; aggressive thresholds rise fast but plateau
low; Basic F is slowest but reaches Basic's maximum recall; w = 5 does not
materially improve Basic's progressiveness.
"""

from __future__ import annotations

import pytest

from repro.baselines import BasicConfig
from repro.core import citeseer_config
from repro.evaluation import (
    ExperimentRun,
    RunSpec,
    format_curves,
    format_final_summary,
    sample_times,
)

pytestmark = pytest.mark.bench

MACHINES = 10

SUBFIGURES = {
    "fig8-left (w=15, coarse thresholds)": (15, [None, 0.1, 0.07, 0.04, 0.01]),
    "fig8-middle (w=15, fine thresholds)": (15, [None, 0.007, 0.004, 0.001, 0.00001]),
    "fig8-right (w=5, best thresholds)": (5, [None, 0.07, 0.01, 0.007]),
}


@pytest.fixture(scope="module")
def ours_run(citeseer_dataset, citeseer_cached_matcher):
    config = citeseer_config(matcher=citeseer_cached_matcher)
    return ExperimentRun(
        RunSpec(citeseer_dataset, config, machines=MACHINES, label="Our Approach")
    ).run()


@pytest.mark.parametrize("subfigure", list(SUBFIGURES))
def test_fig8(benchmark, subfigure, citeseer_dataset, citeseer_cached_matcher, ours_run, report):
    window, thresholds = SUBFIGURES[subfigure]

    def run_subfigure():
        runs = [ours_run]
        for threshold in thresholds:
            label = f"Basic {'F' if threshold is None else threshold} (w={window})"
            config = BasicConfig(
                citeseer_config(matcher=citeseer_cached_matcher),
                window=window,
                popcorn_threshold=threshold,
            )
            runs.append(
                ExperimentRun(
                    RunSpec(citeseer_dataset, config, machines=MACHINES, label=label)
                ).run()
            )
        return runs

    runs = benchmark.pedantic(run_subfigure, rounds=1, iterations=1)
    # The paper plots each sub-figure over a fixed x-range covering our
    # approach's run; Basic variants that end earlier hold their final
    # recall (their curves flatline), exactly like in the figures.
    horizon = runs[0].total_time
    times = sample_times(horizon, points=10)
    report(
        format_curves(runs, times, title=f"{subfigure} — recall vs time (μ={MACHINES})")
        + "\n\n"
        + format_final_summary(runs, title="final recall / total time")
    )

    ours, *basics = runs
    basic_f = basics[0]
    # Headline claims (tolerant to the early-overhead window):
    late = [t for t in times if t >= horizon * 0.3]
    dominated = sum(
        1 for t in late if ours.curve.recall_at(t) >= basic_f.curve.recall_at(t)
    )
    assert dominated >= len(late) - 1, "ours must dominate Basic F past the overhead"
    assert ours.final_recall >= basic_f.final_recall - 0.02
    benchmark.extra_info["final_recall_ours"] = round(ours.final_recall, 4)
    benchmark.extra_info["final_recall_basic_f"] = round(basic_f.final_recall, 4)
