"""Table III: final recall and total execution time of Basic across the
popcorn thresholds and the two window sizes.

Expected shape (paper): within a window size, a more conservative (smaller)
threshold yields both higher final recall and higher total time, strictly
monotonically; the threshold-free "F" rows match the most conservative
threshold; w = 15 reaches recall at least as high as w = 5 at higher cost.
"""

from __future__ import annotations

import pytest

from repro.baselines import BasicConfig
from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec, format_table

pytestmark = pytest.mark.bench

MACHINES = 10
THRESHOLDS = [0.1, 0.07, 0.04, 0.01, 0.007, 0.004, 0.001, 0.00001, None]


def test_table3(benchmark, citeseer_dataset, citeseer_cached_matcher, report):
    def run_table():
        results = {}
        for window in (5, 15):
            for threshold in THRESHOLDS:
                config = BasicConfig(
                    citeseer_config(matcher=citeseer_cached_matcher),
                    window=window,
                    popcorn_threshold=threshold,
                )
                results[(window, threshold)] = ExperimentRun(
                    RunSpec(citeseer_dataset, config, machines=MACHINES)
                ).run()
        return results

    results = benchmark.pedantic(run_table, rounds=1, iterations=1)

    rows = []
    for threshold in THRESHOLDS:
        label = "F" if threshold is None else str(threshold)
        rows.append(
            [
                label,
                f"{results[(5, threshold)].final_recall:.2f}",
                f"{results[(15, threshold)].final_recall:.2f}",
                f"{results[(5, threshold)].total_time:,.0f}",
                f"{results[(15, threshold)].total_time:,.0f}",
            ]
        )
    report(
        format_table(
            ["thresh.", "recall w=5", "recall w=15", "time w=5", "time w=15"],
            rows,
            title="Table III — final recall and total execution time for Basic",
        )
    )

    # Monotonicity claims, per window size.
    for window in (5, 15):
        ordered = [results[(window, t)] for t in THRESHOLDS]
        recalls = [r.final_recall for r in ordered]
        times = [r.total_time for r in ordered]
        assert all(
            recalls[i] <= recalls[i + 1] + 1e-9 for i in range(len(recalls) - 1)
        ), f"recall must not decrease as the threshold tightens (w={window})"
        assert all(
            times[i] <= times[i + 1] + 1e-9 for i in range(len(times) - 1)
        ), f"time must not decrease as the threshold tightens (w={window})"
    # The F column equals the most conservative threshold's behaviour.
    for window in (5, 15):
        assert results[(window, None)].final_recall == pytest.approx(
            results[(window, 0.00001)].final_recall, abs=0.02
        )
    # The wider window reaches at least the same recall at higher cost.
    assert (
        results[(15, None)].final_recall >= results[(5, None)].final_recall - 1e-9
    )
    assert results[(15, None)].total_time > results[(5, None)].total_time
