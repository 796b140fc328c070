"""Scenario: pay-as-you-go cleaning of a publication catalog.

A data team continuously ingests crawled publication records and wants
analysis-ready data as early as possible.  This example contrasts three
ways of spending the same cluster:

* Basic with an aggressive popcorn threshold  — fast but plateaus low;
* Basic run to completion ("Basic F")         — exhaustive but slow;
* our parallel progressive approach           — front-loads the duplicates.

It reproduces Figure 8's story at laptop scale and prints the recall each
strategy has reached at a series of checkpoints.

Run:  python examples/citeseer_progressive.py
"""

from repro import BasicConfig, make_citeseer
from repro.core import citeseer_config
from repro.evaluation import (
    ExperimentRun,
    RunSpec,
    format_curves,
    format_final_summary,
    sample_times,
)
from repro.similarity import citeseer_matcher

MACHINES = 10


def main() -> None:
    dataset = make_citeseer(2000, seed=7)
    # One caching matcher shared across runs: real similarity work is done
    # once, while every run still pays its own *virtual* cost.
    matcher = citeseer_matcher(cache=True)

    print(f"resolving {len(dataset)} records on {MACHINES} machines...\n")

    runs = [
        ExperimentRun(
            RunSpec(
                dataset, citeseer_config(matcher=matcher),
                machines=MACHINES, label="ours",
            )
        ).run()
    ]
    for threshold, label in ((0.04, "basic 0.04"), (0.001, "basic 0.001"), (None, "basic F")):
        # Basic runs the family's mechanism, matcher and blocking functions.
        config = BasicConfig(
            citeseer_config(matcher=matcher), window=15, popcorn_threshold=threshold
        )
        runs.append(
            ExperimentRun(
                RunSpec(dataset, config, machines=MACHINES, label=label)
            ).run()
        )

    horizon = min(run.total_time for run in runs)
    print(format_curves(runs, sample_times(horizon, points=10),
                        title="duplicate recall vs execution time"))
    print()
    print(format_final_summary(runs, title="end-of-run summary"))
    print()

    ours = runs[0]
    half = horizon / 2
    best_basic = max(runs[1:], key=lambda r: r.curve.recall_at(half))
    print(
        f"at t={half:,.0f}: ours has {ours.curve.recall_at(half):.0%} recall, "
        f"the best Basic variant ({best_basic.label}) has "
        f"{best_basic.curve.recall_at(half):.0%} — stop whenever the quality "
        "is good enough and keep the savings."
    )


if __name__ == "__main__":
    main()
