"""Scenario: diagnosing a progressive run like a cluster operator.

Beyond the recall curve, an operator wants to know *why* a run behaves the
way it does: was the cluster busy, did one reduce task straggle, which
blocking keys caused skew?  This example profiles the dataset, runs the
pipeline on traced clusters, and prints the diagnostics: an ASCII recall
chart, the schedule's shape, and the trace summary (per-phase skew and a
per-task Gantt with block and duplicate counts).

Run:  python examples/cluster_diagnostics.py
"""

from repro import ExperimentRun, RunSpec, Tracer, make_citeseer
from repro.core import citeseer_config
from repro.similarity import citeseer_matcher
from repro.data import format_profile, profile_dataset, suggest_blocking_order
from repro.evaluation import ascii_chart
from repro.observability import format_trace_summary

MACHINES = 6


def main() -> None:
    dataset = make_citeseer(1000, seed=7)
    # One caching matcher: the two strategy runs share pair comparisons.
    matcher = citeseer_matcher(cache=True)

    # 1. Know your data before blocking it.
    profile = profile_dataset(dataset, prefix_lengths=(2, 3))
    print(format_profile(profile))
    print("\nsuggested dominance order:",
          " > ".join(suggest_blocking_order(profile)), "\n")

    # 2. Run the pipeline (ours vs the NoSplit variant, to see why the
    #    split mechanism matters for utilization).  One tracer records
    #    both runs, each under its own label.
    tracer = Tracer()
    runs = [
        ExperimentRun(
            RunSpec(
                dataset, citeseer_config(matcher=matcher), machines=MACHINES,
                strategy=strategy, label=strategy, tracer=tracer,
            )
        ).run()
        for strategy in ("ours", "nosplit")
    ]
    horizon = max(run.total_time for run in runs)
    print(ascii_chart(runs, horizon=horizon, width=64, height=14,
                      title="recall vs time"))
    print()

    # 3. Scheduling diagnostics.
    for run in runs:
        schedule = run.result.schedule
        print(
            f"{run.label:8s} trees={schedule.num_trees:4d} "
            f"blocks={schedule.num_blocks:4d} "
            f"total={run.total_time:,.0f}"
        )

    # 4. Per-phase skew and the per-task Gantt of every traced job.
    print()
    print(format_trace_summary(tracer, width=56))


if __name__ == "__main__":
    main()
