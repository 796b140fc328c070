"""Scenario: diagnosing a progressive run like a cluster operator.

Beyond the recall curve, an operator wants to know *why* a run behaves the
way it does: was the cluster busy, did one reduce task straggle, which
blocking keys caused skew?  This example profiles the dataset, runs the
pipeline, and prints the diagnostics: an ASCII recall chart, reduce-task
utilization, a Gantt view, and the schedule's shape.

Run:  python examples/cluster_diagnostics.py
"""

from repro import Cluster, ProgressiveER, make_citeseer
from repro.core import citeseer_config
from repro.similarity import citeseer_matcher
from repro.data import format_profile, profile_dataset, suggest_blocking_order
from repro.evaluation import (
    RunResult,
    ascii_chart,
    ascii_gantt,
    load_imbalance,
    recall_curve,
    reduce_utilization,
)

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
    #    split mechanism matters for utilization).
    results = {}
    for strategy in ("ours", "nosplit"):
        approach = ProgressiveER(
            citeseer_config(matcher=matcher), Cluster(MACHINES),
            strategy=strategy,
        )
        results[strategy] = approach.run(dataset)

    runs = [
        RunResult(
            label=name,
            curve=recall_curve(
                r.duplicate_events, dataset, end_time=r.total_time
            ),
            result=r,
        )
        for name, r in results.items()
    ]
    horizon = max(r.total_time for r in results.values())
    print(ascii_chart(runs, horizon=horizon, width=64, height=14,
                      title="recall vs time"))
    print()

    # 3. Scheduling diagnostics.
    for name, result in results.items():
        job = result.job2
        print(
            f"{name:8s} trees={result.schedule.num_trees:4d} "
            f"blocks={result.schedule.num_blocks:4d} "
            f"reduce utilization={reduce_utilization(job):.2f} "
            f"imbalance={load_imbalance(job):.2f} "
            f"total={job.end_time:,.0f}"
        )

    # 4. Gantt of the winner's resolution job (reduce rows only, abridged).
    gantt = ascii_gantt(results["ours"].job2, width=56)
    reduce_rows = [ln for ln in gantt.splitlines() if "reduce" in ln or "=" in ln]
    print("\nours — reduce-task timeline:")
    print("\n".join(reduce_rows))


if __name__ == "__main__":
    main()
