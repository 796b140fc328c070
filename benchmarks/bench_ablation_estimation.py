"""Ablation: duplicate-estimation accuracy (Section VI-A4).

The progressive schedule is only as good as the per-block duplicate
estimates behind its utility values.  Three estimators:

* **oracle** — exact covered-duplicate counts from the ground truth (the
  upper bound on what estimation can deliver);
* **learned** — the paper's size-fraction probability model fitted on a
  10% training sample;
* **uniform** — one global probability, erasing the size-dependence.

Expected shape: oracle ≥ learned ≥ uniform in early-recall area; all three
converge to the same final recall (estimation only reorders work).
"""

from __future__ import annotations

from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec, format_table

MACHINES = 10


def test_estimation_ablation(citeseer_dataset, citeseer_cached_matcher, report):
    def run_ablation():
        runs = {}
        for kind in ("oracle", "learned", "uniform"):
            config = citeseer_config(
                matcher=citeseer_cached_matcher, estimator=kind
            )
            runs[kind] = ExperimentRun(
                RunSpec(citeseer_dataset, config, machines=MACHINES, label=kind)
            ).run()
        return runs

    runs = run_ablation()
    horizon = min(run.total_time for run in runs.values())
    auc = {kind: run.curve.area_under(horizon) for kind, run in runs.items()}
    rows = [
        [kind, f"{auc[kind]:.3f}", f"{run.final_recall:.3f}", f"{run.total_time:,.0f}"]
        for kind, run in runs.items()
    ]
    report(
        format_table(
            ["estimator", "recall AUC", "final recall", "total time"],
            rows,
            title="ablation — duplicate estimation accuracy",
        )
    )

    assert auc["oracle"] >= auc["learned"] - 0.03, "oracle should lead learned"
    assert auc["learned"] >= auc["uniform"] - 0.03, "learned should lead uniform"
    finals = [run.final_recall for run in runs.values()]
    assert max(finals) - min(finals) < 0.05, "estimation only reorders work"
