"""Load-balancing benchmark: reduce-phase makespan under data skew.

The skewed workload concentrates most entities in one hub block, the
failure mode the ``pairrange`` balancer targets (Kolb et al.'s PairRange
setting).  Each strategy resolves the *same* duplicate pairs — the
differential suite pins that — so the only question is virtual time:

* how much reduce-phase makespan does ``pairrange`` cut versus the
  untouched ``slack`` baseline, and
* does the planned (estimate-based) improvement materialize in the
  simulated timeline?

Acceptance: the best non-``slack`` strategy cuts the reduce-phase
makespan by at least 1.5x at identical resolved output.  Results are
recorded in ``BENCH_load_balance.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import skewed_config
from repro.core.balance import BALANCE_STRATEGIES
from repro.evaluation import ExperimentRun, RunSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_load_balance.json"

MACHINES = 3
ACCEPT_SPEEDUP = 1.5


def _reduce_span(run):
    job2 = run.result.job2
    return job2.end_time - job2.map_phase_end


def test_load_balance_bench(skewed_dataset, skewed_cached_matcher, report):
    runs = {}
    for strategy in BALANCE_STRATEGIES:
        spec = RunSpec(
            skewed_dataset,
            skewed_config(matcher=skewed_cached_matcher),
            machines=MACHINES,
            balance=strategy,
        )
        runs[strategy] = ExperimentRun(spec).run()

    slack = runs["slack"]
    assert slack.found_pairs, "benchmark is vacuous: nothing resolved"

    entries = {}
    for strategy, run in runs.items():
        # Equal resolved output is the precondition for comparing time.
        assert run.found_pairs == slack.found_pairs, strategy
        plan = run.result.balance
        entries[strategy] = {
            "reduce_makespan": _reduce_span(run),
            "total_time": run.total_time,
            "final_recall": run.final_recall,
            "found_pairs": len(run.found_pairs),
            "planned_makespan_before": plan.before.max,
            "planned_makespan_after": plan.after.max,
            "gini_before": plan.before.gini,
            "gini_after": plan.after.gini,
            "shards": len(plan.shards),
            "moved_trees": plan.moved_trees,
        }

    slack_span = entries["slack"]["reduce_makespan"]
    speedups = {
        strategy: slack_span / entries[strategy]["reduce_makespan"]
        for strategy in BALANCE_STRATEGIES
        if strategy != "slack"
    }
    best_strategy = max(speedups, key=speedups.get)

    # Acceptance: the skew-aware strategies actually pay off on skew.
    assert speedups[best_strategy] >= ACCEPT_SPEEDUP, speedups

    payload = {
        "bench": "load_balance",
        "note": (
            "Reduce-phase makespan per balance strategy on the skewed "
            "workload (one hub block), identical resolved pairs across "
            f"strategies. skewed scale {len(skewed_dataset.entities)}, "
            f"{MACHINES} machines."
        ),
        "strategies": entries,
        "speedups_vs_slack": speedups,
        "best_strategy": best_strategy,
        "acceptance_speedup": ACCEPT_SPEEDUP,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"load balancing (skewed, {MACHINES} machines)"]
    for strategy in BALANCE_STRATEGIES:
        e = entries[strategy]
        speed = "" if strategy == "slack" else f"  ({speedups[strategy]:.2f}x)"
        lines.append(
            f"  {strategy:10s}: reduce makespan {e['reduce_makespan']:10.1f}"
            f"  gini {e['gini_before']:.2f}->{e['gini_after']:.2f}"
            f"  shards {e['shards']:3d}{speed}"
        )
    report("\n".join(lines) + f"\n  wrote {BENCH_PATH.name}")
