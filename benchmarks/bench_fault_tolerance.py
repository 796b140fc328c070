"""Fault-tolerance benchmark: progressive recall under injected faults.

One paper-adjacent question, answered on the FIG8-scale citeseer
workload and recorded in ``BENCH_fault_tolerance.json``: does progressive
recall degrade gracefully under crashes?  The benchmark sweeps seeded
crash rates (0%..20%) and samples the recall-vs-time curve at fractions
of the *clean* run's end time.  Re-executed attempts reproduce identical
intermediate data, so final recall never changes; faults only delay when
duplicates arrive.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import FaultPlan, RetryPolicy

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fault_tolerance.json"

MACHINES = 10
FAULT_RATES = [0.0, 0.05, 0.1, 0.2]
FRACTIONS = [0.25, 0.5, 0.75, 1.0]

#: Generous retry budget: at 20% per-attempt crash rate a few tasks need
#: many attempts, and the benchmark measures degradation, not aborts.
RETRY = RetryPolicy(max_attempts=100, backoff_base=1.0)


def _run(dataset, matcher, faults=None):
    spec = RunSpec(
        dataset,
        citeseer_config(matcher=matcher),
        machines=MACHINES,
        faults=faults,
    )
    return ExperimentRun(spec).run()


def _fault_counters(run):
    totals = {}
    for job in run.result.jobs:
        for key, value in job.counters.as_flat_dict().items():
            if key.startswith("fault."):
                totals[key] = totals.get(key, 0) + value
    return totals


def test_fault_tolerance_bench(citeseer_dataset, citeseer_cached_matcher, report):
    clean = _run(citeseer_dataset, citeseer_cached_matcher)

    # -- graceful degradation sweep ------------------------------------
    sweep = []
    for rate in FAULT_RATES:
        faults = (
            FaultPlan(seed=1, fault_rate=rate, retry=RETRY) if rate else None
        )
        run = _run(citeseer_dataset, citeseer_cached_matcher, faults)
        entry = {
            "fault_rate": rate,
            "total_time": run.total_time,
            "final_recall": run.final_recall,
            "recall_at_clean_fractions": {
                str(f): run.curve.recall_at(f * clean.total_time)
                for f in FRACTIONS
            },
            "fault_counters": _fault_counters(run),
        }
        sweep.append(entry)

        # Faults delay duplicates but never lose them.
        assert run.final_recall == clean.final_recall
        assert run.total_time >= clean.total_time

    # Degradation is graceful, not a cliff: even at the highest rate the
    # curve at the clean run's end time stays close to the clean recall.
    worst = sweep[-1]["recall_at_clean_fractions"]["1.0"]
    assert worst >= 0.8 * clean.final_recall

    payload = {
        "bench": "fault_tolerance",
        "note": (
            "Seeded crash-rate sweep (recall sampled at fractions of the "
            "clean run's end time). "
            f"citeseer scale {len(citeseer_dataset.entities)}, "
            f"{MACHINES} machines."
        ),
        "fault_rate_sweep": sweep,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["fault tolerance (citeseer, 10 machines)"]
    lines.append(f"  clean: total {clean.total_time:10.1f}  recall {clean.final_recall:.3f}")
    for entry in sweep[1:]:
        at_clean_end = entry["recall_at_clean_fractions"]["1.0"]
        lines.append(
            f"  rate {entry['fault_rate']:4.2f}: total {entry['total_time']:10.1f}"
            f"  recall@clean-end {at_clean_end:.3f}"
        )
    report("\n".join(lines) + f"\n  wrote {BENCH_PATH.name}")
