"""Multi-tenant scheduler benchmark: fair-share lanes versus FIFO.

A Poisson arrival stream mixes two populations on one shared slot pool:
short *interactive* jobs (a user waiting at a prompt) and heavy *batch*
jobs (background re-resolutions).  Under FIFO the interactive tail
latency is hostage to whichever batch phases arrived first; the fair
policy's priority lane dispatches interactive phases at the next phase
boundary instead.  The headline measurement: **interactive p99 latency
must improve by at least 2x under the fair policy**, on the identical
arrival trace, while batch work still completes (work conservation means
total makespan stays within a small factor).

Results are recorded in ``BENCH_scheduler.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.mapreduce import MapReduceJob, Mapper, Reducer
from repro.scheduling import JobScheduler, poisson_arrivals

pytestmark = pytest.mark.bench

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_scheduler.json"

SEED = 2025
JOBS = 40
RATE = 0.08
INTERACTIVE_FRACTION = 0.45
ACCEPT_P99_SPEEDUP = 2.0

_LINES = [
    "progressive entity resolution on a shared cluster",
    "interactive tenants must not wait behind batch",
    "map reduce slots lease from one virtual timeline",
    "fair share tracks weight normalized service",
]
#: Batch jobs are ~20x heavier than interactive probes.
INTERACTIVE_SCALE = 1
BATCH_SCALE = 20


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(0.5 * len(values))
        context.write((key, sum(values)))


def _run_policy(policy: str):
    scheduler = JobScheduler(machines=2, policy=policy)
    scheduler.add_tenant("interactive-users", 2.0)
    scheduler.add_tenant("batch-pipeline", 1.0)
    trace = poisson_arrivals(
        seed=SEED,
        rate=RATE,
        count=JOBS,
        tenants=("interactive-users", "batch-pipeline"),
        interactive_fraction=INTERACTIVE_FRACTION,
    )
    for arrival in trace:
        lane = "interactive" if arrival.tenant == "interactive-users" else "batch"
        scale = INTERACTIVE_SCALE if lane == "interactive" else BATCH_SCALE
        scheduler.submit_job(
            MapReduceJob(
                _WordMapper, _SumReducer,
                name=f"{lane}-{arrival.index}", alpha=2.0,
            ),
            _LINES * scale,
            tenant=arrival.tenant,
            lane=lane,
            arrival=arrival.time,
        )
    return scheduler.run()


def test_scheduler_bench(calibrated_seconds, report):
    fair = _run_policy("fair")
    fifo = _run_policy("fifo")

    stats = {}
    for name, rep in (("fair", fair), ("fifo", fifo)):
        assert all(o.finished_at is not None for o in rep.outcomes)
        stats[name] = {
            lane: rep.latency_percentiles(lane)
            for lane in ("interactive", "batch")
        }
        stats[name]["makespan"] = rep.makespan

    fair_p99 = stats["fair"]["interactive"]["p99"]
    fifo_p99 = stats["fifo"]["interactive"]["p99"]
    speedup = fifo_p99 / fair_p99
    assert speedup >= ACCEPT_P99_SPEEDUP, (
        f"fair-share interactive p99 only {speedup:.2f}x better than FIFO "
        f"({fair_p99:.1f} vs {fifo_p99:.1f} virtual seconds)"
    )
    # Priority lanes reshuffle waiting, they don't add work: the shared
    # timeline stays work-conserving, so total makespan barely moves.
    assert stats["fair"]["makespan"] <= stats["fifo"]["makespan"] * 1.25

    payload = {
        "bench": "scheduler",
        "note": (
            f"{JOBS} Poisson arrivals (seed {SEED}, rate {RATE}), "
            f"~{int(100 * INTERACTIVE_FRACTION)}% short interactive probes "
            f"vs {BATCH_SCALE}x heavier batch jobs, 2 machines.  Latency is "
            "virtual arrival-to-finish time; identical trace under both "
            "policies."
        ),
        "interactive": {
            "fair": stats["fair"]["interactive"],
            "fifo": stats["fifo"]["interactive"],
            "p99_speedup": speedup,
        },
        "batch": {
            "fair": stats["fair"]["batch"],
            "fifo": stats["fifo"]["batch"],
        },
        "makespan": {
            "fair": stats["fair"]["makespan"],
            "fifo": stats["fifo"]["makespan"],
        },
        "acceptance_p99_speedup": ACCEPT_P99_SPEEDUP,
    }
    if calibrated_seconds is not None:
        # The same latencies restated in this host's estimated wall
        # seconds (fitted compare price from BENCH_calibration.json).
        payload["calibrated_seconds"] = {
            "seconds_per_compare_unit": calibrated_seconds.seconds_per_compare_unit,
            "source": "BENCH_calibration.json",
            "interactive_p99": {
                "fair": calibrated_seconds(fair_p99),
                "fifo": calibrated_seconds(fifo_p99),
            },
            "makespan": {
                "fair": calibrated_seconds(stats["fair"]["makespan"]),
                "fifo": calibrated_seconds(stats["fifo"]["makespan"]),
            },
        }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"multi-tenant scheduler ({JOBS} Poisson arrivals, 2 machines)",
        "  interactive lane latency (virtual s):",
        f"    fair : p50 {stats['fair']['interactive']['p50']:8.1f}"
        f"  p99 {fair_p99:8.1f}",
        f"    fifo : p50 {stats['fifo']['interactive']['p50']:8.1f}"
        f"  p99 {fifo_p99:8.1f}",
        f"    p99 speedup: {speedup:.1f}x (accept >= {ACCEPT_P99_SPEEDUP}x)",
        f"  makespan: fair {stats['fair']['makespan']:.1f}"
        f"  fifo {stats['fifo']['makespan']:.1f}",
    ]
    report("\n".join(lines) + f"\n  wrote {BENCH_PATH.name}")
