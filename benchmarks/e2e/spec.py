"""The benchmark's vocabulary: workloads, metrics, bounds, expectations.

Later performance and simplicity issues quote these names, so nothing here
is renamed lightly.  ``BENCHMARK.json`` at the repo root is the driver's
view of this module (``benchmark_json()`` renders it and
``test_harness.py`` keeps the two in step); what that file's fixed schema
has no room for — the end-to-end metric each layer should move, default
seeds, expected digests, the reference host — lives here.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

#: Measuring budget of one driver invocation (``--seconds``): whole repeats
#: are taken while the next one is predicted to fit, at least one.
RUN_SECONDS = 15

#: Set-up samples per driver invocation (extra set-up-only children top up
#: whatever the full repeats did not provide).
SETUP_SAMPLES = 5

ALL = "all"


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "books_oneshot",
        "Mixed profile: edit distance ~55%, batch-kernel bookkeeping ~19%, "
        "resolve_block glue ~11%, Job-2 map ~10%; driver, mapper and "
        "mechanism changes show here most clearly.",
    ),
    Workload(
        "citeseer_oneshot",
        "~95% of the time is edit distance on long abstracts: a kernel "
        "change shows at full strength, a mapper or driver change must "
        "show nothing.",
    ),
    Workload(
        "skewed_pairrange",
        "One hub block sharded by core.balance: the only workload where "
        "shard replication, pair_range slicing and the virtual makespan "
        "depend on the balancer.",
    ),
    Workload(
        "linkage_wnp",
        "The meta-blocking pre-pass dominates run time and sets peak memory "
        "while most pairs are filtered or pruned: catches a kernel speed-up "
        "paid for in pre-pass time or memory.",
    ),
    Workload(
        "books_process",
        "books_oneshot through the process backend, wire format and shared "
        "memory: gives process/serial on a 2-CPU host and must reproduce "
        "the serial digest and virtual clocks.",
    ),
    Workload(
        "books_stream",
        "101 small delta jobs through ResolverService instead of 2 big "
        "ones: the delta reducer's candidate enumeration and fixed per-job "
        "cost weigh most, so set-up added per call shows as a loss here.",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``BENCHMARK.json``'s bound: the share of the parent's median by which
    #: the metric may get worse under the driver's protocol, which gives
    #: every run another seed — so it has to absorb the seed-to-seed spread
    #: of the inputs as well as host noise (README, "Bounds").
    bound: float
    #: ``--aa``'s bound: two sets of rounds of one checkout at one seed may
    #: differ by this share of the first median; ``None`` means the metric
    #: is deterministic and every repeat of both sets must agree exactly.
    aa_bound: Optional[float]
    #: Workloads the metric is defined on (``ALL`` or a tuple of names).
    defined_on: object
    meaning: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, 0.10, ALL,
             "import repro + generate input + build config, in the child"),
    EndToEnd("run_s", "s", "lower", 0.25, 0.10, ALL,
             "wall time of the one timed call (stream: warm submit + 100 "
             "batch submits)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05, 0.05, ALL,
             "child's ru_maxrss (driver process) at exit"),
    EndToEnd("batch_p50_s", "s", "lower", 0.25, 0.10, ("books_stream",),
             "median latency of the 100 post-warm submit calls"),
    EndToEnd("batch_p90_s", "s", "lower", 0.25, 0.10, ("books_stream",),
             "90th percentile of the same 100 (ten samples lie beyond it)"),
    EndToEnd("final_recall", "fraction", "higher", 0.05, None, ALL,
             "true duplicate pairs found / ground-truth pairs"),
    EndToEnd("virt_makespan_vu", "vu", "lower", 0.15, None, ALL,
             "end of Job 2 in virtual units (stream: service.clock after "
             "the last batch)"),
    EndToEnd("virt_t50_vu", "vu", "lower", 0.25, None, ALL,
             "virtual time at which half the ground-truth pairs have been "
             "emitted"),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    #: The end-to-end metric this one should move, and where.
    moves: str


PER_LAYER: Tuple[Layer, ...] = (
    Layer("data.generate_s", "s", "lower", "setup_s on all"),
    Layer("data.entities", "count", "lower", "setup_s on all"),
    Layer("metablock.plan_s", "s", "lower",
          "run_s, peak_rss_mb on linkage_wnp; 0 elsewhere (stage not run)"),
    Layer("metablock.pairs_total", "count", "lower", "run_s on linkage_wnp"),
    Layer("metablock.pairs_kept", "count", "lower", "run_s on linkage_wnp"),
    Layer("metablock.keep_ratio", "ratio", "lower", "run_s on linkage_wnp"),
    Layer("statistics.job1_s", "s", "lower",
          "run_s on books_oneshot, books_process; ~0 on citeseer_oneshot"),
    Layer("statistics.blocks", "count", "lower", "run_s on books_oneshot"),
    Layer("estimation.fit_s", "s", "lower",
          "run_s on books_oneshot; ~0 on citeseer_oneshot, books_stream"),
    Layer("estimation.model_s", "s", "lower", "run_s on books_oneshot"),
    Layer("schedule.generate_s", "s", "lower",
          "run_s on books_oneshot; 0 on books_stream (delta planner)"),
    Layer("schedule.blocks", "count", "lower", "run_s on books_oneshot"),
    Layer("schedule.trees", "count", "lower", "run_s on books_oneshot"),
    Layer("balance.apply_s", "s", "lower",
          "virt_makespan_vu, virt_t50_vu on skewed_pairrange"),
    Layer("balance.shards", "count", "lower",
          "virt_makespan_vu on skewed_pairrange; 0 on slack workloads"),
    Layer("balance.max_over_mean_milli", "milli", "lower",
          "virt_makespan_vu on skewed_pairrange"),
    Layer("job1.map_s", "s", "lower",
          "run_s on books_oneshot (blocking-key annotation)"),
    Layer("job1.reduce_s", "s", "lower", "run_s on books_oneshot"),
    Layer("job2.map_s", "s", "lower",
          "run_s on books_oneshot (~10%), skewed_pairrange; ~1% on "
          "citeseer_oneshot"),
    Layer("job2.map_emits", "count", "lower",
          "run_s on skewed_pairrange (shard replication)"),
    Layer("engine.self_s", "s", "lower",
          "run_s, batch_p50_s on books_stream (101 jobs); ~1% on one-shots"),
    Layer("engine.jobs", "count", "lower", "batch_p50_s on books_stream"),
    Layer("job2.reduce_self_s", "s", "lower",
          "run_s on books_oneshot; ~0 on citeseer_oneshot"),
    Layer("mechanisms.resolve_self_s", "s", "lower",
          "run_s on books_oneshot (~11%), skewed_pairrange, linkage_wnp; "
          "~1% on citeseer_oneshot"),
    Layer("mechanisms.blocks", "count", "lower", "run_s on books_oneshot"),
    Layer("resolve.pairs_filtered", "count", "higher", "run_s on linkage_wnp"),
    Layer("resolve.pairs_pruned", "count", "higher", "run_s on linkage_wnp"),
    Layer("similarity.decisions_self_s", "s", "lower",
          "run_s on books_oneshot (~19%); batch_p50_s on books_stream; ~2% "
          "on citeseer_oneshot"),
    Layer("similarity.batches", "count", "lower",
          "batch_p50_s on books_stream (small batches)"),
    Layer("similarity.pairs_decided", "count", "lower",
          "run_s on books_oneshot"),
    Layer("edit_distance.levenshtein_s", "s", "lower",
          "run_s on citeseer_oneshot (~95%), books_oneshot (~55%); small on "
          "linkage_wnp"),
    Layer("edit_distance.calls", "count", "lower", "run_s on citeseer_oneshot"),
    Layer("edit_distance.memo_hit_ratio", "ratio", "higher",
          "run_s on books_oneshot"),
    Layer("delta.map_s", "s", "lower", "batch_p50_s on books_stream"),
    Layer("delta.reduce_self_s", "s", "lower",
          "batch_p90_s on books_stream (candidate enumeration)"),
    Layer("executors.map_phase_s", "s", "lower", "run_s on books_process"),
    Layer("executors.reduce_phase_s", "s", "lower", "run_s on books_process"),
    Layer("executors.task_busy_s", "s", "lower", "run_s on books_process"),
    Layer("executors.parallel_efficiency", "ratio", "higher",
          "run_s on books_process"),
    Layer("executors.pool_forks", "count", "lower", "run_s on books_process"),
    Layer("executors.tasks_fanned", "count", "higher",
          "run_s on books_process"),
    Layer("executors.tasks_inline", "count", "lower",
          "run_s on books_process"),
    Layer("executors.steal_tasks", "count", "lower", "run_s on books_process"),
    Layer("executors.worker_idle_ms", "ms", "lower", "run_s on books_process"),
    Layer("executors.shm_input_bytes", "bytes", "lower",
          "run_s on books_process"),
    Layer("executors.worker_peak_rss_mb", "MB", "lower",
          "memory of books_process beside peak_rss_mb"),
    Layer("wire.payload_bytes", "bytes", "lower", "run_s on books_process"),
    Layer("wire.raw_bytes", "bytes", "lower", "run_s on books_process"),
    Layer("wire.ratio", "ratio", "higher", "run_s on books_process"),
    Layer("wire.encode_s", "s", "lower", "run_s on books_process"),
    Layer("wire.decode_s", "s", "lower", "run_s on books_process"),
    Layer("service.warm_submit_s", "s", "lower", "run_s on books_stream"),
    Layer("service.submit_self_s", "s", "lower",
          "batch_p50_s on books_stream"),
    Layer("service.run_job_s", "s", "lower",
          "batch_p50_s, batch_p90_s on books_stream"),
    Layer("service.affected_blocks_mean", "count", "lower",
          "batch_p90_s on books_stream"),
    Layer("service.comparisons", "count", "lower",
          "batch_p90_s, run_s on books_stream"),
    Layer("service.snapshot_s", "s", "lower",
          "none (taken after the timed call)"),
    Layer("service.restore_s", "s", "lower",
          "none (taken after the timed call)"),
    Layer("service.snapshot_bytes", "bytes", "lower",
          "none (taken after the timed call)"),
    Layer("evaluation.recall_curve_s", "s", "lower",
          "run_s on one-shot workloads (<1%)"),
    Layer("trace.overhead_frac", "fraction", "lower", "none (harness)"),
    Layer("trace.layer_sum_frac", "fraction", "higher", "none (harness)"),
    Layer("trace.other_self_s", "s", "lower", "none (harness)"),
)

#: Span name -> the layer metric its self time is booked under.  Every span
#: a traced run records must appear here, so the ``*_s`` metrics on the
#: right sum to the traced ``run_s`` (``trace.layer_sum_frac``).
SELF_TIME_OF: Dict[str, str] = {
    "run": "trace.other_self_s",
    "metablock.plan": "metablock.plan_s",
    "statistics.job1": "statistics.job1_s",
    "estimation.fit": "estimation.fit_s",
    "estimation.model": "estimation.model_s",
    "schedule.generate": "schedule.generate_s",
    "balance.apply": "balance.apply_s",
    "engine.run_job": "engine.self_s",
    "job1.map": "job1.map_s",
    "job1.reduce": "job1.reduce_s",
    "job2.map": "job2.map_s",
    "job2.reduce": "job2.reduce_self_s",
    "delta.map": "delta.map_s",
    "delta.reduce": "delta.reduce_self_s",
    "mechanisms.resolve_block": "mechanisms.resolve_self_s",
    "similarity.decisions": "similarity.decisions_self_s",
    "edit_distance.levenshtein": "edit_distance.levenshtein_s",
    "service.submit": "service.submit_self_s",
    "service.plan_delta": "service.submit_self_s",
    "service.run_job": "service.submit_self_s",
    "evaluation.recall_curve": "evaluation.recall_curve_s",
}

#: SHA-256 of the sorted found-pair list at ``--seed 0``, full size.
EXPECTED_DIGEST: Dict[str, str] = {
    "books_oneshot": "32a7fa1a1ad1810a9d239801f44f9c052e89cce74b003aee4f3c54032eecdff2",
    "citeseer_oneshot": "2072a3786ab4ab493108122b6e5fc7b66d25877475ee84bff0accac2a95d3c1b",
    "skewed_pairrange": "2af74f80f36776fcc37e2e0f54762043a96a8dc037ea2a752247426de94a88ba",
    "linkage_wnp": "8aca766553d0cdcc112a470746cbe46a67563df0db1f0706134fb48ff566aaea",
    "books_process": "32a7fa1a1ad1810a9d239801f44f9c052e89cce74b003aee4f3c54032eecdff2",
    "books_stream": "53b75409e40d3ebe1925656a2951678e4c73b04921ec4c7a4dc84c6b6fead8d6",
}

#: Where the README baseline and the bounds above were measured.
REFERENCE_HOST = {
    "cpus_visible": 2,
    "cpu_model": "Intel(R) Xeon(R) Processor @ 2.10GHz",
    "python": "3.11.7",
    "numpy": "2.4.6",
    "platform": "Linux x86_64 (Firecracker guest)",
}


#: Metric name -> unit, end-to-end and per-layer alike (names are unique).
UNIT_OF: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def defined_on(metric: EndToEnd, workload: str) -> bool:
    return metric.defined_on == ALL or workload in metric.defined_on


def benchmark_json() -> dict:
    """``BENCHMARK.json`` exactly as the driver's schema wants it."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
