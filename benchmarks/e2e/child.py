"""One repeat of one workload, in a fresh process.

``run.py`` launches this file once per repeat and reads the single JSON
record it prints as the last line of its standard output.  The clock for
``setup_s`` starts before ``repro`` is imported; the clock for ``run_s``
brackets exactly the workload's one timed call.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def host_fingerprint(load_start: float) -> Dict[str, Any]:
    """Who measured this, and was the host quiet while it did."""
    import numpy

    cpus = len(os.sched_getaffinity(0))
    return {
        "cpus_visible": cpus,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load1_start": load_start,
        "load1_end": os.getloadavg()[0],
        "parallelism_limited": cpus < 2,
        "noisy": load_start > cpus,
    }


def percentile_90(samples: List[float]) -> float:
    """The sample a tenth of the others lie beyond."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def pair_digest(pairs) -> str:
    return hashlib.sha256(json.dumps(sorted(pairs)).encode()).hexdigest()


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def layer_metrics(prepared, tracer, tally, run_s: float) -> Dict[str, float]:
    """Every per-layer metric of ``spec.PER_LAYER`` except
    ``trace.overhead_frac`` (the parent knows the untraced median)."""
    from repro.mapreduce import wire
    from repro.similarity.batch import batch_kernel_counters

    import spec as bench_spec
    import workloads

    unmapped = set(tracer.totals) - set(bench_spec.SELF_TIME_OF) - {"data.generate"}
    if unmapped:
        raise KeyError(f"spans without a layer metric: {sorted(unmapped)}")

    layers: Dict[str, float] = {m.name: 0.0 for m in bench_spec.PER_LAYER}
    del layers["trace.overhead_frac"]
    for span, metric in bench_spec.SELF_TIME_OF.items():
        layers[metric] += tracer.self_time(span)
    layers["trace.layer_sum_frac"] = (
        sum(layers[m] for m in set(bench_spec.SELF_TIME_OF.values())) / run_s
    )
    layers["data.generate_s"] = tracer.inclusive("data.generate")
    layers["data.entities"] = len(prepared.dataset)
    layers["engine.jobs"] = tracer.calls("engine.run_job")
    layers["edit_distance.calls"] = tracer.calls("edit_distance.levenshtein")
    lookups = tally.memo_hits + tally.memo_misses
    layers["edit_distance.memo_hit_ratio"] = tally.memo_hits / lookups if lookups else 0.0
    kernel = batch_kernel_counters()
    layers["similarity.batches"] = kernel["batches"]
    layers["similarity.pairs_decided"] = kernel["pairs"]

    map_wall = sum(tracer.inclusive(f"{kind}.map") for kind in ("job1", "job2", "delta"))
    reduce_wall = sum(tracer.inclusive(f"{kind}.reduce") for kind in ("job1", "job2", "delta"))
    layers["executors.map_phase_s"] = map_wall
    layers["executors.reduce_phase_s"] = reduce_wall
    layers["executors.task_busy_s"] = tally.task_busy_ns / 1e9
    workers = 1
    for name in ("pool_forks", "tasks_fanned", "tasks_inline", "steal_tasks",
                 "worker_idle_ms", "shm_input_bytes"):
        layers[f"executors.{name}"] = tally.drained.get(name, 0)
    layers["executors.worker_peak_rss_mb"] = rss_mb(resource.RUSAGE_CHILDREN)

    if isinstance(prepared, workloads.OneShot):
        workers = prepared.spec.workers or 1
        result = prepared.result.result
        counters = result.job2.counters
        layers["statistics.blocks"] = len(result.stats.blocks)
        layers["schedule.blocks"] = len(result.schedule.blocks)
        layers["schedule.trees"] = len(result.schedule.trees)
        layers["balance.shards"] = counters.get("balance", "shards")
        layers["balance.max_over_mean_milli"] = counters.get(
            "balance", "max_over_mean_after_milli"
        )
        layers["job2.map_emits"] = counters.get("engine", "map_emitted")
        layers["mechanisms.blocks"] = counters.get(
            "driver", "blocks_resolved"
        ) + counters.get("driver", "shards_resolved")
        layers["resolve.pairs_filtered"] = counters.get("resolve", "pairs_filtered")
        layers["resolve.pairs_pruned"] = counters.get("resolve", "pairs_pruned")
        if result.metablock is not None:
            plan = result.metablock
            layers["metablock.pairs_total"] = plan.pairs_total
            layers["metablock.pairs_kept"] = plan.pairs_kept
            layers["metablock.keep_ratio"] = (
                plan.pairs_kept / plan.pairs_total if plan.pairs_total else 0.0
            )
    else:
        service = prepared.service
        receipts = service.receipts
        layers["service.warm_submit_s"] = prepared.latencies[0]
        layers["service.run_job_s"] = tracer.inclusive("service.run_job")
        layers["service.affected_blocks_mean"] = statistics.fmean(
            r.affected_blocks for r in receipts[1:] or receipts
        )
        layers["service.comparisons"] = service.total_comparisons
        start = perf_counter()
        snapshot = service.snapshot()
        layers["service.snapshot_s"] = perf_counter() - start
        layers["service.snapshot_bytes"] = len(json.dumps(snapshot))
        start = perf_counter()
        type(service).restore(snapshot, service.config, machines=service.spec.machines)
        layers["service.restore_s"] = perf_counter() - start

    phase_wall = map_wall + reduce_wall
    layers["executors.parallel_efficiency"] = (
        tally.task_busy_ns / 1e9 / (workers * phase_wall) if phase_wall else 0.0
    )

    # Payloads the delegating executor handed back, pushed through the wire
    # format once more now that nothing is being timed.
    for payloads, encode, decode in (
        (tally.map_payloads, wire.encode_map_payload, wire.decode_map_payload),
        (tally.reduce_payloads, wire.encode_reduce_payload, wire.decode_reduce_payload),
    ):
        for payload in payloads:
            start = perf_counter()
            blob = encode(payload)
            encoded = perf_counter()
            decode(blob)
            layers["wire.encode_s"] += encoded - start
            layers["wire.decode_s"] += perf_counter() - encoded
            layers["wire.payload_bytes"] += len(blob)
            layers["wire.raw_bytes"] += wire.raw_pickle_size(payload)
    if layers["wire.payload_bytes"]:
        layers["wire.ratio"] = layers["wire.raw_bytes"] / layers["wire.payload_bytes"]
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="traced pass: record spans, write the Chrome trace here")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"child: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"child: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    load_start = os.getloadavg()[0]
    tracer = tally = None
    if args.trace_out is not None:
        import spans

        tracer, tally = spans.SpanTracer(), spans.Tally()
        tracer.wrap(workloads, "generate", "data.generate")

    prepared = workloads.prepare(args.workload, args.seed, args.scale)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "traced": tracer is not None,
        "setup_s": perf_counter() - _STARTED,
    }
    if args.setup_only:
        record["host"] = host_fingerprint(load_start)
        print(json.dumps(record))
        return 0

    if tracer is not None:
        spans.install(
            tracer, tally,
            capture_payloads=isinstance(prepared, workloads.OneShot)
            and prepared.spec.backend == "process",
        )
    root = tracer.span("run") if tracer is not None else contextlib.nullcontext()
    start = perf_counter()
    with root:
        prepared.run()
    run_s = perf_counter() - start
    if tracer is not None:
        tracer.restore()

    failed = prepared.ops_failed
    record.update(
        run_s=run_s,
        ops_attempted=prepared.ops_attempted,
        errors=prepared.errors,
    )
    if prepared.latencies is not None and len(prepared.latencies) > 1:
        batches = prepared.latencies[1:]
        record["batch_p50_s"] = statistics.median(batches)
        record["batch_p90_s"] = percentile_90(batches)
    if prepared.produced:
        pairs = prepared.found_pairs()
        curve = prepared.curve()
        half = curve.time_to(0.5)
        record.update(
            digest=pair_digest(pairs),
            found_pairs=len(pairs),
            true_pairs=curve.num_true_pairs,
            final_recall=curve.final_recall,
            virt_makespan_vu=prepared.makespan(),
        )
        if half is None:  # never reaching half recall is a failed operation
            failed += 1
            record["errors"] = record["errors"] + ["recall never reached 0.5"]
        else:
            record["virt_t50_vu"] = half
        if not isinstance(prepared, workloads.OneShot):
            record["comparisons"] = prepared.service.total_comparisons
    record["ops_failed"] = failed
    if tracer is not None and prepared.produced:
        record["layers"] = layer_metrics(prepared, tracer, tally, run_s)
        tracer.write_chrome_trace(
            args.trace_out, process_name=f"{args.workload} seed={args.seed}"
        )
        record["trace_file"] = str(args.trace_out)
    record["peak_rss_mb"] = rss_mb(resource.RUSAGE_SELF)
    record["host"] = host_fingerprint(load_start)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
