"""Command-line interface.

Subcommands cover the common workflows:

* ``generate`` — write a synthetic dataset (with ground truth) to CSV or JSONL;
* ``run`` — resolve a dataset with one approach and print its recall curve;
* ``compare`` — our approach versus the Basic baseline side by side;
* ``serve`` — stream a JSONL entity file through the incremental
  :class:`~repro.service.resolver.ResolverService` in batches;
* ``submit`` — add one more batch to a saved service snapshot;
* ``sched`` — multi-tenant scheduler demo: Poisson arrivals of resolver
  batches from weighted tenants competing for shared slots;
* ``calibrate`` — fit the virtual cost model's constants to this host's
  wall clock and print the error band of the fit.

Examples::

    python -m repro generate --family citeseer --size 2000 --out ds.csv
    python -m repro run --dataset ds.csv --family citeseer --machines 10
    python -m repro run --family books --size 3000 --approach lpt
    python -m repro compare --family citeseer --size 1500 --threshold 0.01
    python -m repro run --family citeseer --size 1000 --trace trace.json --skew
    python -m repro compare --family books --size 800 --metrics metrics.json
    python -m repro run --family citeseer --size 1000 --fault-rate 0.1 --speculative
    python -m repro generate --family citeseer --size 900 --out ds.jsonl
    python -m repro serve --input ds.jsonl --batch-size 300 --snapshot-out state.json
    python -m repro submit --snapshot state.json --input more.jsonl --print-pairs
    python -m repro calibrate --family citeseer --size 800 --out calibration.json
    python -m repro run --family linkage --size 1200 --machines 6
    python -m repro run --family books --size 1500 --metablock bf --metablock-ratio 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .baselines import BasicConfig
from .core import (
    BALANCE_STRATEGIES,
    METABLOCK_MODES,
    books_config,
    citeseer_config,
    format_balance_summary,
    format_metablock_summary,
    linkage_config,
    people_config,
    skewed_config,
)
from .data import Dataset, make_books, make_citeseer, make_linkage, make_people, make_skewed
from .data.profile import format_profile, profile_dataset, suggest_blocking_order
from .evaluation import (
    ExperimentRun,
    RunSpec,
    format_curves,
    format_fault_summary,
    format_final_summary,
    sample_times,
)
from .evaluation.charts import ascii_chart
from .mapreduce import BACKENDS, FaultPlan, RetryPolicy, SpeculationConfig
from .mechanisms import PSNM, SortedNeighborHint
from .scheduling import AdmissionPolicy, JobScheduler, poisson_arrivals
from .service import ResolverService
from .service.rows import batch_rows, read_entity_rows
from .observability import (
    MetricsRegistry,
    Tracer,
    format_calibration_report,
    format_perf_report,
    format_sched_report,
    format_trace_summary,
    write_chrome_trace,
    write_trace_jsonl,
)

_FAMILIES = ("citeseer", "books", "people", "skewed", "linkage")


def _ranged(kind, low, high=None, *, above=False, below=False):
    """An argparse ``type``: a ``kind`` value ``>= low`` (``> low`` when
    ``above``) and ``<= high`` (``< high`` when ``below``), so out-of-range
    input is a usage error."""

    def parse(text: str):
        value = kind(text)
        # Written so that NaN fails every comparison and is rejected too.
        in_range = (value > low if above else value >= low) and (
            high is None or (value < high if below else value <= high)
        )
        if not in_range:
            if high is not None:
                bound = f"in {'(' if above else '['}{low}, {high}{')' if below else ']'}"
            else:
                bound = f"{'>' if above else '>='} {low}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return parse


_COUNT = _ranged(int, 1)
_PROBABILITY = _ranged(float, 0, 1)
#: Basic's popcorn threshold: both ends open.
_POPCORN = _ranged(float, 0, 1, above=True, below=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel progressive entity resolution (ICDE'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to CSV/JSONL")
    gen.set_defaults(handler=_command_generate)
    gen.add_argument("--family", choices=_FAMILIES, default="citeseer")
    gen.add_argument("--size", type=_COUNT, default=2000)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument(
        "--out", required=True,
        help="output path (.jsonl writes one entity object per line for "
        "`serve`/`submit`; anything else writes CSV)",
    )

    run = sub.add_parser("run", help="resolve a dataset progressively")
    run.set_defaults(handler=_command_run)
    _add_dataset_options(run)
    run.add_argument(
        "--approach",
        choices=("ours", "nosplit", "lpt", "basic"),
        default="ours",
    )
    run.add_argument("--machines", type=_COUNT, default=10)
    run.add_argument(
        "--window", type=_ranged(int, 2), default=15, help="Basic's SN window"
    )
    run.add_argument(
        "--threshold", type=_POPCORN, default=None, help="Basic's popcorn threshold"
    )
    run.add_argument("--points", type=_COUNT, default=10, help="curve sample points")
    _add_backend_options(run)
    _add_metablock_options(run)
    _add_fault_options(run)
    _add_observability_options(run)
    _add_report_options(run)

    compare = sub.add_parser("compare", help="ours vs the Basic baseline")
    compare.set_defaults(handler=_command_compare)
    _add_dataset_options(compare)
    compare.add_argument("--machines", type=_COUNT, default=10)
    compare.add_argument("--window", type=_ranged(int, 2), default=15)
    compare.add_argument(
        "--threshold",
        type=_POPCORN,
        action="append",
        dest="thresholds",
        help="popcorn threshold (repeatable); Basic F always included",
    )
    compare.add_argument("--points", type=_COUNT, default=10)
    compare.add_argument("--chart", action="store_true", help="ASCII chart output")
    _add_backend_options(compare)
    _add_metablock_options(compare)
    _add_fault_options(compare)
    _add_observability_options(compare)
    _add_report_options(compare)

    profile = sub.add_parser(
        "profile", help="profile a dataset's attributes and blocking keys"
    )
    profile.set_defaults(handler=_command_profile)
    _add_dataset_options(profile)

    serve = sub.add_parser(
        "serve",
        help="stream a JSONL entity file through the incremental resolver",
    )
    serve.set_defaults(handler=_command_serve)
    serve.add_argument("--family", choices=_FAMILIES, default="citeseer")
    serve.add_argument(
        "--input", default="-",
        help="JSONL entity stream, one {id, attrs...} object per line "
        "('-' reads stdin; `generate --out x.jsonl` writes this format)",
    )
    serve.add_argument(
        "--batch-size", type=_COUNT, default=200,
        help="entities per submitted batch (a `batch` field in the input "
        "overrides this grouping)",
    )
    serve.add_argument("--machines", type=_COUNT, default=4)
    serve.add_argument(
        "--min-family-matches", type=_COUNT, default=2,
        help="key families that must agree before a pair is compared "
        "(clamped to the scheme's family count)",
    )
    serve.add_argument(
        "--snapshot-out", metavar="PATH", default=None,
        help="write the final service snapshot as JSON (feed to `submit`)",
    )
    serve.add_argument(
        "--print-pairs", action="store_true",
        help="print every newly found pair as it is discovered",
    )
    _add_backend_options(serve)
    _add_fault_options(serve)
    _add_observability_options(serve)
    _add_report_options(serve)

    submit = sub.add_parser(
        "submit",
        help="submit one more batch to a saved resolver-service snapshot",
    )
    submit.set_defaults(handler=_command_submit)
    submit.add_argument("--family", choices=_FAMILIES, default="citeseer")
    submit.add_argument(
        "--snapshot", required=True, metavar="PATH",
        help="service snapshot written by `serve --snapshot-out` (or a "
        "previous `submit`)",
    )
    submit.add_argument("--input", default="-", help="JSONL batch to submit")
    submit.add_argument("--machines", type=_COUNT, default=4)
    submit.add_argument("--min-family-matches", type=_COUNT, default=2)
    submit.add_argument(
        "--snapshot-out", metavar="PATH", default=None,
        help="where to write the updated snapshot (default: overwrite "
        "--snapshot)",
    )
    submit.add_argument("--print-pairs", action="store_true")
    _add_backend_options(submit)
    _add_fault_options(submit)
    _add_observability_options(submit)
    _add_report_options(submit)

    sched = sub.add_parser(
        "sched",
        help="multi-tenant scheduler demo: Poisson arrivals of resolver "
        "batches competing for shared slots",
    )
    sched.set_defaults(handler=_command_sched)
    sched.add_argument("--family", choices=_FAMILIES, default="citeseer")
    sched.add_argument("--size", type=_COUNT, default=240, help="total entities")
    sched.add_argument("--seed", type=int, default=7)
    sched.add_argument("--jobs", type=_COUNT, default=9, help="arrivals to draw")
    sched.add_argument(
        "--rate", type=_ranged(float, 0, above=True), default=0.02,
        help="Poisson arrival rate (jobs per virtual time unit)",
    )
    sched.add_argument("--machines", type=_COUNT, default=4)
    sched.add_argument("--policy", choices=("fair", "fifo"), default="fair")
    sched.add_argument(
        "--tenants", type=_COUNT, default=3,
        help="number of tenants (weights 1..N, one service each)",
    )
    sched.add_argument(
        "--interactive-fraction", type=_PROBABILITY, default=0.3,
        help="probability an arrival lands in the interactive lane",
    )
    sched.add_argument(
        "--max-queued", type=_COUNT, default=None,
        help="per-tenant cap on unfinished submissions (admission control)",
    )
    sched.add_argument(
        "--max-active", type=_COUNT, default=None,
        help="cluster-wide cap on concurrently running jobs",
    )
    sched.add_argument(
        "--report-out", metavar="PATH", default=None,
        help="write the scheduler report (outcomes, tenants, percentiles) "
        "as JSON",
    )
    _add_observability_options(sched)

    calibrate = sub.add_parser(
        "calibrate",
        help="fit the cost model's virtual-unit prices to real wall clock",
    )
    calibrate.add_argument("--family", choices=_FAMILIES, default="citeseer")
    calibrate.add_argument("--size", type=_COUNT, default=800)
    calibrate.add_argument("--seed", type=int, default=7)
    calibrate.add_argument("--machines", type=_COUNT, default=4)
    calibrate.add_argument(
        "--repeats", type=_COUNT, default=1,
        help="run the workload this many times and fit over all tasks "
        "(more samples, steadier fit)",
    )
    calibrate.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the calibration report (fitted constants, error band) "
        "as JSON",
    )
    _add_backend_options(calibrate)
    _add_metablock_options(calibrate)
    calibrate.set_defaults(handler=_command_calibrate, backend="process")
    for command in sub.choices.values():
        # A bad value propagates to the top-level parser, so every usage
        # error reads `repro: error: …`.
        command.exit_on_error = False
    return parser


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=_FAMILIES, default="citeseer")
    parser.add_argument("--size", type=_COUNT, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--dataset", default=None, help="CSV written by `generate`")


def _add_backend_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="execution backend for the simulator's tasks (virtual-time "
        "results are identical; `process` fans tasks out to worker "
        "processes for wall-clock speed)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --backend process (default: CPU count)",
    )
    parser.add_argument(
        "--balance",
        choices=BALANCE_STRATEGIES,
        default="slack",
        help="load-balancing post-pass over the progressive schedule: "
        "`slack` (paper baseline), `blocksplit` (shard oversized root "
        "blocks, LPT placement), `pairrange` (global PairRange: cut the "
        "whole estimated pair stream into equal contiguous ranges, "
        "splitting blocks where cuts land); resolved output is identical "
        "across strategies",
    )


def _add_metablock_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metablock",
        choices=METABLOCK_MODES,
        default="off",
        help="meta-blocking pre-pass between blocking and scheduling: "
        "`off` (default), `bf` (block filtering: each entity keeps its "
        "--metablock-ratio smallest level-1 blocks), `wnp` (weighted "
        "node pruning: drop candidate pairs below both endpoints' mean "
        "edge weight)",
    )
    parser.add_argument(
        "--metablock-ratio",
        type=_ranged(float, 0, 1, above=True),
        default=None,
        metavar="R",
        help="block-filtering retention ratio in (0, 1] for --metablock "
        "bf (default 0.8; note ceil(R*k) rounds up, so 0.8 keeps all 3 "
        "blocks of a 3-family scheme — use 0.5 for real pruning there)",
    )


def _add_fault_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault plan (default: 0)",
    )
    parser.add_argument(
        "--fault-rate",
        type=_PROBABILITY,
        default=0.0,
        help="probability that any task attempt crashes partway and is "
        "retried (0 disables fault injection)",
    )
    parser.add_argument(
        "--straggler-rate",
        type=_PROBABILITY,
        default=0.0,
        help="probability that a slot is a straggler",
    )
    parser.add_argument(
        "--straggler-factor",
        type=_ranged(float, 1),
        default=3.0,
        help="cost multiplier of a straggler slot (default: 3)",
    )
    parser.add_argument(
        "--speculative",
        action="store_true",
        help="enable Hadoop-style speculative execution (backup attempts "
        "for straggling tasks; first finisher wins)",
    )


def _fault_plan(args: argparse.Namespace) -> FaultPlan:
    """The seeded FaultPlan the CLI flags describe (inert at the defaults,
    which places tasks exactly as a run with no plan does)."""
    return FaultPlan(
        seed=args.fault_seed,
        fault_rate=args.fault_rate,
        straggler_rate=args.straggler_rate,
        straggler_factor=args.straggler_factor,
        retry=RetryPolicy(),
        speculation=SpeculationConfig(enabled=args.speculative),
    )


def _add_observability_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a trace of the run(s): Chrome trace_event JSON "
        "(open in chrome://tracing or ui.perfetto.dev), or a JSONL "
        "event log when PATH ends in .jsonl",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write per-phase counter snapshots (engine.*/driver.*/"
        "balance.*) as JSON",
    )


def _add_report_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--skew",
        action="store_true",
        help="print a per-task Gantt/skew summary of the trace "
        "(implies tracing)",
    )
    parser.add_argument(
        "--perf-report",
        action="store_true",
        help="print a per-phase runtime cost table (wall clock, task "
        "fan-out, wire bytes, pool forks, worker idle time; implies "
        "metrics collection)",
    )


def _observers(args: argparse.Namespace):
    """(tracer, metrics) from the CLI flags; None when not requested."""
    want_trace = args.trace is not None or getattr(args, "skew", False)
    tracer = Tracer() if want_trace else None
    want_metrics = args.metrics is not None or getattr(args, "perf_report", False)
    metrics = MetricsRegistry() if want_metrics else None
    return tracer, metrics


def _write_observations(args: argparse.Namespace, tracer, metrics) -> None:
    if tracer is not None and args.trace is not None:
        if args.trace.endswith(".jsonl"):
            write_trace_jsonl(tracer, args.trace)
        else:
            write_chrome_trace(tracer, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if metrics is not None and args.metrics is not None:
        metrics.write_json(args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    if tracer is not None and getattr(args, "skew", False):
        print()
        print(format_trace_summary(tracer))
    if metrics is not None and getattr(args, "perf_report", False):
        print()
        print(format_perf_report(metrics))


_MAKERS = {
    "citeseer": make_citeseer,
    "books": make_books,
    "people": make_people,
    "skewed": make_skewed,
    "linkage": make_linkage,
}
_CONFIGS = {
    "citeseer": citeseer_config,
    "books": books_config,
    "people": people_config,
    "skewed": skewed_config,
    "linkage": linkage_config,
}


def _load_dataset(args: argparse.Namespace) -> Dataset:
    if args.dataset is not None:
        return Dataset.from_csv(args.dataset, name=args.family)
    return _MAKERS[args.family](args.size, seed=args.seed)


def _progressive_config(family: str, args: argparse.Namespace):
    overrides = {}
    if args.metablock_ratio is not None:
        overrides["metablock_ratio"] = args.metablock_ratio
    return _CONFIGS[family](**overrides)


def _basic_config(family: str, window: int, threshold: Optional[float]) -> BasicConfig:
    config = _CONFIGS[family]()
    mechanism = SortedNeighborHint() if family == "citeseer" else PSNM()
    return BasicConfig(
        scheme=config.scheme,
        matcher=config.matcher,
        mechanism=mechanism,
        window=window,
        popcorn_threshold=threshold,
    )


def _command_generate(args: argparse.Namespace) -> int:
    dataset = _MAKERS[args.family](args.size, seed=args.seed)
    if args.out.endswith(".jsonl"):
        with open(args.out, "w", encoding="utf-8") as handle:
            for entity in dataset.entities:
                row = {"id": entity.id, **entity.attrs}
                if entity.source is not None:
                    row["source"] = entity.source
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        dataset.to_csv(args.out)
    print(
        f"wrote {len(dataset)} {args.family} entities "
        f"({dataset.num_true_pairs} duplicate pairs) to {args.out}"
    )
    return 0


def _run_spec(args: argparse.Namespace, config, **overrides) -> RunSpec:
    """A RunSpec wired from the shared CLI options."""
    metablock = args.metablock
    if isinstance(config, BasicConfig):
        # The baseline has no schedule to prune; RunSpec.validate rejects
        # the combination, so the flag silently stays off for Basic runs.
        metablock = "off"
    return RunSpec(
        dataset=overrides.pop("dataset"),
        config=config,
        machines=args.machines,
        balance=getattr(args, "balance", "slack"),
        backend=getattr(args, "backend", None),
        workers=getattr(args, "workers", None),
        faults=_fault_plan(args) if hasattr(args, "fault_rate") else None,
        metablock=metablock,
        **overrides,
    )


def _command_run(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    tracer, metrics = _observers(args)
    if args.approach == "basic":
        config = _basic_config(args.family, args.window, args.threshold)
        spec = _run_spec(args, config, dataset=dataset, tracer=tracer, metrics=metrics)
    else:
        spec = _run_spec(
            args,
            _progressive_config(args.family, args),
            dataset=dataset,
            strategy=args.approach,
            tracer=tracer,
            metrics=metrics,
        )
    run = ExperimentRun(spec).run()
    times = sample_times(run.total_time, points=args.points)
    print(format_curves([run], times, title=f"{run.label} on {dataset.name}"))
    print()
    print(format_final_summary([run]))
    faults = format_fault_summary([run])
    if faults:
        print()
        print(faults)
    plan = getattr(run.result, "balance", None)
    if plan is not None and (args.balance != "slack" or args.skew):
        print()
        print(format_balance_summary(plan))
    mb_plan = getattr(run.result, "metablock", None)
    if mb_plan is not None:
        print()
        print(format_metablock_summary(mb_plan))
    _write_observations(args, tracer, metrics)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    tracer, metrics = _observers(args)
    specs = [
        _run_spec(
            args,
            _progressive_config(args.family, args),
            dataset=dataset,
            label="ours",
            tracer=tracer,
            metrics=metrics,
        )
    ]
    thresholds: List[Optional[float]] = [None] + list(args.thresholds or [])
    for threshold in thresholds:
        config = _basic_config(args.family, args.window, threshold)
        specs.append(
            _run_spec(args, config, dataset=dataset, tracer=tracer, metrics=metrics)
        )
    runs = [ExperimentRun(spec).run() for spec in specs]
    horizon = runs[0].total_time
    if args.chart:
        print(ascii_chart(runs, horizon=horizon, title=f"recall vs time — {dataset.name}"))
    else:
        print(
            format_curves(
                runs, sample_times(horizon, points=args.points),
                title=f"recall vs time — {dataset.name}",
            )
        )
    print()
    print(format_final_summary(runs))
    faults = format_fault_summary(runs)
    if faults:
        print()
        print(faults)
    _write_observations(args, tracer, metrics)
    return 0


def _service_options(args: argparse.Namespace, tracer, metrics) -> dict:
    """The ResolverService keywords `serve` and `submit` share."""
    return dict(
        machines=args.machines,
        balance=args.balance,
        min_family_matches=args.min_family_matches,
        backend=args.backend,
        workers=args.workers,
        tracer=tracer,
        metrics=metrics,
        faults=_fault_plan(args),
    )


def _read_rows(path: str, taken=()):
    """The input's entity rows, or exit with the reader's one-line error."""
    try:
        return read_entity_rows(path, taken)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _print_receipt(receipt, print_pairs: bool) -> None:
    print(
        f"batch {receipt.batch}: +{receipt.added} entities, "
        f"{receipt.affected_blocks} affected blocks, "
        f"{receipt.comparisons} comparisons, "
        f"{receipt.duplicates} new pairs, "
        f"t=[{receipt.start_time:.1f}, {receipt.end_time:.1f}]"
    )
    if print_pairs:
        for pair in receipt.pairs:
            print(f"  pair {pair[0]} = {pair[1]}")


def _print_service_summary(service) -> None:
    stats = service.stats()
    print(
        f"service: {stats['entities']} entities in {stats['batches']} batches, "
        f"{stats['blocks']} blocks, {stats['comparisons']} comparisons, "
        f"{stats['found_pairs']} pairs in {stats['clusters']} clusters, "
        f"virtual time {stats['virtual_time']:.1f}"
    )


def _write_service_snapshot(service, path: Optional[str]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(service.snapshot(), handle)
    print(f"snapshot written to {path}", file=sys.stderr)


def _command_serve(args: argparse.Namespace) -> int:
    tracer, metrics = _observers(args)
    service = ResolverService(
        _CONFIGS[args.family](), **_service_options(args, tracer, metrics)
    )
    for batch in batch_rows(_read_rows(args.input), args.batch_size):
        receipt = service.submit(batch)
        _print_receipt(receipt, args.print_pairs)
    _print_service_summary(service)
    _write_service_snapshot(service, args.snapshot_out)
    _write_observations(args, tracer, metrics)
    return 0


def _command_submit(args: argparse.Namespace) -> int:
    tracer, metrics = _observers(args)
    try:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        service = ResolverService.restore(
            snapshot, _CONFIGS[args.family](), **_service_options(args, tracer, metrics)
        )
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise SystemExit(f"{args.snapshot}: not a usable snapshot: {exc}")
    receipt = service.submit(
        [entity for _, entity in _read_rows(args.input, service.store)]
    )
    _print_receipt(receipt, args.print_pairs)
    _print_service_summary(service)
    _write_service_snapshot(
        service, args.snapshot_out if args.snapshot_out else args.snapshot
    )
    _write_observations(args, tracer, metrics)
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    profile = profile_dataset(dataset)
    print(format_profile(profile))
    order = suggest_blocking_order(profile)
    if order:
        print()
        print("suggested dominance order: " + " > ".join(order))
    return 0


def _command_calibrate(args: argparse.Namespace) -> int:
    """Fit the cost model's virtual-unit prices to this host's wall clock.

    Runs the progressive approach on a synthetic workload (the process
    backend by default, so tasks execute in real worker processes), pools
    every task's recorded wall time and charge profile, and fits
    seconds-per-virtual-unit prices by least squares.  The printed report
    includes the fitted CostModel ratios this machine implies and the
    median-APE error band; nothing feeds back into virtual time.
    """
    from .core import calibration_report, fit_cost_model, task_samples

    dataset = _MAKERS[args.family](args.size, seed=args.seed)
    config = _progressive_config(args.family, args)
    samples = []
    for _ in range(args.repeats):
        experiment = ExperimentRun(_run_spec(args, config, dataset=dataset))
        run = experiment.run()
        samples.extend(task_samples([run.result.job1, run.result.job2]))
    try:
        fit = fit_cost_model(samples)
    except ValueError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 2
    report = calibration_report(
        fit,
        workload={
            "family": args.family,
            "size": args.size,
            "seed": args.seed,
            "machines": args.machines,
            "repeats": args.repeats,
        },
        # What the executor ran: the serial one has no workers, the process
        # one defaults to the CPUs its affinity mask allows.
        workers=getattr(experiment.cluster.executor, "workers", 1),
        backend=args.backend,
    )
    print(format_calibration_report(report))
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"calibration report written to {args.out}", file=sys.stderr)
    return 0


def _command_sched(args: argparse.Namespace) -> int:
    """Drive the multi-tenant scheduler over a seeded Poisson trace.

    Builds one :class:`~repro.service.ResolverService` per tenant
    (weights 1..N), slices the synthetic dataset into one batch per
    arrival, and submits each batch at its drawn arrival time and lane.
    Everything is virtual time, so the same seed reproduces the same
    report on every machine and backend.
    """
    dataset = _MAKERS[args.family](args.size, seed=args.seed)
    config = _CONFIGS[args.family]()
    tracer, metrics = _observers(args)

    tenants = [f"tenant-{i}" for i in range(args.tenants)]
    scheduler = JobScheduler(
        machines=args.machines,
        policy=args.policy,
        admission=AdmissionPolicy(
            max_queued=args.max_queued, max_active=args.max_active
        ),
        tracer=tracer,
        metrics=metrics,
    )
    services = {}
    for position, tenant in enumerate(tenants):
        scheduler.add_tenant(tenant, weight=float(position + 1))
        services[tenant] = ResolverService(
            config,
            machines=args.machines,
            scheduler=scheduler,
            tenant=tenant,
            label=tenant,
        )
    trace = poisson_arrivals(
        seed=args.seed,
        rate=args.rate,
        count=args.jobs,
        tenants=tenants,
        interactive_fraction=args.interactive_fraction,
    )
    chunk = max(1, len(dataset) // args.jobs)
    for arrival in trace:
        batch = dataset.entities[arrival.index * chunk:(arrival.index + 1) * chunk]
        if not batch:
            break
        scheduler.submit_batch(
            services[arrival.tenant],
            batch,
            arrival=arrival.time,
            lane=arrival.lane,
            label=f"job-{arrival.index}",
        )
    report = scheduler.run()
    print(format_sched_report(report))
    total_pairs = sum(len(s.found_pairs) for s in services.values())
    print(f"\n{total_pairs} pairs found across {len(services)} tenant services")
    if args.report_out is not None:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"report written to {args.report_out}", file=sys.stderr)
    _write_observations(args, tracer, metrics)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as error:
        # Option combinations only RunSpec.validate() can judge are usage
        # errors like any other: one line and exit 2, not a traceback.
        if not str(error).startswith("invalid RunSpec: "):
            raise
        parser.error(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["main"]
