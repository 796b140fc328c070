"""Command-line interface.

Subcommands cover the common workflows:

* ``generate`` — write a synthetic dataset (with ground truth) as JSONL rows;
* ``run`` — resolve a dataset with one approach and print its recall curve;
* ``compare`` — our approach versus the Basic baseline side by side;
* ``profile`` — profile a dataset's attributes and suggest a blocking order;
* ``serve`` — stream a JSONL entity file through the incremental
  :class:`~repro.service.resolver.ResolverService` in batches;
* ``submit`` — add one more batch to a saved service snapshot.

Examples::

    python -m repro generate --family citeseer --size 2000 --out ds.jsonl
    python -m repro run --dataset ds.jsonl --family citeseer --machines 10
    python -m repro run --family books --size 3000 --approach lpt
    python -m repro compare --family citeseer --size 1500 --threshold 0.01
    python -m repro run --family citeseer --size 1000 --trace trace.json --skew
    python -m repro compare --family books --size 800 --metrics metrics.json
    python -m repro run --family citeseer --size 1000 --fault-rate 0.1 --skew
    python -m repro serve --input ds.jsonl --batch-size 300 --snapshot-out state.json
    python -m repro submit --snapshot state.json --input more.jsonl --print-pairs
    python -m repro run --family linkage --size 1200 --machines 6
    python -m repro run --family books --size 1500 --metablock bf --metablock-ratio 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

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
from .data.rows import batch_rows, read_dataset, read_entity_rows, write_dataset
from .evaluation import (
    ExperimentRun,
    RunSpec,
    format_curves,
    format_fault_summary,
    format_final_summary,
    sample_times,
)
from .evaluation.charts import ascii_chart
from .mapreduce import BACKENDS, FaultPlan, JobAbortedError
from .service import ResolverService
from .observability import (
    MetricsRegistry,
    Tracer,
    format_perf_report,
    format_trace_summary,
    write_chrome_trace,
)

#: Each family's synthetic-dataset maker and approach configuration.
_FAMILIES = {
    "citeseer": (make_citeseer, citeseer_config),
    "books": (make_books, books_config),
    "people": (make_people, people_config),
    "skewed": (make_skewed, skewed_config),
    "linkage": (make_linkage, linkage_config),
}


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

    gen = sub.add_parser("generate", help="write a synthetic dataset as JSONL rows")
    gen.set_defaults(handler=_command_generate)
    _add_synthetic_options(gen)
    gen.add_argument(
        "--out", required=True,
        help="output path: one JSON entity row per line, with its "
        "ground-truth `cluster` (read by `--dataset`, `serve` and `submit`)",
    )

    run = _add_resolve_command(sub, "run", "resolve a dataset progressively")
    run.add_argument(
        "--approach",
        choices=("ours", "nosplit", "lpt", "basic"),
        default="ours",
    )
    run.add_argument(
        "--threshold", type=_POPCORN, default=None,
        help="Basic's popcorn threshold (needs --approach basic)",
    )

    compare = _add_resolve_command(sub, "compare", "ours vs the Basic baseline")
    compare.add_argument(
        "--threshold",
        type=_POPCORN,
        action="append",
        dest="thresholds",
        help="popcorn threshold (repeatable); Basic F always included",
    )
    compare.add_argument("--chart", action="store_true", help="ASCII chart output")

    profile = sub.add_parser(
        "profile", help="profile a dataset's attributes and blocking keys"
    )
    profile.set_defaults(handler=_command_profile)
    _add_dataset_options(profile)

    serve = _add_service_command(
        sub, "serve", _command_serve,
        "stream a JSONL entity file through the incremental resolver",
        snapshot_out="write the final service snapshot as JSON (feed to `submit`)",
    )
    serve.add_argument(
        "--batch-size", type=_COUNT, default=200,
        help="entities per submitted batch (a `batch` field in the input "
        "overrides this grouping)",
    )

    submit = _add_service_command(
        sub, "submit", _command_submit,
        "submit one more batch to a saved resolver-service snapshot",
        snapshot_out="where to write the updated snapshot (default: overwrite "
        "--snapshot)",
    )
    submit.add_argument(
        "--snapshot", required=True, metavar="PATH",
        help="service snapshot written by `serve --snapshot-out` (or a "
        "previous `submit`)",
    )

    for command in sub.choices.values():
        # A bad value propagates to the top-level parser, so every usage
        # error reads `repro: error: …`.
        command.exit_on_error = False
    return parser


def _add_synthetic_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=_FAMILIES, default="citeseer")
    parser.add_argument("--size", type=_COUNT, default=2000)
    parser.add_argument("--seed", type=int, default=7)


def _add_dataset_options(parser: argparse.ArgumentParser) -> None:
    _add_synthetic_options(parser)
    parser.add_argument(
        "--dataset", default=None,
        help="JSONL entity rows, as `generate` writes them (`run` and "
        "`compare` need each row's `cluster` ground truth)",
    )


def _add_resolve_command(sub, name: str, summary: str) -> argparse.ArgumentParser:
    """A `run` or `compare` parser with the options the two share."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(handler=_command_resolve)
    _add_dataset_options(parser)
    parser.add_argument("--machines", type=_COUNT, default=10)
    parser.add_argument(
        "--window", type=_ranged(int, 2), default=None,
        help="Basic's SN window (default 15)",
    )
    parser.add_argument("--points", type=_COUNT, default=10, help="curve sample points")
    _add_backend_options(parser)
    _add_schedule_options(parser)
    _add_run_observers(parser)
    return parser


def _add_service_command(
    sub, name: str, handler, summary: str, *, snapshot_out: str
) -> argparse.ArgumentParser:
    """A `serve` or `submit` parser with the options the two share."""
    parser = sub.add_parser(name, help=summary)
    parser.set_defaults(handler=handler)
    parser.add_argument("--family", choices=_FAMILIES, default="citeseer")
    parser.add_argument(
        "--input", default="-",
        help="JSONL entity stream, one {id, attrs...} object per line "
        "('-' reads stdin; `generate --out x.jsonl` writes this format)",
    )
    parser.add_argument("--machines", type=_COUNT, default=4)
    parser.add_argument(
        "--min-family-matches", type=_COUNT, default=2,
        help="key families that must agree before a pair is compared "
        "(clamped to the scheme's family count)",
    )
    parser.add_argument(
        "--snapshot-out", metavar="PATH", default=None, help=snapshot_out
    )
    parser.add_argument(
        "--print-pairs", action="store_true",
        help="print every newly found pair as it is discovered",
    )
    _add_backend_options(parser)
    _add_run_observers(parser)
    return parser


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


def _add_schedule_options(parser: argparse.ArgumentParser) -> None:
    """The progressive schedule's balance post-pass and meta-blocking
    pre-pass."""
    parser.add_argument(
        "--balance",
        choices=BALANCE_STRATEGIES,
        default=None,
        help="load-balancing post-pass over the progressive schedule: "
        "`slack` (paper baseline) or `pairrange` (global PairRange: cut "
        "the whole estimated pair stream into equal contiguous ranges, "
        "splitting blocks where cuts land); resolved output is identical "
        "across strategies",
    )
    parser.add_argument(
        "--metablock",
        choices=METABLOCK_MODES,
        default=None,
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


def _add_run_observers(parser: argparse.ArgumentParser) -> None:
    """Fault injection, trace and metrics files, and the printed reports."""
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
        "--trace",
        metavar="PATH",
        default=None,
        help="write a trace of the run(s) as Chrome trace_event JSON "
        "(open in chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write per-phase counter snapshots (engine.*/driver.*/"
        "balance.*) as JSON",
    )
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


def _ignored_flag(args: argparse.Namespace) -> Optional[str]:
    """Why a flag given to ``args.command`` would change nothing, or None."""
    if args.command == "run":
        if args.approach == "basic":
            dests = ("balance", "metablock", "metablock_ratio")
            why = "Basic has no progressive schedule"
        else:
            dests, why = ("window", "threshold"), "it sets up the Basic baseline"
        for dest in dests:
            if getattr(args, dest) is not None:
                flag = "--" + dest.replace("_", "-")
                return f"{flag} is not read by --approach {args.approach}: {why}"
    if getattr(args, "metablock_ratio", None) is not None and args.metablock != "bf":
        return "--metablock-ratio is block filtering's ratio; it needs --metablock bf"
    if getattr(args, "workers", None) is not None and args.backend != "process":
        return "--workers sizes the process pool; it needs --backend process"
    return None


def _fault_plan(args: argparse.Namespace) -> FaultPlan:
    """The seeded FaultPlan the CLI flags describe (inert at the defaults,
    which places tasks exactly as a run with no plan does)."""
    return FaultPlan(seed=args.fault_seed, fault_rate=args.fault_rate)


def _observers(args: argparse.Namespace):
    """(tracer, metrics) from the CLI flags; None when not requested."""
    tracer = Tracer() if args.trace is not None or args.skew else None
    want_metrics = args.metrics is not None or args.perf_report
    metrics = MetricsRegistry() if want_metrics else None
    return tracer, metrics


def _write_observations(args: argparse.Namespace, tracer, metrics) -> None:
    if tracer is not None and args.trace is not None:
        write_chrome_trace(tracer, args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if metrics is not None and args.metrics is not None:
        metrics.write_json(args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    if tracer is not None and args.skew:
        print()
        print(format_trace_summary(tracer))
    if metrics is not None and args.perf_report:
        print()
        print(format_perf_report(metrics))


def _synthetic(args: argparse.Namespace) -> Dataset:
    make_dataset, _ = _FAMILIES[args.family]
    return make_dataset(args.size, seed=args.seed)


def _family_config(args: argparse.Namespace, **overrides):
    _, make_config = _FAMILIES[args.family]
    return make_config(**overrides)


def _load_dataset(args: argparse.Namespace, *, truth: bool = True) -> Dataset:
    """The --dataset file, or the synthetic dataset; with ``truth`` the
    file's rows must carry ground truth, since recall is measured on it."""
    if args.dataset is None:
        return _synthetic(args)
    dataset = _or_exit(read_dataset, args.dataset, args.family)
    if truth and not dataset.has_ground_truth:
        raise SystemExit(
            f"{args.dataset}: no row has a 'cluster' field; `{args.command}` "
            "measures recall against that ground truth"
        )
    return dataset


def _progressive_config(args: argparse.Namespace):
    if args.metablock_ratio is None:
        return _family_config(args)
    return _family_config(args, metablock_ratio=args.metablock_ratio)


def _basic_config(args: argparse.Namespace, threshold: Optional[float]) -> BasicConfig:
    window = {} if args.window is None else {"window": args.window}
    return BasicConfig(_family_config(args), popcorn_threshold=threshold, **window)


def _command_generate(args: argparse.Namespace) -> int:
    dataset = _synthetic(args)
    write_dataset(dataset, args.out)
    print(
        f"wrote {len(dataset)} {args.family} entities "
        f"({dataset.num_true_pairs} duplicate pairs) to {args.out}"
    )
    return 0


def _command_resolve(args: argparse.Namespace) -> int:
    """`run` prints one approach's recall curve; `compare` prints ours next
    to Basic F and Basic under each --threshold."""
    dataset = _load_dataset(args)
    tracer, metrics = _observers(args)
    # Only ours reads the schedule options; Basic has no schedule.
    schedule = {"balance": args.balance or "slack", "metablock": args.metablock or "off"}
    if args.command == "compare":
        variants = [(_progressive_config(args), {"label": "ours", **schedule})] + [
            (_basic_config(args, threshold), {})
            for threshold in [None, *(args.thresholds or [])]
        ]
    elif args.approach == "basic":
        variants = [(_basic_config(args, args.threshold), {})]
    else:
        variants = [(_progressive_config(args), {"strategy": args.approach, **schedule})]
    shared = dict(
        dataset=dataset, machines=args.machines, backend=args.backend,
        workers=args.workers, tracer=tracer, metrics=metrics, faults=_fault_plan(args),
    )
    specs = [RunSpec(config=config, **shared, **options) for config, options in variants]
    runs = [ExperimentRun(spec).run() for spec in specs]
    horizon = runs[0].total_time
    if args.command == "run":
        title = f"{runs[0].label} on {dataset.name}"
    else:
        title = f"recall vs time — {dataset.name}"
    if getattr(args, "chart", False):
        print(ascii_chart(runs, horizon=horizon, title=title))
    else:
        times = sample_times(horizon, points=args.points)
        print(format_curves(runs, times, title=title))
    sections = [format_final_summary(runs), format_fault_summary(runs)]
    if args.command == "run":
        plan = getattr(runs[0].result, "balance", None)
        if plan is not None and (plan.strategy != "slack" or args.skew):
            sections.append(format_balance_summary(plan))
        mb_plan = getattr(runs[0].result, "metablock", None)
        if mb_plan is not None:
            sections.append(format_metablock_summary(mb_plan))
    for section in filter(None, sections):
        print()
        print(section)
    _write_observations(args, tracer, metrics)
    return 0


def _service_options(args: argparse.Namespace, tracer, metrics) -> dict:
    """The ResolverService keywords `serve` and `submit` share."""
    return dict(
        machines=args.machines,
        min_family_matches=args.min_family_matches,
        backend=args.backend,
        workers=args.workers,
        tracer=tracer,
        metrics=metrics,
        faults=_fault_plan(args),
    )


def _or_exit(read, *args):
    """``read(*args)``, or exit with the reader's one-line error."""
    try:
        return read(*args)
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
        _family_config(args), **_service_options(args, tracer, metrics)
    )
    for batch in batch_rows(_or_exit(read_entity_rows, args.input), args.batch_size):
        receipt = _or_exit(service.submit, batch)
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
            snapshot, _family_config(args), **_service_options(args, tracer, metrics)
        )
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        raise SystemExit(f"{args.snapshot}: not a usable snapshot: {exc}")
    receipt = _or_exit(
        service.submit,
        [row.entity for row in _or_exit(read_entity_rows, args.input, service.store)],
    )
    _print_receipt(receipt, args.print_pairs)
    _print_service_summary(service)
    _write_service_snapshot(
        service, args.snapshot_out if args.snapshot_out else args.snapshot
    )
    _write_observations(args, tracer, metrics)
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args, truth=False)
    profile = profile_dataset(dataset)
    print(format_profile(profile))
    order = suggest_blocking_order(profile)
    if order:
        print()
        print("suggested dominance order: " + " > ".join(order))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    ignored = _ignored_flag(args)
    if ignored is not None:
        parser.error(ignored)
    try:
        return args.handler(args)
    except JobAbortedError as error:
        # A task that exhausted its retry budget ends the run the way a
        # bad input file does: one line, exit 1.
        print(f"repro: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        # Option combinations only RunSpec.validate() can judge are usage
        # errors like any other: one line and exit 2, not a traceback.
        if not str(error).startswith("invalid RunSpec: "):
            raise
        parser.error(str(error))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["main"]
