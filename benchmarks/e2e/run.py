"""Wall-clock benchmark of the progressive-ER pipeline, end to end and by layer.

Two ways in, one way of measuring (a fresh ``child.py`` process per repeat,
one at a time):

* ``run.py`` — the whole table: every workload round-robin for ``--rounds``
  rounds with tracing off, one traced pass for the per-layer numbers, and a
  verification pass; prints every metric with unit, median, quartiles and
  sample count, and exits non-zero on a failed operation or check.
  ``--smoke`` shrinks it to seconds, ``--aa`` takes the rounds twice and
  compares the two sets against each metric's bound.
* ``run.py --workload W --seed N --seconds S --trace 0|1`` — what
  ``BENCHMARK.json`` tells the driver to call: one workload for a budget of
  ``S`` seconds, result as one JSON object on the last line.

See README.md beside this file for the glossary and how to run an A/B.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: A repeat that has not finished by then is a harness failure.
CHILD_TIMEOUT_S = 170

Record = Dict[str, Any]


def trace_path(workload: str) -> Path:
    return OUT / f"trace-{workload}.json"


class HarnessError(Exception):
    """The harness could not take a measurement (not a failed operation)."""


def launch(
    workload: str,
    seed: int,
    scale: int,
    *,
    trace_out: Optional[Path] = None,
    setup_only: bool = False,
) -> Record:
    """Run one repeat in a fresh child and return its record."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--scale", str(scale),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if setup_only:
        command.append("--setup-only")
    # One hash seed for every child: string hashing otherwise moves run
    # time by several percent from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload}: child exceeded {CHILD_TIMEOUT_S}s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise HarnessError(f"{workload}: child exited {done.returncode} without a record")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise HarnessError(f"{workload}: child's last line is not a record: {lines[-1]!r}") from None


# -- checks and statistics ---------------------------------------------------


def digest_failures(workload: str, seed: int, scale: int, records: Sequence[Record]) -> int:
    """Repeats whose found-pair digest is not the one expected: the recorded
    digest at the default seed and full size, the first repeat's otherwise."""
    digests = [r["digest"] for r in records if "digest" in r]
    if not digests:
        return 0
    expected = spec.EXPECTED_DIGEST.get(workload) if seed == 0 and scale == 1 else None
    reference = expected or digests[0]
    return sum(1 for digest in digests if digest != reference)


def operations(workload: str, seed: int, scale: int, records: Sequence[Record]) -> Tuple[int, int]:
    """(attempted, failed) over ``records``; a digest mismatch fails a run."""
    attempted = sum(r["ops_attempted"] for r in records)
    failed = sum(r["ops_failed"] for r in records)
    return attempted, failed + digest_failures(workload, seed, scale, records)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(set(values)) == 1:  # also spares exact metrics interpolation error
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_values(
    workload: str, records: Sequence[Record], *, degenerate_batches: bool = False
) -> Dict[str, List[float]]:
    """Metric name -> one value per untraced repeat, for the metrics defined
    on ``workload``.  The driver wants every metric on every workload: with
    ``degenerate_batches`` a one-shot workload reports its single timed call
    as its only batch, so both batch percentiles equal ``run_s``."""
    values: Dict[str, List[float]] = {}
    for metric in spec.END_TO_END:
        if spec.defined_on(metric, workload):
            values[metric.name] = [r[metric.name] for r in records if metric.name in r]
        elif degenerate_batches:
            values[metric.name] = [r["run_s"] for r in records if "run_s" in r]
    return values


def layer_values(untraced: Sequence[Record], traced: Sequence[Record]) -> Dict[str, float]:
    """Per-layer metric -> median over the traced repeats.

    Traced repeat ``i`` ran straight after untraced repeat ``i``, so the
    overhead is the median of their ratios: host drift slower than two
    runs cancels."""
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    layers["trace.overhead_frac"] = (
        statistics.median(t["run_s"] / u["run_s"] for t, u in zip(traced, untraced)) - 1.0
    )
    return layers


def largest_self_times(layers: Dict[str, float], count: int = 3) -> List[Tuple[str, float]]:
    """The ``count`` biggest self-time bars of a traced pass."""
    bars = {name: layers[name] for name in set(spec.SELF_TIME_OF.values())}
    return sorted(bars.items(), key=lambda bar: -bar[1])[:count]


def host_flags(records: Sequence[Record]) -> Dict[str, Any]:
    """The first repeat's fingerprint, stretched over all of them."""
    hosts = [r["host"] for r in records]
    return {
        **hosts[0],
        "load1_end": hosts[-1]["load1_end"],
        "noisy": any(h["noisy"] for h in hosts),
    }


# -- the driver's entry point --------------------------------------------------


def measure_one(workload: str, seed: int, scale: int, seconds: float, trace: bool) -> int:
    """One workload for a budget of ``seconds``; result on the last line."""
    untraced: List[Record] = []
    traced: List[Record] = []
    started = perf_counter()
    while True:
        repeat_started = perf_counter()
        untraced.append(launch(workload, seed, scale))
        if trace:
            traced.append(launch(workload, seed, scale, trace_out=trace_path(workload)))
        now = perf_counter()
        if (now - started) + (now - repeat_started) > seconds:
            break
    attempted, failed = operations(workload, seed, scale, untraced + traced)

    if trace:
        metrics = layer_values(untraced, traced)
    else:
        setups = [r["setup_s"] for r in untraced]
        while len(setups) < spec.SETUP_SAMPLES:
            setups.append(launch(workload, seed, scale, setup_only=True)["setup_s"])
        values = end_to_end_values(workload, untraced, degenerate_batches=True)
        values["setup_s"] = setups
        missing = sorted(name for name, samples in values.items() if not samples)
        if missing:
            raise HarnessError(f"{workload}: no sample of {missing}: {untraced[0]['errors']}")
        metrics = {name: statistics.median(samples) for name, samples in values.items()}

    flags = host_flags(untraced)
    print(f"# {workload} seed={seed} repeats={len(untraced)} traced={len(traced)} host={flags}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6f} {spec.UNIT_OF[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": spec.UNIT_OF[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


# -- the whole table -----------------------------------------------------------


def take_rounds(
    rounds: int, traced_repeats: int, seed: int, scale: int
) -> Tuple[Dict[str, List[Record]], Dict[str, List[Record]]]:
    """Round-robin repeats, so host drift lands on every workload alike.

    Tracing is off in every repeat that feeds an end-to-end number; in the
    first ``traced_repeats`` rounds each workload's repeat is followed by
    one traced repeat of the same input (the traced pass)."""
    untraced: Dict[str, List[Record]] = {name: [] for name in spec.WORKLOAD_NAMES}
    traced: Dict[str, List[Record]] = {name: [] for name in spec.WORKLOAD_NAMES}
    for round_number in range(1, rounds + 1):
        for name in spec.WORKLOAD_NAMES:
            record = launch(name, seed, scale)
            untraced[name].append(record)
            print(
                f"round {round_number}/{rounds} {name}: run_s={record.get('run_s', float('nan')):.3f}",
                file=sys.stderr,
            )
            if round_number <= traced_repeats:
                traced[name].append(launch(name, seed, scale, trace_out=trace_path(name)))
    return untraced, traced


def summarize(
    seed: int, scale: int,
    untraced: Dict[str, List[Record]],
    traced: Dict[str, List[Record]],
) -> Dict[str, Any]:
    """Per workload: end-to-end quartiles, operation counts, layer table."""
    summary: Dict[str, Any] = {}
    for name in spec.WORKLOAD_NAMES:
        records = untraced[name]
        extra = traced[name]
        attempted, failed = operations(name, seed, scale, records + extra)
        table = {}
        for metric, values in end_to_end_values(name, records).items():
            if values:
                q1, median, q3 = quartiles(values)
                table[metric] = {"median": median, "q1": q1, "q3": q3,
                                 "n": len(values), "values": values}
        entry: Dict[str, Any] = {
            "end_to_end": table,
            "ops_attempted": attempted,
            "ops_failed": failed,
            "errors": [e for r in records + extra for e in r["errors"]],
            "digest": next((r["digest"] for r in records if "digest" in r), None),
            "comparisons": next((r["comparisons"] for r in records if "comparisons" in r), None),
            "host": host_flags(records),
        }
        if extra:
            layers = layer_values(records, extra)
            entry["per_layer"] = layers
            entry["largest_self_times"] = largest_self_times(layers)
            entry["trace_file"] = extra[-1]["trace_file"]
        summary[name] = entry
    return summary


def verify(seed: int, scale: int, summary: Dict[str, Any]) -> List[str]:
    """Cross-workload equalities, outside any timed region."""
    problems: List[str] = []
    serial = summary["books_oneshot"]
    parallel = summary["books_process"]
    if parallel["digest"] != serial["digest"]:
        problems.append("books_process found-pair digest differs from books_oneshot")
    for metric in ("final_recall", "virt_makespan_vu", "virt_t50_vu"):
        ours = parallel["end_to_end"].get(metric, {}).get("median")
        theirs = serial["end_to_end"].get(metric, {}).get("median")
        if ours != theirs:
            problems.append(f"books_process {metric}={ours} but books_oneshot has {theirs}")
    single = launch("stream_single_submit", seed, scale)
    stream = summary["books_stream"]
    if single.get("digest") != stream["digest"]:
        problems.append("one submit of every stream entity finds a different pair set")
    if single.get("comparisons") != stream["comparisons"]:
        problems.append(
            f"one submit makes {single.get('comparisons')} comparisons, "
            f"the 101-batch run {stream['comparisons']}"
        )
    return problems


def print_summary(summary: Dict[str, Any]) -> None:
    for name, entry in summary.items():
        host = entry["host"]
        marks = [flag for flag in ("noisy", "parallelism_limited") if host[flag]]
        print(f"\n== {name}  ops_attempted={entry['ops_attempted']} "
              f"ops_failed={entry['ops_failed']}"
              + (f"  [{', '.join(marks)}]" if marks else ""))
        print(f"  {'metric':20s} {'unit':9s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:20s} {spec.UNIT_OF[metric]:9s} {row['median']:14.6g} "
                  f"{row['q1']:14.6g} {row['q3']:14.6g} {row['n']:3d}")
        if "per_layer" in entry:
            bars = ", ".join(f"{bar} {seconds:.3f}s" for bar, seconds in entry["largest_self_times"])
            print(f"  largest self times: {bars}")
            for metric, value in entry["per_layer"].items():
                print(f"    {metric:32s} {value:16.6g} {spec.UNIT_OF[metric]}")
            print(f"  trace: {entry['trace_file']}")
    host = next(iter(summary.values()))["host"]
    print(f"\nhost: {json.dumps(host)}")


def compare_sets(first: Dict[str, Any], second: Dict[str, Any]) -> List[str]:
    """A/A: both medians, both inter-quartile ranges, the relative gap."""
    problems: List[str] = []
    print(f"\n{'workload':18s} {'metric':18s} {'median A':>13s} {'median B':>13s} "
          f"{'IQR A':>11s} {'IQR B':>11s} {'gap':>8s} {'bound':>6s}")
    for name in spec.WORKLOAD_NAMES:
        limited = first[name]["host"]["parallelism_limited"]
        for metric in spec.END_TO_END:
            a = first[name]["end_to_end"].get(metric.name)
            b = second[name]["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            gap = abs(b["median"] - a["median"]) / abs(a["median"])
            if metric.aa_bound is None:
                bad = len(set(a["values"]) | set(b["values"])) != 1
            else:
                bad = gap > metric.aa_bound
            if name == "books_process" and metric.name == "run_s" and limited:
                bad = False  # reported, not gated: one CPU cannot show a win
            verdict = "FAIL" if bad else ""
            bound = "exact" if metric.aa_bound is None else f"{metric.aa_bound:.2f}"
            print(f"{name:18s} {metric.name:18s} {a['median']:13.6g} {b['median']:13.6g} "
                  f"{a['q3'] - a['q1']:11.4g} {b['q3'] - b['q1']:11.4g} "
                  f"{gap:8.4f} {bound:>6s} {verdict}")
            if bad:
                problems.append(f"{name} {metric.name}: gap {gap:.4f} (bound {bound})")
        if first[name]["digest"] != second[name]["digest"]:
            problems.append(f"{name}: digests differ between the two sets")
    return problems


def failed_operations(summary: Dict[str, Any]) -> List[str]:
    return [
        f"{name}: {entry['ops_failed']} of {entry['ops_attempted']} operations failed"
        + "".join(f"\n{error}" for error in entry["errors"])
        for name, entry in summary.items()
        if entry["ops_failed"]
    ]


def measure_all(args: argparse.Namespace, scale: int) -> int:
    rounds = args.rounds if args.rounds is not None else (1 if args.smoke else 5)
    report: Dict[str, Any] = {"seed": args.seed, "scale": scale, "rounds": rounds}
    if args.aa:
        sets = [
            summarize(args.seed, scale, *take_rounds(rounds, 0, args.seed, scale))
            for _ in range(2)
        ]
        for label, summary in zip("AB", sets):
            print(f"\n#### set {label}")
            print_summary(summary)
        problems = compare_sets(*sets)
        for summary in sets:
            problems += failed_operations(summary)
        report.update(sets=sets)
    else:
        summary = summarize(
            args.seed, scale, *take_rounds(rounds, min(rounds, 3), args.seed, scale)
        )
        print_summary(summary)
        problems = failed_operations(summary) + verify(args.seed, scale, summary)
        report.update(workloads=summary)
    report.update(problems=problems, ok=not problems)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    print(f"\nreport: {args.out}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("all checks passed" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES,
                        help="measure one workload and print the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every workload's default generator seed")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="with --workload: measuring budget of this invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--rounds", type=int, default=None,
                        help="round-robin rounds (default 5; 1 with --smoke)")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 10, one round, traced pass included")
    parser.add_argument("--aa", action="store_true",
                        help="take the rounds twice and compare the two sets")
    parser.add_argument("--out", type=Path, default=OUT / "report.json",
                        help="where the whole table is written as JSON")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scale = 10 if args.smoke else 1
    try:
        if args.workload is not None:
            return measure_one(
                args.workload, args.seed, scale, args.seconds, bool(args.trace)
            )
        return measure_all(args, scale)
    except HarnessError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
