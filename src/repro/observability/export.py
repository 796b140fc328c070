"""Trace exporters: Chrome ``trace_event`` JSON, JSONL, terminal summary.

Three consumers, three formats:

* :func:`write_chrome_trace` — the Chrome/Perfetto ``trace_event`` array
  (https://ui.perfetto.dev loads it directly).  Each ``(run, job)`` pair
  becomes a *process*; track 0 carries the job/phase ``B``/``E`` pairs and
  every slot becomes a named *thread* carrying ``X`` (complete) events for
  task attempts and per-block resolutions, plus ``i`` instants for
  incremental output-file flushes.
* :func:`write_trace_jsonl` — one JSON object per span/instant, in
  recording order, for ad-hoc ``jq``-style analysis.
* :func:`format_trace_summary` — a terminal per-task Gantt with the skew
  statistics that matter for MR-based ER (Kolb et al.: per-task skew is
  the dominant effect): per-phase makespan, max/mean task cost, and per
  reduce task its block count and duplicates found.

Virtual time has no unit, so the Chrome export scales one cost unit to
:data:`TS_SCALE` microseconds (1 ms) purely for comfortable zoom levels.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .tracing import SCHEDULER_TRACK, Instant, Span, Tracer

#: Chrome trace timestamps are microseconds; one virtual cost unit is
#: rendered as one millisecond.
TS_SCALE = 1000.0

#: Phase letters this exporter emits (the validator accepts exactly these).
CHROME_PHASES = ("B", "E", "X", "i", "M")


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Flatten a tracer into a Chrome ``trace_event`` array."""
    events: List[Dict[str, Any]] = []
    pids = {key: pid for pid, key in enumerate(tracer.jobs())}

    by_job: Dict[Tuple[str, str], List[Span]] = {key: [] for key in pids}
    for span in tracer.spans:
        by_job[(span.run, span.job)].append(span)
    instants_by_job: Dict[Tuple[str, str], List[Instant]] = {key: [] for key in pids}
    for instant in tracer.instants:
        instants_by_job[(instant.run, instant.job)].append(instant)

    for key, pid in pids.items():
        run, job = key
        events.append(_metadata(pid, SCHEDULER_TRACK, "process_name",
                                f"{run}:{job}" if run else job))
        events.append(_metadata(pid, SCHEDULER_TRACK, "thread_name", "scheduler"))
        spans = by_job[key]
        for track in sorted({s.track for s in spans if s.track != SCHEDULER_TRACK}):
            events.append(_metadata(pid, track, "thread_name", f"slot-{track - 1}"))

        # Job/phase spans as properly nested B/E pairs: the job opens,
        # phases open/close in start order, the job closes.
        job_spans = [s for s in spans if s.category == "job"]
        phase_spans = sorted(
            (s for s in spans if s.category == "phase"), key=lambda s: (s.start, s.name)
        )
        for span in job_spans:
            events.append(_duration(pid, span, "B", span.start))
        for span in phase_spans:
            events.append(_duration(pid, span, "B", span.start))
            events.append(_duration(pid, span, "E", span.end))
        for span in job_spans:
            events.append(_duration(pid, span, "E", span.end))

        for span in spans:
            if span.category in ("job", "phase"):
                continue
            events.append(
                {
                    "name": span.name,
                    "cat": span.category,
                    "ph": "X",
                    "ts": span.start * TS_SCALE,
                    "dur": span.duration * TS_SCALE,
                    "pid": pid,
                    "tid": span.track,
                    "args": dict(span.args),
                }
            )
        for instant in instants_by_job[key]:
            events.append(
                {
                    "name": instant.name,
                    "cat": instant.category,
                    "ph": "i",
                    "s": "t",
                    "ts": instant.time * TS_SCALE,
                    "pid": pid,
                    "tid": instant.track,
                    "args": dict(instant.args),
                }
            )
    return events


def _metadata(pid: int, tid: int, name: str, value: str) -> Dict[str, Any]:
    return {
        "name": name,
        "ph": "M",
        "ts": 0.0,
        "pid": pid,
        "tid": tid,
        "args": {"name": value},
    }


def _duration(pid: int, span: Span, ph: str, ts: float) -> Dict[str, Any]:
    return {
        "name": span.name,
        "cat": span.category,
        "ph": ph,
        "ts": ts * TS_SCALE,
        "pid": pid,
        "tid": span.track,
        "args": dict(span.args) if ph == "B" else {},
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write the Chrome ``trace_event`` JSON array to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace_events(tracer), handle)
        handle.write("\n")


def validate_chrome_trace(events: object) -> None:
    """Raise ``ValueError`` unless ``events`` is a well-formed trace.

    Checks the shape Perfetto/chrome://tracing rely on: a JSON array of
    objects, required keys per event, known phase letters, ``dur`` on
    ``X`` events, and balanced ``B``/``E`` pairs per ``(pid, tid)``.
    """
    if not isinstance(events, list):
        raise ValueError(f"trace must be a JSON array, got {type(events).__name__}")
    depth: Dict[Tuple[Any, Any], int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for required in ("name", "ph", "pid", "tid", "ts"):
            if required not in event:
                raise ValueError(f"event {index} lacks required key {required!r}")
        ph = event["ph"]
        if ph not in CHROME_PHASES:
            raise ValueError(f"event {index} has unknown phase letter {ph!r}")
        if ph == "X" and "dur" not in event:
            raise ValueError(f"X event {index} lacks 'dur'")
        lane = (event["pid"], event["tid"])
        if ph == "B":
            depth[lane] = depth.get(lane, 0) + 1
        elif ph == "E":
            depth[lane] = depth.get(lane, 0) - 1
            if depth[lane] < 0:
                raise ValueError(f"unbalanced E event {index} on lane {lane}")
    unbalanced = {lane: d for lane, d in depth.items() if d != 0}
    if unbalanced:
        raise ValueError(f"unclosed B events on lanes {sorted(unbalanced)}")


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def trace_records(tracer: Tracer) -> Iterable[Dict[str, Any]]:
    """Spans then instants as plain dicts, in recording order."""
    for span in tracer.spans:
        yield {
            "type": "span",
            "name": span.name,
            "category": span.category,
            "start": span.start,
            "end": span.end,
            "job": span.job,
            "run": span.run,
            "track": span.track,
            "args": dict(span.args),
        }
    for instant in tracer.instants:
        yield {
            "type": "instant",
            "name": instant.name,
            "category": instant.category,
            "time": instant.time,
            "job": instant.job,
            "run": instant.run,
            "track": instant.track,
            "args": dict(instant.args),
        }


def write_trace_jsonl(tracer: Tracer, path: str) -> None:
    """Write one JSON object per span/instant to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in trace_records(tracer):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


# ---------------------------------------------------------------------------
# Terminal Gantt / skew summary
# ---------------------------------------------------------------------------


def format_trace_summary(tracer: Tracer, *, width: int = 48) -> str:
    """Per-job phase statistics plus a reduce-task Gantt with block counts."""
    if width < 10:
        raise ValueError("width too small to be readable")
    lines: List[str] = []
    for run, job in tracer.jobs():
        spans = tracer.spans_of(run, job)
        tasks = [s for s in spans if s.category == "task"]
        if not tasks:
            continue
        title = f"{run}:{job}" if run else job
        lines.append(title)
        job_span = next((s for s in spans if s.category == "job"), None)
        lo = job_span.start if job_span else min(s.start for s in tasks)
        hi = job_span.end if job_span else max(s.end for s in tasks)
        horizon = max(hi - lo, 1e-12)

        blocks_per_task: Dict[int, int] = {}
        dups_per_task: Dict[int, int] = {}
        for span in spans:
            if span.category == "block":
                task = span.arg("task")
                blocks_per_task[task] = blocks_per_task.get(task, 0) + 1
                dups_per_task[task] = dups_per_task.get(task, 0) + int(
                    span.arg("duplicates", 0)
                )

        attempts = [s for s in spans if s.category == "attempt"]
        for phase in ("map", "reduce"):
            phase_tasks = sorted(
                (s for s in tasks if s.arg("phase") == phase),
                key=lambda s: s.arg("task", 0),
            )
            if not phase_tasks:
                continue
            costs = [s.duration for s in phase_tasks]
            mean = sum(costs) / len(costs)
            skew = max(costs) / mean if mean > 0 else 1.0
            lines.append(
                f"  {phase:<6s} {len(phase_tasks):3d} tasks  "
                f"makespan {max(s.end for s in phase_tasks) - lo:,.1f}  "
                f"skew {skew:.2f} (max {max(costs):,.1f} / mean {mean:,.1f})"
            )
            phase_attempts = [s for s in attempts if s.arg("phase") == phase]
            if phase_attempts:
                # Fault-injection line: only rendered when retries or
                # speculation actually happened, so fault-free output is
                # unchanged.
                failed = sum(1 for s in phase_attempts if s.arg("failed"))
                killed = sum(1 for s in phase_attempts if s.arg("killed"))
                spec = sum(1 for s in phase_attempts if s.arg("speculative"))
                lines.append(
                    f"         {len(phase_attempts):3d} extra attempts  "
                    f"{failed} failed, {killed} killed, {spec} speculative"
                )
            for span in phase_tasks:
                task = span.arg("task", 0)
                start = int((span.start - lo) / horizon * width)
                stop = max(start + 1, int((span.end - lo) / horizon * width))
                bar = " " * start + "#" * (stop - start) + " " * (width - stop)
                annotation = f" cost {span.duration:10,.1f}"
                if phase == "reduce":
                    annotation += (
                        f"  blocks {blocks_per_task.get(task, 0):4d}"
                        f"  dups {dups_per_task.get(task, 0):4d}"
                    )
                if span.arg("attempt"):
                    annotation += f"  attempt {span.arg('attempt')}"
                if span.arg("speculative"):
                    annotation += "  speculative"
                lines.append(f"    {phase}[{task:3d}] |{bar}|{annotation}")
    return "\n".join(lines) if lines else "(empty trace)"


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f}M"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f}K"
    return str(n)


def format_perf_report(metrics: "MetricsRegistry") -> str:
    """Runtime cost breakdown of the parallel backend, one row per phase.

    Renders the ``driver.*`` counters the executor drains into each phase
    snapshot (see ``Cluster._snapshot_phase``): task placement (fanned out
    vs kept inline under the serial floor), the wire-blob bytes that
    crossed the pool's queues, and wall-clock seconds per phase.  Footer
    lines aggregate pool forks and worker idle time.
    """
    rows = []
    for snap in metrics.snapshots:
        extra = dict(snap.extra)
        if "wall_seconds" not in extra:
            continue
        counters = dict(snap.counters)
        rows.append((snap.scope, extra, counters))
    if not rows:
        return "(no phase snapshots; attach a MetricsRegistry and re-run)"

    lines: List[str] = []
    scope_width = max(len(scope) for scope, _, _ in rows)
    scope_width = max(scope_width, len("phase"))
    header = (
        f"{'phase':<{scope_width}}  {'backend':<8} {'tasks':>5} "
        f"{'wall s':>8} {'fanned':>6} {'inline':>6} {'wire':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for scope, extra, counters in rows:
        lines.append(
            f"{scope:<{scope_width}}  {str(extra.get('backend', '?')):<8} "
            f"{extra.get('tasks', 0):>5} "
            f"{extra.get('wall_seconds', 0.0):>8.3f} "
            f"{counters.get('driver.tasks_fanned', 0):>6} "
            f"{counters.get('driver.tasks_inline', 0):>6} "
            f"{_fmt_bytes(counters.get('driver.ipc_bytes', 0)):>8}"
        )

    forks = sum(c.get("driver.pool_forks", 0) for _, _, c in rows)
    idle_ms = sum(c.get("driver.worker_idle_ms", 0) for _, _, c in rows)
    lines.append("-" * len(header))
    lines.append(f"pool forks: {forks}")
    if idle_ms:
        lines.append(f"workers idle: {idle_ms} ms total")
    return "\n".join(lines)


def format_sched_report(report: Any) -> str:
    """Human-readable summary of a scheduler trace.

    Takes a :class:`~repro.scheduling.report.SchedulerReport`: one row
    per submission (decision, lane, arrival → start → finish, wait and
    latency in virtual time), then per-tenant fair-share usage and the
    per-lane p50/p99 latency footer the bench asserts on.
    """
    lines: List[str] = [f"policy: {report.policy}"]
    name_width = max(
        [len("job")] + [len(o.job) for o in report.outcomes]
    )
    header = (
        f"{'job':<{name_width}}  {'tenant':<10} {'lane':<11} "
        f"{'decision':<8} {'arrival':>9} {'start':>9} {'finish':>10} "
        f"{'wait':>8} {'latency':>9} {'slot-s':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for o in report.outcomes:
        def cell(value: Optional[float], width: int = 9) -> str:
            return f"{'-':>{width}}" if value is None else f"{value:>{width}.2f}"

        lines.append(
            f"{o.job:<{name_width}}  {o.tenant:<10} {o.lane:<11} "
            f"{o.decision:<8} {o.arrival:>9.2f} {cell(o.started_at)} "
            f"{cell(o.finished_at, 10)} {o.wait_total:>8.2f} "
            f"{cell(o.latency)} {o.slot_seconds:>9.2f}"
        )
    lines.append("")
    for tenant in report.tenants:
        lines.append(
            f"tenant {tenant.name}: weight {tenant.weight:g}, "
            f"{tenant.slot_seconds:.2f} slot-seconds "
            f"(vtime {tenant.vtime:.2f}), "
            f"{tenant.completed}/{tenant.submitted} completed, "
            f"{tenant.rejected} rejected"
        )
    for lane in ("interactive", "batch"):
        pct = report.latency_percentiles(lane=lane)
        if pct is not None:
            lines.append(
                f"{lane} latency: p50 {pct['p50']:.2f}, p99 {pct['p99']:.2f}"
            )
    lines.append(
        f"makespan {report.makespan:.2f}, "
        f"busy map {report.busy.get('map', 0.0):.2f} / "
        f"reduce {report.busy.get('reduce', 0.0):.2f}, "
        f"peak queue depth {report.queue_depth_peak}"
    )
    return "\n".join(lines)


def format_calibration_report(report: Dict[str, Any]) -> str:
    """Human-readable summary of a cost-model calibration report.

    Takes the dict produced by
    :func:`~repro.core.calibration.calibration_report`: fitted real-seconds
    prices per virtual unit and per operation, the CostModel ratios this
    machine implies, and the error band of the fit.
    """
    lines: List[str] = [
        f"cost-model calibration — backend {report.get('backend', '?')}, "
        f"{report.get('workers', 1)} workers, "
        f"{report.get('cpus_visible', '?')} visible CPUs"
    ]
    if report.get("parallelism_limited"):
        lines.append(
            "  WARNING: fewer visible CPUs than workers — queueing inflates "
            "per-task wall time; treat fitted prices as upper bounds"
        )
    workload = report.get("workload") or {}
    if workload:
        desc = ", ".join(f"{k}={v}" for k, v in sorted(workload.items()))
        lines.append(f"workload: {desc}")
    lines.append("")
    header = f"{'category':<10} {'s/unit':>12} {'s/op':>12} {'fitted const':>13}"
    lines.append(header)
    lines.append("-" * len(header))
    per_unit = report.get("seconds_per_unit", {})
    per_op = report.get("seconds_per_op", {})
    constants = report.get("fitted_constants", {})
    op_key = {"compare": "compare", "emit": "emit", "shuffle": "shuffle",
              "read": "read", "sort": "sort_item"}
    for category in ("compare", "emit", "shuffle", "sort", "read", "other",
                     "task"):
        price = per_unit.get(category, 0.0)
        op = per_op.get(op_key.get(category, ""), None)
        op_cell = f"{op:>12.3e}" if op is not None else f"{'-':>12}"
        lines.append(
            f"{category:<10} {price:>12.3e} {op_cell} "
            f"{constants.get(category, 0.0):>13.4f}"
        )
    lines.append("")
    lines.append(
        f"fit: {report.get('samples_used', 0)} tasks sampled, "
        f"{report.get('samples_scored', 0)} scored, "
        f"median APE {report.get('median_ape', float('nan')) * 100.0:.1f}%, "
        f"residual RMS {report.get('residual_rms_seconds', 0.0):.3e} s"
    )
    band = report.get("error_band")
    if band:
        lines.append(band)
    return "\n".join(lines)


__all__ = [
    "TS_SCALE",
    "CHROME_PHASES",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "trace_records",
    "write_trace_jsonl",
    "format_trace_summary",
    "format_calibration_report",
    "format_perf_report",
    "format_sched_report",
]
