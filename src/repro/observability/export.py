"""Trace exporters: Chrome ``trace_event`` JSON and a terminal summary.

Two consumers, two formats:

* :func:`write_chrome_trace` — the Chrome/Perfetto ``trace_event`` array
  (https://ui.perfetto.dev loads it directly).  Each ``(run, job)`` pair
  becomes a *process*; track 0 carries the job/phase ``B``/``E`` pairs and
  every slot becomes a named *thread* carrying ``X`` (complete) events for
  task attempts and per-block resolutions, plus ``i`` instants for
  incremental output-file flushes.
* :func:`format_trace_summary` — a terminal per-task Gantt with the skew
  statistics that matter for MR-based ER (Kolb et al.: per-task skew is
  the dominant effect): per-phase makespan, max/mean task cost, and per
  reduce task its block count and duplicates found.

Virtual time has no unit, so the Chrome export scales one cost unit to
:data:`TS_SCALE` microseconds (1 ms) purely for comfortable zoom levels.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

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
            failed = sum(1 for s in attempts if s.arg("phase") == phase)
            if failed:
                # Fault-injection line: only rendered when retries actually
                # happened, so fault-free output is unchanged.
                lines.append(f"         {failed:3d} failed attempts")
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


__all__ = [
    "TS_SCALE",
    "CHROME_PHASES",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "format_trace_summary",
    "format_perf_report",
]
