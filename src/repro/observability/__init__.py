"""Observability for the simulated cluster: tracing, metrics, exporters.

Attach a :class:`Tracer` and/or a :class:`MetricsRegistry` to a
:class:`~repro.mapreduce.engine.Cluster` (or pass them through
:class:`~repro.evaluation.experiment.RunSpec`) and the engine records
job → phase → task-attempt → per-block spans in virtual time plus
per-phase counter snapshots.  Tracing never charges virtual cost: results
are bit-identical with and without it.
"""

from .export import (
    CHROME_PHASES,
    TS_SCALE,
    chrome_trace_events,
    format_perf_report,
    format_trace_summary,
    validate_chrome_trace,
    write_chrome_trace,
)
from .metrics import MetricsRegistry, MetricsSnapshot
from .tracing import SCHEDULER_TRACK, Instant, Span, Tracer

__all__ = [
    "Tracer",
    "Span",
    "Instant",
    "SCHEDULER_TRACK",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TS_SCALE",
    "CHROME_PHASES",
    "chrome_trace_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "format_trace_summary",
    "format_perf_report",
]
