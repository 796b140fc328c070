"""Evaluation: recall curves, Qty (Equation 1), speedups, clustering, and
the experiment harness behind the benchmarks."""

from .charts import ascii_chart
from .clustering import UnionFind, transitive_closure
from .experiment import (
    ExperimentRun,
    RunResult,
    RunSpec,
    sample_times,
)
from .metrics import (
    RecallCurve,
    pair_precision,
    quality,
    recall_curve,
    recall_speedup,
)
from .reporting import (
    format_curves,
    format_fault_summary,
    format_final_summary,
    format_table,
)
from .timeline import (
    TaskSpan,
    ascii_gantt,
    job_spans,
    load_imbalance,
    reduce_utilization,
)

__all__ = [
    "UnionFind",
    "transitive_closure",
    "RunSpec",
    "RunResult",
    "ExperimentRun",
    "sample_times",
    "RecallCurve",
    "recall_curve",
    "quality",
    "recall_speedup",
    "pair_precision",
    "format_table",
    "format_curves",
    "format_final_summary",
    "format_fault_summary",
    "ascii_chart",
    "TaskSpan",
    "job_spans",
    "reduce_utilization",
    "load_imbalance",
    "ascii_gantt",
]
