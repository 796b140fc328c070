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
    "format_table",
    "format_curves",
    "format_final_summary",
    "format_fault_summary",
    "ascii_chart",
]
