"""Per-task timelines and cluster utilization.

Diagnoses scheduling quality the way the paper's Section VI-B2 discusses
it: which reduce tasks are busy when, whether some tasks idle while one
grinds through an overflowed tree, and how balanced a job's phases are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..mapreduce.types import JobResult


@dataclass(frozen=True)
class TaskSpan:
    """One task's execution window."""

    phase: str
    task_id: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def job_spans(job: JobResult) -> List[TaskSpan]:
    """Execution windows of every task in a job."""
    spans = [
        TaskSpan("map", t.task_id, t.start_time, t.end_time) for t in job.map_tasks
    ]
    spans.extend(
        TaskSpan("reduce", t.task_id, t.start_time, t.end_time)
        for t in job.reduce_tasks
    )
    return spans


def reduce_utilization(job: JobResult) -> float:
    """Mean busy fraction of the reduce tasks over the reduce phase.

    1.0 = perfectly balanced (every task busy until the job ends);
    low values = stragglers (the NoSplit failure mode)."""
    phase = job.end_time - job.map_phase_end
    if phase <= 0:
        return 1.0
    tasks = job.reduce_tasks
    if not tasks:
        return 1.0
    return sum(t.cost for t in tasks) / (phase * len(tasks))


def load_imbalance(job: JobResult) -> float:
    """Max-over-mean reduce-task cost (1.0 = perfectly even)."""
    costs = [t.cost for t in job.reduce_tasks]
    if not costs:
        return 1.0
    mean = sum(costs) / len(costs)
    if mean == 0:
        return 1.0
    return max(costs) / mean


def ascii_gantt(job: JobResult, *, width: int = 64) -> str:
    """A Gantt-style view of the job's tasks.

    ``#`` marks the window a task is executing; map tasks first, then
    reduce tasks, both to the same time scale.
    """
    if width < 10:
        raise ValueError("width too small to be readable")
    end = job.end_time - job.start_time
    if end <= 0:
        return "(empty job)"

    def bar(span: TaskSpan) -> str:
        lo = int((span.start - job.start_time) / end * width)
        hi = max(lo + 1, int((span.end - job.start_time) / end * width))
        return " " * lo + "#" * (hi - lo) + " " * (width - hi)

    lines = []
    for span in job_spans(job):
        lines.append(f"{span.phase:>6s}[{span.task_id:3d}] |{bar(span)}|")
    lines.append(
        f"utilization={reduce_utilization(job):.2f}  "
        f"imbalance={load_imbalance(job):.2f}  "
        f"duration={end:,.0f}"
    )
    return "\n".join(lines)


__all__ = [
    "TaskSpan",
    "job_spans",
    "reduce_utilization",
    "load_imbalance",
    "ascii_gantt",
]
