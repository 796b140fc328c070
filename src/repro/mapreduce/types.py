"""Shared datatypes for the MapReduce simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Tuple


@dataclass(frozen=True, order=True)
class Event:
    """A timestamped occurrence inside a task.

    Progressive ER emits one event per discovered duplicate pair; the
    evaluation layer turns the event stream into recall-versus-time curves.

    Attributes:
        time: global virtual time at which the event became available.
        kind: event category, e.g. ``"duplicate"``.
        payload: event data (compared last in ordering, kept comparable by
            convention; duplicate events carry an entity-id pair).
    """

    time: float
    kind: str
    payload: Any = field(compare=False)


@dataclass(frozen=True)
class SpanFragment:
    """A task-local trace span recorded inside a task computation.

    Fragments are recorded in *task-local* virtual time (like events) and
    rebased to global time by the engine once the task is scheduled on a
    slot.  They ride back to the driver inside the task payload, so serial
    and process backends produce identical traces.  ``args`` is a sorted
    tuple of ``(key, value)`` pairs — hashable and picklable by design.
    """

    name: str
    category: str
    start: float
    end: float
    args: Tuple[Tuple[str, Any], ...] = ()

    def arg(self, key: str, default: Any = None) -> Any:
        """Value of one annotation key (linear scan; args are tiny)."""
        for k, v in self.args:
            if k == key:
                return v
        return default


@dataclass
class TaskResult:
    """What a single (map or reduce) task produced.

    Attributes:
        task_id: index of the task within its phase.
        cost: total virtual cost the task accumulated.
        start_time: global time at which the task began executing.
        end_time: global time at which the task finished (start + cost).
        events: timestamped events recorded by the task (global time).
        output: records written via ``context.write`` (reduce side) or
            emitted key-value pairs (map side, grouped by partition).
        num_failed_attempts: attempts that crashed before the task
            committed.
        wall_ns: wall-clock nanoseconds the committing attempt's task body
            took in whichever process ran it, read by the wall-clock
            benchmark's ``executors.task_busy_s``.  Observability only —
            excluded from equality so backend-parity fingerprints and
            result comparisons ignore it; never folded into counters.
    """

    task_id: int
    cost: float
    start_time: float
    end_time: float
    events: List[Event] = field(default_factory=list)
    output: List[Any] = field(default_factory=list)
    num_failed_attempts: int = 0
    wall_ns: int = field(default=0, compare=False)


@dataclass
class OutputFile:
    """An incrementally flushed result file (Section III-B).

    The reduce function writes results to a new file every α cost units so
    partial results can be consumed while the job is still running.  The
    simulator models a file as the list of records plus the global time at
    which the file was closed (i.e. became readable).
    """

    task_id: int
    index: int
    close_time: float
    records: List[Any] = field(default_factory=list)


@dataclass
class JobResult:
    """Aggregate result of one simulated MapReduce job.

    Attributes:
        start_time: global time the job was submitted.
        map_phase_end: global time when the last map task finished.
        end_time: global time when the last reduce task finished.
        map_tasks / reduce_tasks: per-task results.
        events: all task events merged and sorted by time.
        output: all reduce outputs concatenated (task order).
        output_files: incrementally flushed files from all reduce tasks.
        counters: aggregated job counters.
    """

    start_time: float
    map_phase_end: float
    end_time: float
    map_tasks: List[TaskResult]
    reduce_tasks: List[TaskResult]
    events: List[Event]
    output: List[Any]
    output_files: List[OutputFile]
    counters: "Counters"

    @property
    def duration(self) -> float:
        """Total virtual duration of the job."""
        return self.end_time - self.start_time


# Convenience aliases used across the package.
Key = Any
Value = Any
KeyValue = Tuple[Key, Value]
Partition = List[KeyValue]

from .counters import Counters  # noqa: E402  (re-export for type reference)

__all__ = [
    "Event",
    "SpanFragment",
    "TaskResult",
    "OutputFile",
    "JobResult",
    "Key",
    "Value",
    "KeyValue",
    "Partition",
    "Counters",
]
