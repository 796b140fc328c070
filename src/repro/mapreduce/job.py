"""Job specification: mappers, reducers, partitioners and task contexts.

The API intentionally mirrors Hadoop's old-style ``org.apache.hadoop.mapred``
interfaces (``setup`` / ``map`` / ``reduce`` / ``Partitioner``) because the
paper's implementation targets Hadoop 1.2.1 and relies on details such as the
map-task ``setup`` hook (where the progressive schedule is generated) and a
custom partition function (which routes trees to their scheduled reduce
task).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence

from .clock import CostModel, VirtualClock
from .counters import Counters
from .types import Event, KeyValue, OutputFile, SpanFragment


def check_alpha(alpha: Optional[float]) -> None:
    """Reject an output period that is not ``None`` or finite and positive.

    A reduce task opens its next file once ``alpha`` units have passed; a
    period of zero or less never moves the next flush past the current
    time, and NaN never flushes at all.
    """
    if alpha is not None and not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be None or finite and positive, got {alpha}")


class TaskContext:
    """Per-task runtime handle passed to mappers and reducers.

    Provides cost charging, event recording, counters, and (reduce side)
    incremental output.  ``alpha`` enables the paper's "new output file every
    α units of cost" behaviour; ``alpha = None`` keeps a single file closed
    at task end.  ``trace`` turns span recording on (see :meth:`record_span`).
    """

    def __init__(
        self,
        task_id: int,
        cost_model: CostModel,
        *,
        alpha: Optional[float] = None,
        trace: bool = False,
    ) -> None:
        self.task_id = task_id
        self.cost_model = cost_model
        self.clock = VirtualClock()
        self.counters = Counters()
        self.emitted: List[KeyValue] = []
        self.written: List[Any] = []
        self.emitted_events: List[Event] = []
        self.span_fragments: List[SpanFragment] = []
        self._trace_enabled = trace
        self._alpha = alpha
        self._files: List[OutputFile] = []
        self._current_file = OutputFile(task_id=task_id, index=0, close_time=0.0)
        self._next_flush = alpha if alpha is not None else None

    # -- cost & events ---------------------------------------------------

    def charge(self, units: float) -> float:
        """Charge ``units`` of cost and return the new local time."""
        now = self.clock.charge(units)
        if self._next_flush is not None and now >= self._next_flush:
            self._rotate_file(now)
        return now

    def charge_each(self, units: Sequence[float]) -> float:
        """:meth:`charge` every entry of ``units`` in order, in one call;
        return the new local time.

        Clock and output files end exactly as after one :meth:`charge` per
        entry: the same float additions in the same order, and each α-flush
        file closed at the running time that crossed its flush point.
        """
        times = self.clock.charge_each(units)
        if not times:
            return self.clock.now
        flush = self._next_flush
        if flush is not None and times[-1] >= flush:
            crossed = bisect_left(times, flush)
            while crossed < len(times):
                self._rotate_file(times[crossed])
                crossed = bisect_left(times, self._next_flush, crossed + 1)
        return times[-1]

    def record_event(self, kind: str, payload: Any) -> None:
        """Record an event at the current local time.

        The engine rebases event times to global time after the task ran.
        """
        self.emitted_events.append(Event(time=self.clock.now, kind=kind, payload=payload))

    # -- tracing -----------------------------------------------------------

    @property
    def tracing(self) -> bool:
        """True when a tracer is attached to the cluster running this task.

        Hot paths should guard manual ``clock.now`` bookkeeping on this
        flag; :meth:`record_span` itself is already a no-op when disabled.
        """
        return self._trace_enabled

    def record_span(
        self, name: str, category: str, start: float, end: float, **args: Any
    ) -> None:
        """Record a trace span over ``[start, end]`` in task-local time.

        Spans are pure observation: they charge no cost and never alter
        events or counters, so a traced run is bit-identical to an
        untraced one.  The engine rebases fragments to global time when
        the task is scheduled.  The task id is attached automatically.
        """
        if not self._trace_enabled:
            return
        merged = dict(args)
        merged["task"] = self.task_id
        self.span_fragments.append(
            SpanFragment(
                name=name,
                category=category,
                start=start,
                end=end,
                args=tuple(sorted(merged.items())),
            )
        )

    # -- map-side emission ------------------------------------------------

    def emit(self, key: Any, value: Any) -> None:
        """Emit an intermediate key-value pair (map side)."""
        self.charge(self.cost_model.emit_pair)
        self.emitted.append((key, value))

    # -- reduce-side output -----------------------------------------------

    def write(self, record: Any) -> None:
        """Write a final output record (reduce side), into the current file."""
        self.written.append(record)
        self._current_file.records.append(record)

    def _rotate_file(self, now: float) -> None:
        """Close the current output file and open the next one."""
        assert self._alpha is not None and self._next_flush is not None
        self._current_file.close_time = now
        self._files.append(self._current_file)
        self._current_file = OutputFile(
            task_id=self.task_id, index=self._current_file.index + 1, close_time=0.0
        )
        while self._next_flush <= now:
            self._next_flush += self._alpha

    def finalize_files(self) -> List[OutputFile]:
        """Close the trailing file at task end and return all files."""
        if self._current_file.records or not self._files:
            self._current_file.close_time = self.clock.now
            self._files.append(self._current_file)
        return self._files


class Mapper:
    """Base mapper.  Subclasses override :meth:`map` (and optionally
    :meth:`setup`, which Hadoop calls once per map task before any input)."""

    def setup(self, context: TaskContext) -> None:
        """Called once before the first record; may charge setup cost."""

    def map(self, record: Any, context: TaskContext) -> None:
        """Process one input record; emit via ``context.emit``."""
        raise NotImplementedError

    def cleanup(self, context: TaskContext) -> None:
        """Called once after the last record."""


class Reducer:
    """Base reducer.  Subclasses override :meth:`reduce`."""

    def setup(self, context: TaskContext) -> None:
        """Called once per reduce task before any group."""

    def reduce(self, key: Any, values: Sequence[Any], context: TaskContext) -> None:
        """Process one key group; write via ``context.write``."""
        raise NotImplementedError

    def cleanup(self, context: TaskContext) -> None:
        """Called once after the last group."""


class Partitioner:
    """Maps an intermediate key to a reduce-task index."""

    def partition(self, key: Any, num_reduce_tasks: int) -> int:
        """Default: stable hash partitioning (Hadoop's HashPartitioner)."""
        return stable_hash(key) % num_reduce_tasks


class AssignmentPartitioner(Partitioner):
    """Route each key to the reduce task a plan assigned it.

    An index outside the job's task range (a plan made for another cluster)
    is returned as is; the engine's range check refuses it.
    """

    def __init__(self, assignment: Dict[Any, int]) -> None:
        self._assignment = assignment

    def partition(self, key: Any, num_reduce_tasks: int) -> int:
        try:
            return self._assignment[key]
        except KeyError:
            raise ValueError(f"key {key!r} has no reduce-task assignment") from None


def stable_hash(key: Any) -> int:
    """A deterministic, process-independent hash for partitioning.

    Python's builtin ``hash`` is salted per process for strings; the
    simulator must be reproducible across runs, so keys are hashed through
    a small FNV-1a over their ``repr``.
    """
    data = repr(key).encode("utf-8")
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


class MapReduceJob:
    """Declarative description of one MapReduce job.

    Attributes:
        mapper_factory: zero-arg callable returning a fresh :class:`Mapper`
            per map task (tasks must not share mutable state).
        reducer_factory: zero-arg callable returning a fresh
            :class:`Reducer` per reduce task.
        partitioner: routes intermediate keys to reduce tasks.
        key_sort: optional sort key applied to each reduce task's groups
            (Hadoop sorts by key; jobs may override the comparator).
        alpha: incremental-output flush period for reduce tasks (cost
            units; ``None`` or finite and positive).
        name: label used in diagnostics.
        trace: whether tasks record span fragments; the engine sets it to
            whether the running cluster has a tracer, so tracing stays
            zero-cost when disabled.
    """

    def __init__(
        self,
        mapper_factory: Callable[[], Mapper],
        reducer_factory: Callable[[], Reducer],
        *,
        partitioner: Optional[Partitioner] = None,
        key_sort: Optional[Callable[[Any], Any]] = None,
        alpha: Optional[float] = None,
        name: str = "job",
    ) -> None:
        self.mapper_factory = mapper_factory
        self.reducer_factory = reducer_factory
        self.partitioner = partitioner if partitioner is not None else Partitioner()
        self.key_sort = key_sort
        check_alpha(alpha)
        self.alpha = alpha
        self.name = name
        self.trace = False


def split_input(records: Sequence[Any], num_splits: int) -> List[List[Any]]:
    """Partition input records into ``num_splits`` contiguous splits.

    Mirrors HDFS block-based splits: contiguous ranges, sizes differing by
    at most one record.  Empty splits are allowed when there are more splits
    than records (Hadoop would simply run empty map tasks).
    """
    if num_splits <= 0:
        raise ValueError(f"num_splits must be positive, got {num_splits}")
    n = len(records)
    base, extra = divmod(n, num_splits)
    splits: List[List[Any]] = []
    start = 0
    for i in range(num_splits):
        size = base + (1 if i < extra else 0)
        splits.append(list(records[start : start + size]))
        start += size
    return splits


__all__ = [
    "TaskContext",
    "Mapper",
    "Reducer",
    "Partitioner",
    "AssignmentPartitioner",
    "MapReduceJob",
    "split_input",
    "stable_hash",
    "check_alpha",
]
