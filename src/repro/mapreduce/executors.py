"""Pluggable execution backends for the MapReduce simulator.

The paper's whole point is *parallel* progressive ER, yet virtual time says
nothing about wall-clock time: the simulator historically ran every task of
every phase serially in one Python process.  This module separates the two
concerns:

* the **per-task computation** (:func:`compute_map_task` /
  :func:`compute_reduce_task`) is a pure function of ``(job, input split,
  task id, cost model)`` — it produces a :class:`MapTaskPayload` /
  :class:`ReduceTaskPayload` holding the task's virtual cost, local-time
  events, outputs and counters;
* the **accounting** (slot scheduling, event rebasing, counter aggregation,
  partitioning) stays in :class:`repro.mapreduce.engine.Cluster`, which
  places the payloads' costs with a
  :class:`~repro.mapreduce.faults.FaultScheduler` and replays them in
  task-id order.

An :class:`Executor` only decides *where* the per-task computations run:

* :class:`SerialExecutor` — in-process, one task at a time (the default);
* :class:`ParallelExecutor` — fans a phase's tasks out to a pool of forked
  worker processes, keeping phases too small to pay for IPC in-process.

Parallel runtime design
-----------------------
Both phases go through :meth:`ParallelExecutor._run_phase`:

* **adaptive serial fallback** — a phase whose estimated virtual cost is
  below :data:`DEFAULT_SERIAL_FLOOR` runs in-process: the dispatch
  overhead would exceed the fanned-out compute.
* **inputs are inherited, never shipped** — a fanned-out phase stashes its
  job (full of lambdas and schedule objects, so never picklable), its
  inputs (map splits or reduce partitions) and the cost model in one
  module global, forks a :class:`concurrent.futures.ProcessPoolExecutor`
  for *this phase*, and clears the global when the phase returns or
  raises.  Workers read ``inputs[task_id]`` copy-on-write, the way a
  Hadoop reduce task reads the map output where it lies; only bare task
  ids go down the call queue and one :mod:`repro.mapreduce.wire` result
  blob per task comes back.  ``pool_forks`` therefore counts fanned-out
  phases.
* **stats** — ``ipc_bytes`` counts the result blobs and ``worker_idle_ms``
  is workers × phase wall minus the task wall time the payloads report.
* **imported on first use** — :mod:`multiprocessing` and
  :mod:`concurrent.futures` are imported by the first fanned-out phase,
  not with this module, so a serial run (and ``import repro``) never
  loads them.
* **failures are errors, not hangs** — a task that raises, or a worker
  that dies, reaches the driver through the pool's futures
  (``BrokenProcessPool`` for a dead worker) and is re-raised as a
  ``RuntimeError`` naming the task; the phase's ``finally`` shuts the
  pool down and the same executor runs the next job.

Determinism contract
--------------------
Both backends produce **bit-for-bit identical** job results: the payload of
a task depends only on the task's inputs (each task gets a fresh
mapper/reducer from its factory; what a job's tasks do share, like the
kernel rows of a job's ``BatchMatcher``, is a cache of pure functions of
the entities and changes only wall-clock time), floating-point virtual
costs are computed by the same pure Python code in either process, the wire
encoding is lossless, and the driver consumes payloads in task-id order
regardless of the order workers finish in.  Wall-clock time — and the
`driver.*` performance statistics that describe it — is the only observable
difference, which is why those statistics live in the metrics registry and
never inside job counters.

Fault injection keeps the contract for free: every fault decision (seeded
crashes and their retries — see
:mod:`repro.mapreduce.faults`) is made *in the driver* from the plan's seed
and the payloads' virtual costs, never inside a worker and never from
wall-clock time, so a faulty run is just as backend-independent as a clean
one.

Worker serialization caveats
----------------------------
The job and its inputs are inherited, never pickled, so the parallel
backend requires the POSIX ``fork`` start method; without it the backend
transparently degrades to in-process execution (results are identical
either way).  Only task *results* cross the pipe, wire-encoded, so
everything a mapper emits, a reducer writes, and every event payload must
be picklable.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from . import wire
from .clock import CostModel
from .counters import Counters
from .job import MapReduceJob, TaskContext
from .types import Event, KeyValue, OutputFile, SpanFragment

@dataclass
class MapTaskPayload:
    """Everything one map task computed, in task-local virtual time.

    Attributes:
        task_id: index of the task within the map phase.
        cost: total virtual cost the task accumulated.
        events: events recorded by the task (local time; the engine rebases
            them to global time once the task is scheduled on a slot).
        emitted: the task's intermediate key-value pairs.
        counters: counters the task incremented.
        num_records: input records the task consumed.
        spans: trace-span fragments recorded by the task (local time, like
            ``events``); empty unless the running cluster has a tracer.
        wall_ns: wall-clock nanoseconds the task body took in whichever
            process ran it; :class:`ParallelExecutor` sums it into
            ``worker_idle_ms`` and the engine copies it to
            ``TaskResult.wall_ns``.  Never read by virtual time.
    """

    task_id: int
    cost: float
    events: List[Event]
    emitted: List[KeyValue]
    counters: Counters
    num_records: int
    spans: List[SpanFragment] = field(default_factory=list)
    wall_ns: int = 0


@dataclass
class ReduceTaskPayload:
    """Everything one reduce task computed, in task-local virtual time."""

    task_id: int
    cost: float
    events: List[Event]
    written: List[Any]
    files: List[OutputFile] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    num_groups: int = 0
    num_records: int = 0
    spans: List[SpanFragment] = field(default_factory=list)
    wall_ns: int = 0


# ---------------------------------------------------------------------------
# Pure per-task computations (shared by every backend)
# ---------------------------------------------------------------------------


def compute_map_task(
    job: MapReduceJob,
    split: Sequence[Any],
    task_id: int,
    cost_model: CostModel,
) -> MapTaskPayload:
    """Run one map task to completion and return its payload."""
    wall_start = time.perf_counter_ns()
    context = TaskContext(task_id, cost_model, trace=job.trace)
    mapper = job.mapper_factory()
    mapper.setup(context)
    for record in split:
        context.charge(cost_model.read_record)
        mapper.map(record, context)
    mapper.cleanup(context)
    return MapTaskPayload(
        task_id=task_id,
        cost=context.clock.now,
        events=list(context.emitted_events),
        emitted=context.emitted,
        counters=context.counters,
        num_records=len(split),
        spans=list(context.span_fragments),
        wall_ns=time.perf_counter_ns() - wall_start,
    )


def compute_reduce_task(
    job: MapReduceJob,
    items: Sequence[KeyValue],
    task_id: int,
    cost_model: CostModel,
) -> ReduceTaskPayload:
    """Run one reduce task (shuffle charge, sort, reduce calls) and return
    its payload.  Output-file close times stay task-local until the engine
    schedules the task and rebases them."""
    wall_start = time.perf_counter_ns()
    context = TaskContext(task_id, cost_model, alpha=job.alpha, trace=job.trace)
    # Shuffle: pull records in, then sort groups by key.
    context.charge(cost_model.shuffle_record * len(items))
    groups = group_by_key(items)
    keys = list(groups.keys())
    sort_key = job.key_sort
    keys.sort(key=sort_key if sort_key is not None else default_group_key)
    context.charge(cost_model.sort_cost(len(items)))

    reducer = job.reducer_factory()
    reducer.setup(context)
    for key in keys:
        reducer.reduce(key, groups[key], context)
    reducer.cleanup(context)
    return ReduceTaskPayload(
        task_id=task_id,
        cost=context.clock.now,
        events=list(context.emitted_events),
        written=context.written,
        files=context.finalize_files(),
        counters=context.counters,
        num_groups=len(keys),
        num_records=len(items),
        spans=list(context.span_fragments),
        wall_ns=time.perf_counter_ns() - wall_start,
    )


def group_by_key(items: Sequence[KeyValue]) -> "dict[Any, List[Any]]":
    """Group shuffled key-value pairs by key, preserving arrival order."""
    groups: dict[Any, List[Any]] = {}
    for key, value in items:
        groups.setdefault(key, []).append(value)
    return groups


def default_group_key(key: Any) -> Any:
    """Default group ordering: natural key order with a repr fallback."""
    return (0, key) if isinstance(key, (int, float)) else (1, repr(key))


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class Executor:
    """Runs the independent per-task computations of one job phase.

    Implementations must return payloads in task-id order and must not
    change the payloads' contents relative to :class:`SerialExecutor` —
    the engine relies on this for cross-backend determinism.  After each
    phase the engine calls :meth:`drain_stats` and surfaces whatever the
    backend measured as ``driver.*`` metrics.
    """

    name: str = "?"

    def drain_stats(self) -> Dict[str, int]:
        """Performance statistics accumulated since the last drain.

        Wall-clock bookkeeping only (pool forks, wire bytes, chunks); the
        engine routes these to the metrics registry, never into job
        counters, so backends stay bit-identical in virtual time.
        """
        return {}

    def run_map_phase(
        self,
        job: MapReduceJob,
        splits: Sequence[Sequence[Any]],
        cost_model: CostModel,
    ) -> List[MapTaskPayload]:
        raise NotImplementedError

    def run_reduce_phase(
        self,
        job: MapReduceJob,
        partitions: Sequence[Sequence[KeyValue]],
        cost_model: CostModel,
    ) -> List[ReduceTaskPayload]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """The default backend: every task runs in the driver process."""

    name = "serial"

    def run_map_phase(self, job, splits, cost_model):
        return [
            compute_map_task(job, split, task_id, cost_model)
            for task_id, split in enumerate(splits)
        ]

    def run_reduce_phase(self, job, partitions, cost_model):
        return [
            compute_reduce_task(job, items, task_id, cost_model)
            for task_id, items in enumerate(partitions)
        ]


#: ``(compute, job, inputs, cost_model)`` of the phase currently fanned
#: out, set for the length of one ``_run_phase`` call.  Workers forked
#: meanwhile inherit it (and everything it references — the job's
#: closures, the dataset slices in the inputs) copy-on-write, so neither
#: the never-picklable job nor a task's input is ever serialized.
_ACTIVE_PHASE: Optional[tuple] = None


def _run_task(task_id: int) -> bytes:
    """Pool task body (runs in a forked worker); returns the wire blob."""
    compute, job, inputs, cost_model = _ACTIVE_PHASE
    return wire.encode(compute(job, inputs[task_id], task_id, cost_model))


def visible_cpus() -> int:
    """CPUs this process may run on (affinity-aware): the default worker
    count of :class:`ParallelExecutor`."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: Phases whose estimated virtual cost falls below this floor run
#: in-process.  Calibrated against the CostModel defaults: dispatching a
#: phase costs ~1 pool round-trip per task (hundreds of microseconds),
#: while one virtual cost unit corresponds to one reference-length pair
#: comparison (~10 µs of real work in this simulator), so phases cheaper
#: than a few hundred units lose more to IPC than fan-out can recover.
#: Read when each phase starts, so a test can patch it (0 forces fan-out
#: whenever possible).
DEFAULT_SERIAL_FLOOR = 256.0


class ParallelExecutor(Executor):
    """Fan each phase's tasks out to a pool of ``workers`` forked processes
    (design in the module docstring); results are bit-for-bit identical to
    :class:`SerialExecutor`.

    Args:
        workers: worker processes (default: visible CPU count).

    When process parallelism cannot help — no ``fork`` support, a single
    worker, or a phase with fewer than two tasks — tasks run in-process,
    which changes nothing but wall-clock time.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers if workers is not None else visible_cpus()
        # The platforms with ``os.fork`` are those whose ``multiprocessing``
        # offers the fork start method; asking it would import it.
        self._can_fork = hasattr(os, "fork")
        self._phase_stats: Dict[str, int] = {}

    def drain_stats(self) -> Dict[str, int]:
        drained = self._phase_stats
        self._phase_stats = {}
        return drained

    def _count(self, name: str, amount: int) -> None:
        self._phase_stats[name] = self._phase_stats.get(name, 0) + amount

    # -- phase execution -----------------------------------------------

    def run_map_phase(self, job, splits, cost_model):
        estimate = cost_model.read_record * sum(len(s) for s in splits)
        return self._run_phase(compute_map_task, job, splits, cost_model, estimate)

    def run_reduce_phase(self, job, partitions, cost_model):
        total_items = sum(len(p) for p in partitions)
        estimate = (
            cost_model.shuffle_record * total_items
            + cost_model.sort_cost(total_items)
        )
        return self._run_phase(
            compute_reduce_task, job, partitions, cost_model, estimate
        )

    def _should_fan_out(self, num_tasks: int, estimated_cost: float) -> bool:
        return (
            self._can_fork
            and self.workers >= 2
            and num_tasks >= 2
            and estimated_cost >= DEFAULT_SERIAL_FLOOR
        )

    def _run_phase(self, compute, job, inputs, cost_model, estimate):
        """One task per input, inline or on a pool forked for this phase;
        payloads by task id."""
        global _ACTIVE_PHASE
        num_tasks = len(inputs)
        if not self._should_fan_out(num_tasks, estimate):
            self._count("tasks_inline", num_tasks)
            return [
                compute(job, items, task_id, cost_model)
                for task_id, items in enumerate(inputs)
            ]
        # Imported here, on the first fan-out, so a run that never fans out
        # (every serial one) never loads them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            self.workers,
            mp_context=multiprocessing.get_context("fork"),
        )
        # With the fork context every worker is forked inside the first
        # ``submit`` below, so the phase must be the global by then.
        _ACTIVE_PHASE = (compute, job, inputs, cost_model)
        try:
            self._count("pool_forks", 1)
            self._count("tasks_fanned", num_tasks)
            wall_start = time.perf_counter_ns()
            futures = {}
            for task_id in range(num_tasks):
                try:
                    futures[pool.submit(_run_task, task_id)] = task_id
                except BrokenProcessPool as error:  # a worker died already
                    raise RuntimeError(
                        f"parallel worker failed before task {task_id} was submitted"
                    ) from error
            payloads = []
            for future in as_completed(futures):
                try:
                    blob = future.result()
                except Exception as error:  # the task raised, or its worker died
                    trace = "".join(traceback.format_exception(error))
                    raise RuntimeError(
                        f"parallel worker failed on task {futures[future]}:\n{trace}"
                    ) from error
                self._count("ipc_bytes", len(blob))
                payloads.append(wire.decode(blob))
            # Idle = worker-seconds the phase held minus those spent in tasks.
            phase_ns = (time.perf_counter_ns() - wall_start) * self.workers
            busy_ns = sum(payload.wall_ns for payload in payloads)
            self._count("worker_idle_ms", max(0, phase_ns - busy_ns) // 1_000_000)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
            _ACTIVE_PHASE = None
        payloads.sort(key=lambda p: p.task_id)
        return payloads


#: Recognised backend names for :func:`make_executor` / the CLI.
BACKENDS = ("serial", "process")


def make_executor(backend: str = "serial", workers: Optional[int] = None) -> Executor:
    """Build an executor from a CLI-style backend name."""
    if backend == "serial":
        return SerialExecutor()
    if backend == "process":
        return ParallelExecutor(workers)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


__all__ = [
    "MapTaskPayload",
    "ReduceTaskPayload",
    "compute_map_task",
    "compute_reduce_task",
    "group_by_key",
    "default_group_key",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "DEFAULT_SERIAL_FLOOR",
    "BACKENDS",
    "make_executor",
    "visible_cpus",
]
