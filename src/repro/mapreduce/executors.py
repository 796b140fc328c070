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
* :class:`ParallelExecutor` — fans tasks out to a per-job pool of forked
  worker processes, keeping phases too small to pay for IPC in-process.

Parallel runtime design
-----------------------
The engine brackets every job with :meth:`Executor.begin_job` /
:meth:`Executor.end_job`.  For the parallel backend that means:

* **one fork per job, not per phase** — the job (full of lambdas and
  schedule objects, so never picklable) and its map splits are stashed in a
  module global before the pool forks; workers inherit everything
  copy-on-write and both phases run through the same
  :class:`concurrent.futures.ProcessPoolExecutor`.  The pool is created
  lazily, so a job whose phases all fall under the serial floor never
  forks at all.
* **one transport** — a task is a small tuple on the pool's call queue
  (``("map", id)``, or ``("reduce", id, blob)`` carrying the partition,
  which only exists in the driver) and its result is one
  :mod:`repro.mapreduce.wire` blob on the result queue.  Idle workers pull
  the next task; reduce units are submitted heaviest first.
  ``ipc_bytes`` counts the blob bytes both ways and ``worker_idle_ms`` is
  workers × phase wall minus the task wall time the payloads report.
* **adaptive serial fallback** — a phase whose estimated virtual cost is
  below :attr:`ParallelExecutor.serial_floor` runs in-process: the
  dispatch overhead would exceed the fanned-out compute.
* **failures are errors, not hangs** — a task that raises, or a worker
  that dies, reaches the driver through the pool's futures
  (``BrokenProcessPool`` for a dead worker) and is re-raised as a
  ``RuntimeError`` naming the task; :meth:`Executor.end_job` then shuts
  the pool down and the same executor runs the next job.

Determinism contract
--------------------
Both backends produce **bit-for-bit identical** job results: the payload of
a task depends only on the task's inputs (tasks never share mutable state —
each gets a fresh mapper/reducer from its factory), floating-point virtual
costs are computed by the same pure Python code in either process, the wire
encoding is lossless, and the driver consumes payloads in task-id order
regardless of the order workers finish in.  Wall-clock time — and the
`driver.*` performance statistics that describe it — is the only observable
difference, which is why those statistics live in the metrics registry and
never inside job counters.

Fault injection keeps the contract for free: every fault decision (seeded
crashes, straggler slowdowns, speculation — see
:mod:`repro.mapreduce.faults`) is made *in the driver* from the plan's seed
and the payloads' virtual costs, never inside a worker and never from
wall-clock time, so a faulty run is just as backend-independent as a clean
one.

Worker serialization caveats
----------------------------
The job is inherited, never pickled, so the parallel backend requires the
POSIX ``fork`` start method; without it the backend transparently degrades
to in-process execution (results are identical either way).  Task results
and shipped reduce inputs cross the pipe wire-encoded, so everything a
mapper emits, a reducer writes, and every event payload must be picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import wire
from .clock import CostModel
from .counters import Counters
from .job import MapReduceJob, TaskContext
from .types import Event, KeyValue, OutputFile, SpanFragment

#: Per-task statistic deltas: ``(group, name, delta)`` triples.
StatDeltas = Tuple[Tuple[str, str, int], ...]


@dataclass
class MapTaskPayload:
    """Everything one map task computed, in task-local virtual time.

    Attributes:
        task_id: index of the task within the map phase.
        cost: total virtual cost the task accumulated.
        events: events recorded by the task (local time; the engine rebases
            them to global time once the task is scheduled on a slot).
        emitted: the task's intermediate key-value pairs, post-combiner.
        counters: counters the task incremented.
        num_records: input records the task consumed.
        combine_input / combine_output: combiner fold sizes (0 when the job
            has no combiner).
        spans: trace-span fragments recorded by the task (local time, like
            ``events``); empty unless the running cluster has a tracer.
        stat_deltas: per-task deltas of registered process statistics (see
            :func:`register_task_stat_source`) — e.g. the similarity-cache
            hits/misses this task caused in whichever process ran it.
            Wall-clock bookkeeping only: the engine routes them to the
            metrics registry, never into job counters, because per-worker
            cache state legitimately differs between backends.
        wall_ns: wall-clock nanoseconds the task body took in whichever
            process ran it (cost-model calibration input; never read by
            virtual time).
        charge_profile: sorted ``(category, units)`` pairs of the task's
            tagged virtual charges (see ``TaskContext.charge``); the
            untagged remainder is ``cost - sum(units)``.
    """

    task_id: int
    cost: float
    events: List[Event]
    emitted: List[KeyValue]
    counters: Counters
    num_records: int
    combine_input: int = 0
    combine_output: int = 0
    spans: List[SpanFragment] = field(default_factory=list)
    stat_deltas: StatDeltas = ()
    wall_ns: int = 0
    charge_profile: Tuple[Tuple[str, float], ...] = ()


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
    stat_deltas: StatDeltas = ()
    wall_ns: int = 0
    charge_profile: Tuple[Tuple[str, float], ...] = ()


# ---------------------------------------------------------------------------
# Per-task process statistics (similarity-cache deltas et al.)
# ---------------------------------------------------------------------------

#: Registered statistic sources: group -> zero-arg callable returning the
#: process-cumulative ``{name: value}`` snapshot for that group.
_TASK_STAT_SOURCES: Dict[str, Callable[[], Mapping[str, int]]] = {}


def register_task_stat_source(
    group: str, source: Callable[[], Mapping[str, int]]
) -> None:
    """Register a process-wide statistic to be sampled around every task.

    ``source()`` must return a cumulative ``{name: value}`` mapping; the
    per-task *delta* rides back to the driver in the payload's
    ``stat_deltas``, which is how worker-process cache statistics become
    visible to the driver's metrics.  Registering the same group again
    replaces the source (idempotent re-imports).
    """
    _TASK_STAT_SOURCES[group] = source


def _stat_snapshot() -> Dict[Tuple[str, str], int]:
    return {
        (group, name): value
        for group, source in _TASK_STAT_SOURCES.items()
        for name, value in source().items()
    }


def _stat_deltas(before: Dict[Tuple[str, str], int]) -> StatDeltas:
    after = _stat_snapshot()
    return tuple(
        (group, name, value - before.get((group, name), 0))
        for (group, name), value in sorted(after.items())
        if value != before.get((group, name), 0)
    )


# ---------------------------------------------------------------------------
# Per-job process-state reset hooks
# ---------------------------------------------------------------------------

#: Callables invoked at the start of every job — in the driver by the
#: engine, and in every parallel worker when it starts.  Used to reset
#: process-global wall-clock caches (the similarity memo) so their
#: ``matcher.*`` counters describe one job instead of leaking across
#: back-to-back runs in the same process.  Virtual time never reads these
#: caches, so resetting them cannot change results.
_JOB_RESET_HOOKS: List[Callable[[], None]] = []


def register_job_reset_hook(hook: Callable[[], None]) -> None:
    """Register ``hook`` to run at every job start (driver and workers).

    Registering the same function again is a no-op (idempotent re-imports).
    """
    if hook not in _JOB_RESET_HOOKS:
        _JOB_RESET_HOOKS.append(hook)


def run_job_reset_hooks() -> None:
    """Run every registered per-job reset hook (engine/worker startup)."""
    for hook in _JOB_RESET_HOOKS:
        hook()


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
    stats_before = _stat_snapshot()
    wall_start = time.perf_counter_ns()
    context = TaskContext(task_id, cost_model, job.config)
    mapper = job.mapper_factory()
    mapper.setup(context)
    for record in split:
        context.charge(cost_model.read_record, "read")
        mapper.map(record, context)
    mapper.cleanup(context)
    emitted = context.emitted
    combine_input = combine_output = 0
    if job.combiner is not None:
        combine_input = len(emitted)
        emitted = _apply_combiner(job, emitted, context)
        combine_output = len(emitted)
    return MapTaskPayload(
        task_id=task_id,
        cost=context.clock.now,
        events=list(context.emitted_events),
        emitted=emitted,
        counters=context.counters,
        num_records=len(split),
        combine_input=combine_input,
        combine_output=combine_output,
        spans=list(context.span_fragments),
        stat_deltas=_stat_deltas(stats_before),
        wall_ns=time.perf_counter_ns() - wall_start,
        charge_profile=tuple(sorted(context.charge_profile.items())),
    )


def _apply_combiner(
    job: MapReduceJob, emitted: List[KeyValue], context: TaskContext
) -> List[KeyValue]:
    """Fold a map task's output through the job's combiner."""
    assert job.combiner is not None
    context.charge(context.cost_model.sort_cost(len(emitted)), "sort")
    groups = group_by_key(emitted)
    combined: List[KeyValue] = []
    for key, values in groups.items():
        for value in job.combiner.combine(key, values):
            combined.append((key, value))
    return combined


def compute_reduce_task(
    job: MapReduceJob,
    items: Sequence[KeyValue],
    task_id: int,
    cost_model: CostModel,
) -> ReduceTaskPayload:
    """Run one reduce task (shuffle charge, sort, reduce calls) and return
    its payload.  Output-file close times stay task-local until the engine
    schedules the task and rebases them."""
    stats_before = _stat_snapshot()
    wall_start = time.perf_counter_ns()
    context = TaskContext(task_id, cost_model, job.config, alpha=job.alpha)
    # Shuffle: pull records in, then sort groups by key.
    context.charge(cost_model.shuffle_record * len(items), "shuffle")
    groups = group_by_key(items)
    keys = list(groups.keys())
    sort_key = job.key_sort
    keys.sort(key=sort_key if sort_key is not None else default_group_key)
    context.charge(cost_model.sort_cost(len(items)), "sort")

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
        stat_deltas=_stat_deltas(stats_before),
        wall_ns=time.perf_counter_ns() - wall_start,
        charge_profile=tuple(sorted(context.charge_profile.items())),
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
    the engine relies on this for cross-backend determinism.

    The engine brackets every job with :meth:`begin_job` / :meth:`end_job`
    (both no-ops by default) so backends can hold per-job resources — the
    parallel backend's worker pool lives exactly that long.  After each
    phase the engine calls :meth:`drain_stats` and surfaces whatever the
    backend measured as ``driver.*`` metrics.
    """

    name: str = "?"

    def begin_job(
        self,
        job: MapReduceJob,
        splits: Sequence[Sequence[Any]],
        cost_model: CostModel,
    ) -> None:
        """Called once before the job's map phase (resources may be lazy)."""

    def end_job(self) -> None:
        """Called once after the job's reduce phase (idempotent)."""

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

    def close(self) -> None:
        """Release any worker resources (idempotent)."""


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


class _JobState:
    """One job's fork-inherited state, stashed in a module global.

    Workers forked while this is the active global inherit it (and
    everything it references — the job's closures, the dataset slices in
    the map splits) copy-on-write, so the never-picklable job crosses the
    process boundary without being serialized.
    """

    __slots__ = ("job", "splits", "cost_model")

    def __init__(self, job, splits, cost_model) -> None:
        self.job = job
        self.splits = splits
        self.cost_model = cost_model


#: The job currently fanned out; workers inherit it at fork time.
_ACTIVE_JOB: Optional[_JobState] = None


def _run_task(message: tuple) -> bytes:
    """Pool task body (runs in a forked worker); returns the wire blob.

    ``("map", id)`` reads its split from the fork-inherited job state;
    ``("reduce", id, blob)`` carries its wire-encoded partition, which only
    ever existed in the driver (it is the map phase's output).
    """
    state, task_id = _ACTIVE_JOB, message[1]
    if message[0] == "map":
        return wire.encode_map_payload(
            compute_map_task(state.job, state.splits[task_id], task_id, state.cost_model)
        )
    items = wire.decode_records(message[2])
    return wire.encode_reduce_payload(
        compute_reduce_task(state.job, items, task_id, state.cost_model)
    )


def _default_workers() -> int:
    """Worker count honoring CPU affinity where the platform exposes it."""
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
DEFAULT_SERIAL_FLOOR = 256.0


class ParallelExecutor(Executor):
    """Fan each job's tasks out to a pool of ``workers`` forked processes
    (design in the module docstring); results are bit-for-bit identical to
    :class:`SerialExecutor`.

    Args:
        workers: worker processes (default: visible CPU count).
        serial_floor: phases with estimated virtual cost below this run
            in-process (0 forces fan-out whenever possible).

    When process parallelism cannot help — no ``fork`` support, a single
    worker, or a phase with fewer than two tasks — tasks run in-process,
    which changes nothing but wall-clock time.
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        serial_floor: float = DEFAULT_SERIAL_FLOOR,
    ) -> None:
        if workers is not None and workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        self.workers = workers if workers is not None else _default_workers()
        self.serial_floor = serial_floor
        self._can_fork = "fork" in multiprocessing.get_all_start_methods()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._job_state: Optional[_JobState] = None
        self._phase_stats: Dict[str, int] = {}
        #: Cumulative statistics across every job this executor ran
        #: (never drained; benches read this directly).
        self.stats: Dict[str, int] = {}

    # -- job lifecycle -------------------------------------------------

    def begin_job(self, job, splits, cost_model) -> None:
        self.end_job()  # defensive: a crashed previous job left state behind
        self._job_state = _JobState(job, splits, cost_model)

    def end_job(self) -> None:
        global _ACTIVE_JOB
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if _ACTIVE_JOB is self._job_state:
            _ACTIVE_JOB = None
        self._job_state = None

    def drain_stats(self) -> Dict[str, int]:
        drained = self._phase_stats
        self._phase_stats = {}
        return drained

    def _count(self, name: str, amount: int) -> None:
        self._phase_stats[name] = self._phase_stats.get(name, 0) + amount
        self.stats[name] = self.stats.get(name, 0) + amount

    # -- phase execution -----------------------------------------------

    def run_map_phase(self, job, splits, cost_model):
        estimate = cost_model.read_record * sum(len(s) for s in splits)
        if not self._should_fan_out(len(splits), estimate):
            self._count("tasks_inline", len(splits))
            return [
                compute_map_task(job, split, task_id, cost_model)
                for task_id, split in enumerate(splits)
            ]
        messages = [("map", task_id) for task_id in range(len(splits))]
        return self._fan_out(messages, wire.decode_map_payload)

    def run_reduce_phase(self, job, partitions, cost_model):
        num_tasks = len(partitions)
        total_items = sum(len(p) for p in partitions)
        estimate = (
            cost_model.shuffle_record * total_items
            + cost_model.sort_cost(total_items)
        )
        if not self._should_fan_out(num_tasks, estimate):
            self._count("tasks_inline", num_tasks)
            return [
                compute_reduce_task(job, items, task_id, cost_model)
                for task_id, items in enumerate(partitions)
            ]
        # Submit heaviest partitions first: the call queue is consumed in
        # order, so on skewed inputs the giant partition (or its balance
        # shards) starts immediately instead of behind light tasks.
        order = sorted(range(num_tasks), key=lambda t: (-len(partitions[t]), t))
        messages = [
            ("reduce", task_id, wire.encode_records(partitions[task_id]))
            for task_id in order
        ]
        self._count("ipc_bytes", sum(len(m[2]) for m in messages))
        return self._fan_out(messages, wire.decode_reduce_payload)

    # -- internals -----------------------------------------------------

    def _should_fan_out(self, num_tasks: int, estimated_cost: float) -> bool:
        return (
            self._can_fork
            and self.workers >= 2
            and num_tasks >= 2
            and estimated_cost >= self.serial_floor
        )

    def _fan_out(self, messages: List[tuple], decode):
        """Run one task per message on the job's pool; payloads by task id."""
        global _ACTIVE_JOB
        if self._pool is None:
            # With the fork context every worker is forked inside the first
            # ``submit`` below, so the job must be the global by then.
            _ACTIVE_JOB = self._job_state
            self._pool = ProcessPoolExecutor(
                self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=run_job_reset_hooks,
            )
            self._count("pool_forks", 1)
        self._count("tasks_fanned", len(messages))
        wall_start = time.perf_counter_ns()
        futures = {
            self._pool.submit(_run_task, message): message[1] for message in messages
        }
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
            payloads.append(decode(blob))
        # Idle = worker-seconds the phase held minus those spent in tasks.
        phase_ns = (time.perf_counter_ns() - wall_start) * self.workers
        busy_ns = sum(payload.wall_ns for payload in payloads)
        self._count("worker_idle_ms", max(0, phase_ns - busy_ns) // 1_000_000)
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
    "StatDeltas",
    "register_task_stat_source",
    "register_job_reset_hook",
    "run_job_reset_hooks",
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
]
