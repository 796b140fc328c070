"""The cluster simulator: slot scheduling, phases, and job execution.

The paper runs Hadoop 1.2.1 on μ machines with *at most two concurrent map
and two concurrent reduce tasks per machine*, block size tuned so the number
of map tasks equals the number of map slots, and speculative execution
disabled.  :class:`Cluster` reproduces exactly that static-slot model:

* a job's map tasks are scheduled onto ``machines * SLOTS_PER_MACHINE``
  slots in waves (earliest-free-slot first, deterministic tie-break by
  slot index);
* the reduce phase begins only after the last map task finishes (Hadoop
  cannot invoke ``reduce()`` before the shuffle completes);
* each reduce task is charged shuffle cost proportional to the records it
  receives, then runs its groups to completion.

All time is virtual (see :mod:`repro.mapreduce.clock`).  The *computation*
of each task is delegated to an execution backend
(:mod:`repro.mapreduce.executors`): tasks return per-task cost/event
payloads, a :class:`~repro.mapreduce.faults.FaultScheduler` places their
costs on the phase's slots, and the cluster replays the payloads onto
those placements in task-id order, so virtual-time results are identical
whether the tasks ran serially or on a pool of worker processes.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from .clock import CostModel
from .counters import Counters
from .faults import AttemptSpan, FaultPlan, FaultScheduler, TaskSchedule
from .executors import Executor, SerialExecutor
from .job import MapReduceJob, split_input
from .types import Event, JobResult, KeyValue, OutputFile, TaskResult

#: Concurrent map tasks, and concurrent reduce tasks, per machine: the
#: paper's Hadoop 1.2.1 cluster runs two of each (Section VI-A1).
SLOTS_PER_MACHINE = 2

if TYPE_CHECKING:  # observability depends on mapreduce, never the reverse
    from ..observability.metrics import MetricsRegistry
    from ..observability.tracing import Tracer


class Cluster:
    """A simulated Hadoop cluster.

    Args:
        machines: number of worker machines (μ in the paper), each with
            :data:`SLOTS_PER_MACHINE` map and reduce slots.
        cost_model: unit costs charged to every task clock.
        executor: execution backend running the per-task computations
            (default: :class:`~repro.mapreduce.executors.SerialExecutor`).
            Backends only change wall-clock time, never virtual time.
        tracer: optional :class:`~repro.observability.tracing.Tracer`
            recording job/phase/task/block spans in virtual time.  Pure
            observation: attaching one never changes events, counters or
            timestamps, and ``None`` (the default) costs nothing.
        metrics: optional
            :class:`~repro.observability.metrics.MetricsRegistry` receiving
            cumulative counter snapshots at the end of each phase.
        faults: optional :class:`~repro.mapreduce.faults.FaultPlan`
            injecting seeded crashes and retries into every job run on
            this cluster.  Fault decisions replay from the seeded plan in
            the driver, so they are identical on every execution backend.
    """

    map_slots = SLOTS_PER_MACHINE
    reduce_slots = SLOTS_PER_MACHINE

    def __init__(
        self,
        machines: int,
        *,
        cost_model: Optional[CostModel] = None,
        executor: Optional[Executor] = None,
        tracer: "Optional[Tracer]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if machines <= 0:
            raise ValueError(f"machines must be positive, got {machines}")
        self.machines = machines
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.executor = executor if executor is not None else SerialExecutor()
        self.tracer = tracer
        self.metrics = metrics
        self.faults = faults

    @property
    def num_map_tasks(self) -> int:
        """Default map parallelism: one wave filling every map slot."""
        return self.machines * self.map_slots

    @property
    def num_reduce_tasks(self) -> int:
        """Default reduce parallelism: one task per reduce slot."""
        return self.machines * self.reduce_slots

    # ------------------------------------------------------------------

    def run_job(
        self,
        job: MapReduceJob,
        records: Sequence[Any],
        *,
        start_time: float = 0.0,
        num_reduce_tasks: Optional[int] = None,
    ) -> JobResult:
        """Execute one MapReduce job and return its :class:`JobResult`.

        ``records`` is the logical input file; it is split contiguously
        across :attr:`num_map_tasks` map tasks.  ``start_time`` lets
        callers chain jobs (Job 2 starts when Job 1 ends).

        Phases are placed under the cluster's :class:`FaultPlan`, or an
        inert ``FaultPlan()`` when it has none.  A failed attempt loses
        its partial work and the task re-executes from scratch — results
        are identical, only the timeline stretches.
        """
        plan = self.faults if self.faults is not None else FaultPlan()
        n_red = num_reduce_tasks if num_reduce_tasks is not None else self.num_reduce_tasks
        # Set on every run: a job object may be reused against clusters
        # with and without a tracer.
        job.trace = self.tracer is not None

        counters = Counters()
        splits = split_input(records, self.num_map_tasks)
        wall_start = time.perf_counter()
        map_results, partitions = self._run_map_phase(
            job, splits, n_red, start_time, counters, plan,
        )
        map_wall = time.perf_counter() - wall_start
        map_phase_end = max((t.end_time for t in map_results), default=start_time)
        self._snapshot_phase(
            f"{job.name}/map", counters,
            tasks=len(map_results), phase_end=map_phase_end, wall=map_wall,
        )

        wall_start = time.perf_counter()
        reduce_results, files = self._run_reduce_phase(
            job, partitions, map_phase_end, counters, plan,
        )
        reduce_wall = time.perf_counter() - wall_start
        end_time = max((t.end_time for t in reduce_results), default=map_phase_end)
        self._snapshot_phase(
            f"{job.name}/reduce", counters,
            tasks=len(reduce_results), phase_end=end_time, wall=reduce_wall,
        )
        if self.tracer is not None:
            self.tracer.record_span(
                job.name, "job", start_time, end_time, job=job.name
            )
            self.tracer.record_span(
                "map-phase", "phase", start_time, map_phase_end,
                job=job.name, tasks=len(map_results),
            )
            self.tracer.record_span(
                "reduce-phase", "phase", map_phase_end, end_time,
                job=job.name, tasks=len(reduce_results),
            )

        events: List[Event] = []
        for task in map_results + reduce_results:
            events.extend(task.events)
        events.sort(key=lambda e: (e.time, e.kind))

        output: List[Any] = []
        for task in reduce_results:
            output.extend(task.output)

        return JobResult(
            start_time=start_time,
            map_phase_end=map_phase_end,
            end_time=end_time,
            map_tasks=map_results,
            reduce_tasks=reduce_results,
            events=events,
            output=output,
            output_files=files,
            counters=counters,
        )

    # ------------------------------------------------------------------

    def _snapshot_phase(
        self,
        scope: str,
        counters: Counters,
        *,
        tasks: int,
        phase_end: float,
        wall: float,
    ) -> None:
        """Record one phase in the metrics registry (no-op without one).

        The snapshot carries the cumulative job counters plus the
        backend's per-phase performance statistics (``driver.pool_forks``,
        ``driver.ipc_bytes``, …): wall-clock facts that legitimately differ
        between backends, which is why they are surfaced here and never
        merged into the backend-identical job counters.
        """
        perf = self.executor.drain_stats()
        if self.metrics is None:
            return
        flat = counters.as_flat_dict()
        for name, value in sorted(perf.items()):
            if value:
                flat[f"driver.{name}"] = value
        self.metrics.snapshot(
            scope,
            flat,
            backend=self.executor.name,
            tasks=tasks,
            phase_end=phase_end,
            wall_seconds=round(wall, 6),
        )

    def _run_map_phase(
        self,
        job: MapReduceJob,
        splits: List[List[Any]],
        n_red: int,
        start_time: float,
        counters: Counters,
        plan: FaultPlan,
    ) -> Tuple[List[TaskResult], List[List[KeyValue]]]:
        """Run all map tasks; return task results and per-reducer
        partitions, built in task-id order whatever the backend."""
        payloads = self.executor.run_map_phase(job, splits, self.cost_model)
        schedules = self._place_phase(
            plan, job, "map", start_time, payloads, counters
        )
        partitions: List[List[KeyValue]] = [[] for _ in range(n_red)]
        results: List[TaskResult] = []

        for payload in payloads:
            counters.merge(payload.counters)
            counters.increment("engine", "map_records", payload.num_records)
            counters.increment("engine", "map_emitted", len(payload.emitted))
            result, _ = self._replay_task(
                job, "map", payload, schedules[payload.task_id],
                counters, payload.emitted,
            )
            results.append(result)
            for key, value in payload.emitted:
                idx = job.partitioner.partition(key, n_red)
                if not 0 <= idx < n_red:
                    raise ValueError(
                        f"partitioner returned {idx} for key {key!r}; "
                        f"valid range is [0, {n_red})"
                    )
                partitions[idx].append((key, value))
        return results, partitions

    def _place_phase(
        self,
        plan: FaultPlan,
        job: MapReduceJob,
        phase: str,
        phase_start: float,
        payloads: Sequence[Any],
        counters: Counters,
    ) -> List[TaskSchedule]:
        """Place one phase's tasks on the cluster's idle slots from
        ``phase_start`` under ``plan``; return the per-task schedules.

        The scheduler runs in the driver on the payloads' virtual costs,
        so the timeline is identical on every execution backend.  Crash
        decisions key on task ids and attempt ordinals, never on absolute
        times, so ``phase_start`` changes when a phase runs but not how
        many faults it meets.  Fault statistics land in the ``fault.*``
        counter namespace (only non-zero values are recorded, so an inert
        plan leaves counters untouched).
        """
        scheduler = FaultScheduler(
            plan, self.machines * SLOTS_PER_MACHINE, phase_start,
            job=job.name, phase=phase,
        )
        schedules = scheduler.run([p.cost for p in payloads])
        for name, value in vars(scheduler.stats).items():
            if value:
                counters.increment("fault", f"{phase}_{name}", value)
        return schedules

    def _replay_task(
        self,
        job: MapReduceJob,
        phase: str,
        payload: Any,
        sched: TaskSchedule,
        counters: Counters,
        output: List[Any],
    ) -> Tuple[TaskResult, AttemptSpan]:
        """Rebase one payload onto its placement (shared by both phases);
        return the task's result and its winning attempt.

        Task-local event times are shifted to the winning attempt's start.
        """
        win = sched.winning
        counters.increment("engine", f"{phase}_retries", sched.num_failed)
        self._trace_task(job, phase, payload, sched)
        result = TaskResult(
            task_id=payload.task_id,
            cost=payload.cost,
            start_time=sched.attempts[0].start,
            end_time=win.end,
            events=[
                Event(time=win.start + e.time, kind=e.kind, payload=e.payload)
                for e in payload.events
            ],
            output=output,
            num_failed_attempts=sched.num_failed,
            wall_ns=payload.wall_ns,
        )
        return result, win

    def _trace_task(
        self,
        job: MapReduceJob,
        phase: str,
        payload: Any,
        sched: TaskSchedule,
    ) -> None:
        """Record one placed task: every failed attempt, the winning
        attempt as the task span, and the task-local span fragments
        rebased to global time.  Retry markers are added only when
        present."""
        trace = self.tracer
        if trace is None:
            return
        task_id = payload.task_id
        win = sched.winning
        for att in sched.attempts:
            if att.outcome == "success":
                continue
            trace.record_span(
                f"{phase}-{task_id}/attempt-{att.attempt}",
                "attempt",
                att.start,
                att.end,
                job=job.name,
                track=att.slot + 1,  # track 0 belongs to job/phase spans
                task=task_id,
                phase=phase,
                failed=True,
            )
        extra = {}
        if win.attempt > 0:
            extra["attempt"] = win.attempt
        trace.record_span(
            f"{phase}-{task_id}",
            "task",
            win.start,
            win.end,
            job=job.name,
            track=win.slot + 1,
            task=task_id,
            phase=phase,
            cost=payload.cost,
            records=payload.num_records,
            **extra,
        )
        for fragment in payload.spans:
            trace.record_span(
                fragment.name,
                fragment.category,
                win.start + fragment.start,
                win.start + fragment.end,
                job=job.name,
                track=win.slot + 1,
                **dict(fragment.args),
            )

    def _run_reduce_phase(
        self,
        job: MapReduceJob,
        partitions: List[List[KeyValue]],
        phase_start: float,
        counters: Counters,
        plan: FaultPlan,
    ) -> Tuple[List[TaskResult], List[OutputFile]]:
        """Run all reduce tasks; return task results and output files."""
        payloads = self.executor.run_reduce_phase(job, partitions, self.cost_model)
        schedules = self._place_phase(
            plan, job, "reduce", phase_start, payloads, counters
        )
        results: List[TaskResult] = []
        all_files: List[OutputFile] = []

        for payload in payloads:
            task_id = payload.task_id
            counters.merge(payload.counters)
            counters.increment("engine", "reduce_groups", payload.num_groups)
            counters.increment("engine", "reduce_records", payload.num_records)
            result, win = self._replay_task(
                job, "reduce", payload, schedules[task_id],
                counters, payload.written,
            )
            results.append(result)
            for f in payload.files:
                # Rebase the task-local close time like the task's events.
                f.close_time = win.start + f.close_time
                if self.tracer is not None:
                    self.tracer.record_instant(
                        f"flush-{task_id}.{f.index}",
                        "flush",
                        f.close_time,
                        job=job.name,
                        track=win.slot + 1,
                        task=task_id,
                        records=len(f.records),
                    )
            all_files.extend(payload.files)
        return results, all_files


__all__ = ["SLOTS_PER_MACHINE", "Cluster"]
