"""The cluster simulator: slot scheduling, phases, and job execution.

The paper runs Hadoop 1.2.1 on μ machines with *at most two concurrent map
and two concurrent reduce tasks per machine*, block size tuned so the number
of map tasks equals the number of map slots, and speculative execution
disabled.  :class:`Cluster` reproduces exactly that static-slot model:

* a job's map tasks are scheduled onto ``machines * map_slots`` slots in
  waves (earliest-free-slot first, deterministic tie-break by slot index);
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
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from .clock import CostModel
from .counters import Counters
from .faults import FaultPlan, FaultScheduler, TaskSchedule
from .executors import Executor, SerialExecutor
from .job import TRACE_CONFIG_KEY, MapReduceJob, split_input
from .types import Event, JobResult, KeyValue, OutputFile, TaskResult

if TYPE_CHECKING:  # observability depends on mapreduce, never the reverse
    from ..observability.metrics import MetricsRegistry
    from ..observability.tracing import Tracer


class Cluster:
    """A simulated Hadoop cluster.

    Args:
        machines: number of worker machines (μ in the paper).
        map_slots: concurrent map tasks per machine (paper: 2).
        reduce_slots: concurrent reduce tasks per machine (paper: 2).
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
            injecting seeded crashes, stragglers and (optionally)
            speculative execution into every job run on this cluster.
            Fault decisions replay from the seeded plan in the driver, so
            they are identical on every execution backend.
        slot_broker: optional multi-tenant capacity broker (see
            :mod:`repro.scheduling`), a callable
            ``slot_broker(kind, job_name, ready, place) -> (fault_scheduler,
            schedules)``.  When set, each phase is placed on a shared
            pool instead of starting from idle slots — the broker decides
            *when* the phase may start and *which* lane free-times it
            inherits, and calls ``place(lane_free_times, start)`` to run
            the phase's ``FaultScheduler``; task computation and placement
            order are untouched.  ``None`` (the default) is the classic
            one-job-owns-the-cluster timeline.
    """

    def __init__(
        self,
        machines: int,
        *,
        map_slots: int = 2,
        reduce_slots: int = 2,
        cost_model: Optional[CostModel] = None,
        executor: Optional[Executor] = None,
        tracer: "Optional[Tracer]" = None,
        metrics: "Optional[MetricsRegistry]" = None,
        faults: Optional[FaultPlan] = None,
        slot_broker: Optional[Any] = None,
    ) -> None:
        if machines <= 0:
            raise ValueError(f"machines must be positive, got {machines}")
        self.machines = machines
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.executor = executor if executor is not None else SerialExecutor()
        self.tracer = tracer
        self.metrics = metrics
        self.faults = faults
        self.slot_broker = slot_broker

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
        num_map_tasks: Optional[int] = None,
        num_reduce_tasks: Optional[int] = None,
    ) -> JobResult:
        """Execute one MapReduce job and return its :class:`JobResult`.

        ``records`` is the logical input file; it is split contiguously
        across map tasks.  ``start_time`` lets callers chain jobs (Job 2
        starts when Job 1 ends).

        Phases run on the cluster's executor and are placed under the
        cluster's :class:`FaultPlan` (see :mod:`repro.mapreduce.faults`),
        or an inert ``FaultPlan()`` when it has none.  A failed attempt
        loses its partial work and the task re-executes from scratch —
        results are identical, only the timeline stretches.
        """
        plan = self.faults if self.faults is not None else FaultPlan()
        n_map = num_map_tasks if num_map_tasks is not None else self.num_map_tasks
        n_red = num_reduce_tasks if num_reduce_tasks is not None else self.num_reduce_tasks
        # Plain assignment, not setdefault: a job object may be reused
        # against clusters with and without a tracer.
        job.config[TRACE_CONFIG_KEY] = self.tracer is not None

        counters = Counters()
        # Per-phase cost skew.  Strictly observational, so it lives in the
        # metrics registry, never in job counters.
        aux = Counters()
        splits = split_input(records, n_map)
        wall_start = time.perf_counter()
        map_results, partitions = self._run_map_phase(
            job, splits, n_red, start_time, counters, plan,
        )
        map_wall = time.perf_counter() - wall_start
        map_phase_end = max((t.end_time for t in map_results), default=start_time)
        _record_cost_skew(aux, "map", [t.cost for t in map_results])
        self._snapshot_phase(
            f"{job.name}/map", counters, aux,
            tasks=len(map_results), phase_end=map_phase_end, wall=map_wall,
        )

        wall_start = time.perf_counter()
        reduce_results, files = self._run_reduce_phase(
            job, partitions, n_red, map_phase_end, counters, plan,
        )
        reduce_wall = time.perf_counter() - wall_start
        end_time = max((t.end_time for t in reduce_results), default=map_phase_end)
        _record_cost_skew(aux, "reduce", [t.cost for t in reduce_results])
        self._snapshot_phase(
            f"{job.name}/reduce", counters, aux,
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
        aux: Counters,
        *,
        tasks: int,
        phase_end: float,
        wall: float,
    ) -> None:
        """Record one phase in the metrics registry (no-op without one).

        The snapshot carries the cumulative job counters plus two strictly
        observational layers: the phase's cost skew (``balance.*``, see
        :func:`_record_cost_skew`) and the backend's per-phase performance
        statistics (``driver.pool_forks``, ``driver.ipc_bytes``, …).  The
        latter are wall-clock facts that legitimately differ between
        backends, which is why they are surfaced here and never merged
        into the backend-identical job counters.
        """
        perf = self.executor.drain_stats()
        if self.metrics is None:
            return
        flat = counters.as_flat_dict()
        for name, value in sorted(perf.items()):
            if value:
                flat[f"driver.{name}"] = value
        for (group, name), value in sorted(aux.items()):
            flat[f"{group}.{name}"] = value
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
    ) -> tuple[List[TaskResult], List[List[KeyValue]]]:
        """Run all map tasks; return task results and per-reducer partitions.

        The backend computes the payloads (possibly on worker processes);
        scheduling, counter aggregation and partitioning replay them here,
        in task-id order, so the timeline never depends on the backend.
        """
        payloads = self.executor.run_map_phase(job, splits, self.cost_model)
        schedules = self._place_phase(
            plan, job, "map", self.machines * self.map_slots, start_time,
            payloads, counters,
        )
        partitions: List[List[KeyValue]] = [[] for _ in range(n_red)]
        results: List[TaskResult] = []

        for payload in payloads:
            counters.merge(payload.counters)
            if job.combiner is not None:
                counters.increment("engine", "combine_input", payload.combine_input)
                counters.increment("engine", "combine_output", payload.combine_output)
            counters.increment("engine", "map_records", payload.num_records)
            counters.increment("engine", "map_emitted", len(payload.emitted))
            results.append(
                self._replay_task(
                    job, "map", plan, payload, schedules[payload.task_id],
                    counters, payload.emitted,
                )
            )
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
        num_slots: int,
        phase_start: float,
        payloads: Sequence[Any],
        counters: Counters,
    ) -> List[TaskSchedule]:
        """Place one phase's tasks on its slots under ``plan``.

        Runs entirely in the driver on the payloads' virtual costs, so the
        resulting timeline is identical on every execution backend.  Fault
        statistics land in the ``fault.*`` counter namespace (only non-zero
        values are recorded, so an inert plan leaves counters untouched).

        Without a broker every slot is free at phase start.  With one, the
        call may *block* until the multi-tenant scheduler dispatches this
        phase; the broker then runs ``place`` on the shared lanes' current
        free times from the grant time and commits the final per-slot free
        times back, so the phase queues behind other tenants' commitments
        and a per-job fault plan stretches only this job's phase on the
        shared timeline.  Crash decisions key on task ids and attempt
        ordinals — never on absolute times — so the *number* of injected
        faults is identical to a solo run of the same plan.
        """

        def place(lanes: Optional[List[float]], start: float):
            scheduler = FaultScheduler(
                plan, num_slots if lanes is None else len(lanes), start,
                job=job.name, phase=phase, slot_free_times=lanes,
            )
            return scheduler, scheduler.run([p.cost for p in payloads])

        if self.slot_broker is None:
            scheduler, schedules = place(None, phase_start)
        else:
            scheduler, schedules = self.slot_broker(
                phase, job.name, phase_start, place
            )
        stats = scheduler.stats
        for name, value in (
            ("failed_attempts", stats.failed_attempts),
            ("retries", stats.retries),
            ("speculative_launched", stats.speculative_launched),
            ("speculative_wins", stats.speculative_wins),
            ("speculative_failed", stats.speculative_failed),
            ("killed_attempts", stats.killed_attempts),
            ("blacklisted_slots", stats.blacklisted_slots),
        ):
            if value:
                counters.increment("fault", f"{phase}_{name}", value)
        return schedules

    def _replay_task(
        self,
        job: MapReduceJob,
        phase: str,
        plan: FaultPlan,
        payload: Any,
        sched: TaskSchedule,
        counters: Counters,
        output: List[Any],
    ) -> TaskResult:
        """Rebase one payload onto its placement (shared by both phases).

        Task-local event times are shifted to the winning attempt's start
        and stretched by its slot's slowdown (exactly 1.0 on a healthy
        slot).
        """
        win = sched.winning
        stretch = plan.slot_slowdown(win.slot)
        retries = sum(
            1 for a in sched.attempts if a.outcome == "failed" and not a.speculative
        )
        counters.increment("engine", f"{phase}_retries", retries)
        self._trace_task(job, phase, payload, sched, stretch)
        return TaskResult(
            task_id=payload.task_id,
            cost=payload.cost,
            start_time=sched.attempts[0].start,
            end_time=win.end,
            events=[
                Event(
                    time=win.start + e.time * stretch,
                    kind=e.kind,
                    payload=e.payload,
                )
                for e in payload.events
            ],
            output=output,
            num_failed_attempts=sched.num_failed,
            speculative=win.speculative,
            wall_ns=payload.wall_ns,
            charge_profile=payload.charge_profile,
        )

    def _trace_task(
        self,
        job: MapReduceJob,
        phase: str,
        payload: Any,
        sched: TaskSchedule,
        stretch: float,
    ) -> None:
        """Record one placed task: every failed/killed attempt, the
        winning attempt as the task span, and the task-local span fragments
        rebased — and stretched by the winning slot's slowdown — to global
        time.  Retry/speculation markers are added only when present."""
        trace = self.tracer
        if trace is None:
            return
        task_id = payload.task_id
        win = sched.winning
        for att in sched.attempts:
            if att.outcome == "success":
                continue
            extra: dict = {att.outcome: True}
            if att.speculative:
                extra["speculative"] = True
            trace.record_span(
                f"{phase}-{task_id}/attempt-{att.attempt}",
                "attempt",
                att.start,
                att.end,
                job=job.name,
                track=att.slot + 1,  # track 0 belongs to job/phase spans
                task=task_id,
                phase=phase,
                **extra,
            )
        extra = {}
        if win.attempt > 0:
            extra["attempt"] = win.attempt
        if win.speculative:
            extra["speculative"] = True
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
                win.start + fragment.start * stretch,
                win.start + fragment.end * stretch,
                job=job.name,
                track=win.slot + 1,
                **dict(fragment.args),
            )

    def _run_reduce_phase(
        self,
        job: MapReduceJob,
        partitions: List[List[KeyValue]],
        n_red: int,
        phase_start: float,
        counters: Counters,
        plan: FaultPlan,
    ) -> tuple[List[TaskResult], List[OutputFile]]:
        """Run all reduce tasks; return task results and output files."""
        payloads = self.executor.run_reduce_phase(job, partitions, self.cost_model)
        schedules = self._place_phase(
            plan, job, "reduce", self.machines * self.reduce_slots,
            phase_start, payloads, counters,
        )
        results: List[TaskResult] = []
        all_files: List[OutputFile] = []

        for payload in payloads:
            task_id = payload.task_id
            counters.merge(payload.counters)
            counters.increment("engine", "reduce_groups", payload.num_groups)
            counters.increment("engine", "reduce_records", payload.num_records)
            results.append(
                self._replay_task(
                    job, "reduce", plan, payload, schedules[task_id],
                    counters, payload.written,
                )
            )
            win = schedules[task_id].winning
            stretch = plan.slot_slowdown(win.slot)
            for f in payload.files:
                # Rebase the task-local close time like the task's events.
                f.close_time = win.start + f.close_time * stretch
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


def _record_cost_skew(aux: Counters, phase: str, costs: Sequence[float]) -> None:
    """Per-phase virtual-cost skew, surfaced as ``balance.*`` metrics.

    Virtual task costs are backend-identical, so these aux values are
    deterministic; they ride the metrics snapshots (like the rest of the
    aux layer) because they are observational, not part of a job's logical
    output.  Milli-scaled to stay integers like every other counter.
    """
    if not costs:
        return
    mean = sum(costs) / len(costs)
    if mean <= 0:
        return
    peak = max(costs)
    aux.increment("balance", f"{phase}_cost_max_milli", int(round(peak * 1000)))
    aux.increment(
        "balance", f"{phase}_cost_max_over_mean_milli", int(round(peak / mean * 1000))
    )


__all__ = ["Cluster"]
