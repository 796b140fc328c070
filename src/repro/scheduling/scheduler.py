"""The multi-tenant job scheduler on the shared virtual timeline.

:class:`JobScheduler` lifts the one-job-at-a-time :class:`Cluster` into a
shared cluster serving many tenants.  Submissions — raw MapReduce jobs or
:class:`ResolverService` batches — pass admission control, queue, and
then compete for map/reduce capacity on one
:class:`~repro.scheduling.pool.SharedSlotPool` timeline.

Dispatch model
--------------

Every job is a generator, :meth:`Cluster.job_steps`: it computes a
phase's task payloads, yields the phase's request ``(kind, job, ready,
place)`` and waits for its placement.  One single-threaded event loop
steps those generators.  Starting a job runs it to its first request;
granting a request places the phase on the shared pool, charges the
tenant and sends the placement back, which runs the job to its next
request or to its end.  An error while a phase is placed or charged is
thrown into that job's generator, so it ends that job and no other.
Nothing runs concurrently, so every timestamp is a pure function of the
submitted trace, on every execution backend.

A request dispatches *lazily* at ``max(ready, first_free(kind))`` (work
conservation).  Among the earliest, ``policy="fair"`` prefers the
``interactive`` lane, then the tenant with the least weight-normalized
service, then submission order; ``policy="fifo"`` uses submission order
only.  Phases are the preemption points.  ``docs/scheduling.md`` has the
fair-share math and the admission rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence

from ..mapreduce.clock import CostModel
from ..mapreduce.engine import Cluster, MapReduceJob, PhaseRequest
from ..mapreduce.faults import FaultPlan
from .admission import AdmissionPolicy, AdmissionReceipt
from .pool import SharedSlotPool
from .report import JobOutcome, SchedulerReport, TenantUsage

#: Priority lanes, in dispatch-preference order.
LANES = ("interactive", "batch")
_LANE_RANK = {lane: rank for rank, lane in enumerate(LANES)}

#: Default shared-cluster shape (mirrors the paper's Section VI-A1
#: cluster used by the service layer: 2 map + 2 reduce slots/machine).
DEFAULT_MACHINES = 4
DEFAULT_MAP_SLOTS = 2
DEFAULT_REDUCE_SLOTS = 2


@dataclass
class _TenantState:
    name: str
    weight: float = 1.0
    vtime: float = 0.0
    slot_seconds: float = 0.0
    estimated_spent: float = 0.0
    submitted: int = 0
    completed: int = 0
    rejected: int = 0

    @property
    def pending(self) -> int:
        return self.submitted - self.completed - self.rejected


#: A submission's work: a generator of phase requests that returns the
#: job's result (see :meth:`Cluster.job_steps`).
JobSteps = Generator[PhaseRequest, Any, Any]


@dataclass
class _PhaseRequest:
    handle: "JobHandle"
    kind: str
    ready: float
    place: Callable[..., Any]


class JobHandle:
    """The ticket returned by every ``submit_*`` call.

    Carries the :class:`AdmissionReceipt`, and after
    :meth:`JobScheduler.run` the job's result object, virtual start /
    finish times and accounting.  Handles are inert data to callers; the
    scheduler drives them.
    """

    def __init__(
        self,
        seq: int,
        name: str,
        tenant: str,
        lane: str,
        arrival: float,
        estimated_cost: float,
        receipt: AdmissionReceipt,
        body: Callable[["JobHandle"], JobSteps],
    ) -> None:
        self.seq = seq
        self.name = name
        self.tenant = tenant
        self.lane = lane
        self.arrival = arrival
        self.estimated_cost = estimated_cost
        self.receipt = receipt
        self.state = "rejected" if receipt.rejected else "pending"
        #: Earliest virtual start (raised by admission queueing).
        self.release: Optional[float] = arrival if receipt.admitted else None
        #: Latest phase end so far — the causality floor for the next
        #: phase request (a job cannot place work before it arrived).
        self.floor = arrival
        self.depends_on: Optional["JobHandle"] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.grants = 0
        self.wait_total = 0.0
        self.slot_seconds = 0.0
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: The job itself; nothing in it runs before the job starts.
        self._steps = body(self)

    @property
    def latency(self) -> Optional[float]:
        """Arrival-to-virtual-completion time (None until finished)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrival

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle({self.name!r}, tenant={self.tenant!r}, "
            f"lane={self.lane!r}, state={self.state!r})"
        )


class JobScheduler:
    """Weighted fair-share scheduler over one shared slot pool.

    Args:
        machines: shared cluster size; capacity is
            ``machines * map_slots`` map lanes and
            ``machines * reduce_slots`` reduce lanes.
        policy: ``"fair"`` (priority lanes + weighted fair queueing) or
            ``"fifo"`` (submission order; the bench baseline).
        admission: optional :class:`AdmissionPolicy`; the default admits
            everything immediately.
        cost_model: cost model for clusters the scheduler builds itself
            (``submit_job``); services bring their own.
        tracer: optional tracer receiving submit/reject instants and one
            ``sched-lease`` span per granted phase (track 1 = map lane,
            track 2 = reduce lane).
        metrics: optional registry receiving a ``sched`` snapshot plus
            one ``sched.tenant.<name>`` snapshot per tenant at
            :meth:`report` time.
    """

    def __init__(
        self,
        *,
        machines: int = DEFAULT_MACHINES,
        map_slots: int = DEFAULT_MAP_SLOTS,
        reduce_slots: int = DEFAULT_REDUCE_SLOTS,
        policy: str = "fair",
        admission: Optional[AdmissionPolicy] = None,
        cost_model: Optional[CostModel] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        if policy not in ("fair", "fifo"):
            raise ValueError(f"unknown policy {policy!r}; use 'fair' or 'fifo'")
        self.machines = machines
        self.map_slots = map_slots
        self.reduce_slots = reduce_slots
        self.policy = policy
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.cost_model = cost_model
        self.tracer = tracer
        self.metrics = metrics
        self.pool = SharedSlotPool(
            machines * map_slots, machines * reduce_slots
        )
        self.decisions: List[Dict[str, Any]] = []
        self._tenants: Dict[str, _TenantState] = {}
        self._handles: List[JobHandle] = []
        self._not_started: List[JobHandle] = []
        self._admission_fifo: List[JobHandle] = []
        self._pending: List[_PhaseRequest] = []
        self._service_tail: Dict[int, JobHandle] = {}
        self._ran = False

    # -- tenants -------------------------------------------------------

    def add_tenant(self, name: str, weight: float = 1.0) -> None:
        """Register a tenant with a fair-share ``weight`` (default 1)."""
        if not (math.isfinite(weight) and weight > 0):
            raise ValueError(f"tenant weight must be a finite number > 0, got {weight}")
        state = self._tenants.get(name)
        if state is None:
            self._tenants[name] = _TenantState(name, weight)
        else:
            state.weight = weight

    # -- submission ----------------------------------------------------

    def submit_job(
        self,
        job: MapReduceJob,
        records: Sequence[Any],
        *,
        tenant: str = "default",
        lane: str = "batch",
        arrival: float = 0.0,
        label: Optional[str] = None,
        estimated_cost: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        num_map_tasks: Optional[int] = None,
        num_reduce_tasks: Optional[int] = None,
    ) -> JobHandle:
        """Submit one raw MapReduce job on a scheduler-built cluster; its
        result is the job's ``JobResult``."""
        records = list(records)

        def body(handle: JobHandle) -> JobSteps:
            cluster = Cluster(
                self.machines,
                map_slots=self.map_slots,
                reduce_slots=self.reduce_slots,
                cost_model=self.cost_model,
                faults=faults,
            )
            return (yield from cluster.job_steps(
                job,
                records,
                start_time=handle.floor,
                num_map_tasks=num_map_tasks,
                num_reduce_tasks=num_reduce_tasks,
            ))

        return self._admit(
            label or job.name, tenant, lane, arrival,
            len(records) if estimated_cost is None else estimated_cost, body,
        )

    def submit_batch(
        self,
        service: Any,
        entities: Iterable[Any],
        *,
        tenant: str = "service",
        lane: str = "interactive",
        arrival: float = 0.0,
        label: Optional[str] = None,
        estimated_cost: Optional[float] = None,
    ) -> JobHandle:
        """Submit one :class:`ResolverService` batch; its result is the
        batch's :class:`~repro.service.resolver.BatchReceipt`.

        Batches of one service run in submission order, each after the
        previous one ended.  A batch is prepared when it starts and
        committed when its delta job ends, as :meth:`ResolverService.submit`
        does, so one that fails leaves its service as it was.
        """
        entities = list(entities)

        def body(handle: JobHandle) -> JobSteps:
            prepared = service.prepare(entities)
            result = None
            if prepared.job is not None:
                result = yield from service.session.cluster.job_steps(
                    prepared.job, prepared.records, start_time=prepared.start_time
                )
            return service.commit(prepared, result)

        handle = self._admit(
            label or f"batch-{len(self._handles)}", tenant, lane, arrival,
            len(entities) if estimated_cost is None else estimated_cost, body,
        )
        if not handle.receipt.rejected:
            tail = self._service_tail.get(id(service))
            if tail is not None:
                handle.depends_on = tail
            self._service_tail[id(service)] = handle
        return handle

    def _admit(
        self,
        name: str,
        tenant: str,
        lane: str,
        arrival: float,
        estimate: float,
        body: Callable[[JobHandle], JobSteps],
    ) -> JobHandle:
        if self._ran:
            raise RuntimeError(
                "scheduler already ran; build a new JobScheduler per trace"
            )
        if lane not in _LANE_RANK:
            raise ValueError(f"unknown lane {lane!r}; use one of {LANES}")
        if not (math.isfinite(arrival) and arrival >= 0):
            raise ValueError(f"arrival must be a finite number >= 0, got {arrival}")
        estimate = float(estimate)
        if not (math.isfinite(estimate) and estimate >= 0):
            raise ValueError(
                f"estimated_cost must be a finite number >= 0, got {estimate}"
            )
        state = self._tenants.setdefault(tenant, _TenantState(tenant))
        # Nothing runs before run(), so every admitted job is active.
        admitted_active = sum(h.receipt.admitted for h in self._handles)
        receipt = self.admission.decide(
            job=name,
            tenant=tenant,
            estimated_cost=estimate,
            tenant_pending=state.pending,
            tenant_spent=state.estimated_spent,
            active_jobs=admitted_active,
        )
        seq = len(self._handles)
        handle = JobHandle(seq, name, tenant, lane, arrival, estimate, receipt, body)
        self._handles.append(handle)
        state.submitted += 1
        if receipt.rejected:
            state.rejected += 1
            self._trace_instant(f"reject:{name}", "sched-reject", arrival,
                                job=name, tenant=tenant, reason=receipt.reason)
            return handle
        state.estimated_spent += estimate
        self._not_started.append(handle)
        if receipt.decision == "queued":
            self._admission_fifo.append(handle)
        self._trace_instant(f"submit:{name}", "sched-submit", arrival,
                            job=name, tenant=tenant, lane=lane)
        return handle

    # -- the event loop ------------------------------------------------

    def run(self) -> SchedulerReport:
        """Run every submitted job to completion; return the report.

        Single-shot: one scheduler instance serves one arrival trace.
        """
        if self._ran:
            raise RuntimeError("scheduler already ran")
        self._ran = True
        self._event_loop()
        errors = [h for h in self._handles if h.error is not None]
        if errors:
            first = errors[0]
            raise RuntimeError(
                f"job {first.name!r} (tenant {first.tenant!r}) failed"
            ) from first.error
        return self.report()

    def _event_loop(self) -> None:
        while True:
            startable = [
                h
                for h in self._not_started
                if h.release is not None
                and (h.depends_on is None or h.depends_on.finished_at is not None)
            ]
            if not startable and not self._pending:
                if self._not_started:
                    stuck = ", ".join(h.name for h in self._not_started)
                    raise RuntimeError(
                        f"scheduler stalled with unrunnable jobs: {stuck}"
                    )
                return
            best = self._best_request()
            if startable:
                starter = min(
                    startable, key=lambda h: (max(h.arrival, h.release), h.seq)
                )
                start_t = max(starter.arrival, starter.release)
                # Starting a job only spends virtual time >= start_t, so
                # it must happen before any strictly later grant — and
                # before an equal-time grant, because the new job may
                # inject a request that ties (and then wins on policy).
                if best is None or start_t <= best[1]:
                    self._not_started.remove(starter)
                    starter.state = "running"
                    starter.floor = max(starter.floor, start_t)
                    self._resume(starter)
                    continue
            assert best is not None
            self._grant(*best)

    def _best_request(self) -> Optional[tuple]:
        if not self._pending:
            return None
        scored = []
        for request in self._pending:
            dispatch = max(request.ready, self.pool.first_free(request.kind))
            tenant = self._tenants[request.handle.tenant]
            if self.policy == "fair":
                key = (
                    dispatch,
                    _LANE_RANK[request.handle.lane],
                    tenant.vtime,
                    request.handle.seq,
                )
            else:
                key = (dispatch, request.handle.seq)
            scored.append((key, dispatch, request))
        scored.sort(key=lambda item: item[0])
        _, dispatch, request = scored[0]
        return request, dispatch

    def _grant(self, request: _PhaseRequest, dispatch: float) -> None:
        handle = request.handle
        self.decisions.append(
            {
                "seq": len(self.decisions),
                "job": handle.name,
                "tenant": handle.tenant,
                "lane": handle.lane,
                "kind": request.kind,
                "ready": request.ready,
                "first_free": self.pool.first_free(request.kind),
                "dispatch": dispatch,
                "policy": self.policy,
                "candidates": [
                    {
                        "job": r.handle.name,
                        "tenant": r.handle.tenant,
                        "lane": r.handle.lane,
                        "kind": r.kind,
                        "ready": r.ready,
                        "dispatch": max(r.ready, self.pool.first_free(r.kind)),
                        "vtime": self._tenants[r.handle.tenant].vtime,
                    }
                    for r in self._pending
                ],
            }
        )
        self._pending.remove(request)
        if handle.started_at is None:
            handle.started_at = dispatch
        handle.grants += 1
        handle.wait_total += dispatch - request.ready
        try:
            scheduler, schedules, busy, end = self.pool.place(
                request.kind, dispatch, request.place
            )
            tenant = self._tenants[handle.tenant]
            tenant.vtime += busy / tenant.weight
            tenant.slot_seconds += busy
            handle.slot_seconds += busy
            handle.floor = max(handle.floor, end)
            if self.tracer is not None:
                self.tracer.record_span(
                    f"{handle.name}/{request.kind}",
                    "sched-lease",
                    dispatch,
                    end,
                    job=handle.name,
                    track=1 if request.kind == "map" else 2,
                    tenant=handle.tenant,
                    lane=handle.lane,
                    wait=round(dispatch - request.ready, 9),
                )
        except Exception as exc:  # noqa: BLE001 - this job's error
            self._resume(handle, error=exc)
        else:
            self._resume(handle, (scheduler, schedules))

    def _resume(
        self,
        handle: JobHandle,
        placed: Any = None,
        *,
        error: Optional[Exception] = None,
    ) -> None:
        """Run ``handle``'s job to its next phase request or to its end.

        Sends ``placed`` (or throws ``error``) into the job's generator.
        A yielded request joins the pending set.  A return or a raise ends
        the job — the raise as the job's error, for :meth:`run` to report —
        and releases the next job the admission policy queued.
        """
        try:
            if error is None:
                kind, _, ready, place = handle._steps.send(placed)
            else:
                kind, _, ready, place = handle._steps.throw(error)
        except StopIteration as done:
            handle.result = done.value
            handle.state = "finished"
        except Exception as exc:  # noqa: BLE001 - reported by run()
            handle.error = exc
            handle.state = "failed"
        else:
            self._pending.append(
                _PhaseRequest(handle, kind, max(ready, handle.floor), place)
            )
            return
        handle.finished_at = handle.floor
        self._tenants[handle.tenant].completed += 1
        if self._admission_fifo:
            released = self._admission_fifo.pop(0)
            released.release = max(released.arrival, handle.finished_at)

    # -- reporting -----------------------------------------------------

    def report(self) -> SchedulerReport:
        """Summarize the trace: outcomes, tenant usage, decision log."""
        outcomes = [
            JobOutcome(
                job=h.name,
                tenant=h.tenant,
                lane=h.lane,
                decision=h.receipt.decision,
                reason=h.receipt.reason,
                arrival=h.arrival,
                started_at=h.started_at,
                finished_at=h.finished_at,
                wait_total=h.wait_total,
                latency=h.latency,
                slot_seconds=h.slot_seconds,
                grants=h.grants,
                error=None if h.error is None else repr(h.error),
            )
            for h in self._handles
        ]
        tenants = [
            TenantUsage(
                name=t.name,
                weight=t.weight,
                vtime=t.vtime,
                slot_seconds=t.slot_seconds,
                submitted=t.submitted,
                completed=t.completed,
                rejected=t.rejected,
            )
            for t in sorted(self._tenants.values(), key=lambda t: t.name)
        ]
        report = SchedulerReport(
            policy=self.policy,
            outcomes=outcomes,
            tenants=tenants,
            decisions=list(self.decisions),
            makespan=self.pool.makespan,
            busy={kind: self.pool.busy_seconds(kind) for kind in ("map", "reduce")},
        )
        self._snapshot_metrics(report)
        return report

    def _snapshot_metrics(self, report: SchedulerReport) -> None:
        if self.metrics is None:
            return
        finished = [o for o in report.outcomes if o.latency is not None]
        counters: Dict[str, float] = {
            "sched.submitted": len(report.outcomes),
            "sched.rejected": sum(1 for o in report.outcomes if o.decision == "rejected"),
            "sched.queued": sum(1 for o in report.outcomes if o.decision == "queued"),
            "sched.completed": len(finished),
            "sched.grants": sum(o.grants for o in report.outcomes),
            "sched.wait_time_total": round(
                sum(o.wait_total for o in report.outcomes), 9
            ),
            "sched.queue_depth_peak": report.queue_depth_peak,
        }
        extra: Dict[str, Any] = {"policy": self.policy, "makespan": report.makespan}
        for lane in LANES:
            pct = report.latency_percentiles(lane=lane)
            if pct is not None:
                extra[f"{lane}_p50"] = pct["p50"]
                extra[f"{lane}_p99"] = pct["p99"]
        self.metrics.snapshot("sched", counters, **extra)
        for tenant in report.tenants:
            self.metrics.snapshot(
                f"sched.tenant.{tenant.name}",
                {
                    "sched.slot_seconds": round(tenant.slot_seconds, 9),
                    "sched.submitted": tenant.submitted,
                    "sched.completed": tenant.completed,
                    "sched.rejected": tenant.rejected,
                },
                weight=tenant.weight,
            )

    def _trace_instant(
        self, name: str, category: str, time: float, *, job: str, **args: Any
    ) -> None:
        if self.tracer is not None:
            self.tracer.record_instant(name, category, time, job=job, **args)


__all__ = [
    "DEFAULT_MACHINES",
    "DEFAULT_MAP_SLOTS",
    "DEFAULT_REDUCE_SLOTS",
    "LANES",
    "JobHandle",
    "JobScheduler",
]
