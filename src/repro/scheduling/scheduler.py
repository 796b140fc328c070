"""The multi-tenant job scheduler on the shared virtual timeline.

:class:`JobScheduler` lifts the one-job-at-a-time :class:`Cluster` into a
shared cluster serving many tenants.  Submissions — raw MapReduce jobs,
one-shot :class:`RunSpec` experiments, or :class:`ResolverService`
batches — pass admission control, queue, and then compete for map/reduce
capacity on one :class:`~repro.scheduling.pool.SharedSlotPool` timeline.

Dispatch model
--------------

Each job runs its existing driver unchanged on its own worker thread; the
driver blocks inside :meth:`Cluster._place_phase` at every phase boundary,
which surfaces a *phase request* ``(job, kind, ready_time)`` to the
scheduler's event loop.  The loop is strictly baton-passed: exactly one
thread (the loop or a single job thread) executes at any moment, so the
interleaving — and therefore every timestamp — is a pure function of the
submitted trace.  That is the headline determinism guarantee: a fixed
arrival trace yields bit-identical per-job outputs and virtual-time
latencies on every execution backend.

A pending request dispatches *lazily* at
``dispatch = max(ready_time, first_free(kind))`` — granting earlier could
not start work sooner, and granting later would idle a slot with runnable
work (work conservation).  Ties between runnable requests break by:

``policy="fair"``
    priority lane first (``interactive`` preempts ``batch`` at phase
    boundaries), then lowest tenant *virtual finish time* — classic
    weighted fair queueing where a tenant's clock advances by
    ``slot_seconds / weight`` whenever one of its phases is placed — then
    submission order.
``policy="fifo"``
    submission order only (the bench baseline).

Phases are the preemption points: a granted phase runs to completion
(task placement is atomic), so an interactive job waits at most one
in-flight phase per slot kind — never behind a *later* batch phase
start.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..mapreduce.clock import CostModel
from ..mapreduce.engine import Cluster, MapReduceJob
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


@dataclass
class _PhaseRequest:
    handle: "JobHandle"
    kind: str
    ready: float
    seq: int
    dispatch: Optional[float] = None


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
        body: Callable[["JobHandle"], Any],
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
        self._body = body
        self._go = threading.Event()
        self._request_seq = 0

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
            (``submit_job``); specs and services bring their own.
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
        self._service_tenant: Dict[int, str] = {}
        self._baton = threading.Event()
        self._ran = False

    # -- tenants -------------------------------------------------------

    def add_tenant(self, name: str, weight: float = 1.0) -> None:
        """Register a tenant with a fair-share ``weight`` (default 1)."""
        if weight <= 0:
            raise ValueError(f"tenant weight must be > 0, got {weight}")
        state = self._tenants.get(name)
        if state is None:
            self._tenants[name] = _TenantState(name, weight)
        else:
            state.weight = weight

    def _tenant(self, name: str) -> _TenantState:
        state = self._tenants.get(name)
        if state is None:
            state = _TenantState(name)
            self._tenants[name] = state
        return state

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
        """Submit one raw MapReduce job on a scheduler-built cluster."""
        records = list(records)
        estimate = (
            float(len(records)) if estimated_cost is None else float(estimated_cost)
        )

        def body(handle: JobHandle) -> Any:
            cluster = Cluster(
                self.machines,
                map_slots=self.map_slots,
                reduce_slots=self.reduce_slots,
                cost_model=self.cost_model,
                faults=faults,
                slot_broker=partial(self._place, handle, tenant),
            )
            return cluster.run_job(
                job,
                records,
                start_time=handle.floor,
                num_map_tasks=num_map_tasks,
                num_reduce_tasks=num_reduce_tasks,
            )

        return self._admit(
            label or job.name, tenant, lane, arrival, estimate, body
        )

    def submit_spec(
        self,
        spec: Any,
        *,
        tenant: str = "default",
        lane: str = "batch",
        arrival: float = 0.0,
        label: Optional[str] = None,
        estimated_cost: Optional[float] = None,
    ) -> JobHandle:
        """Submit one one-shot :class:`RunSpec` experiment run."""
        if estimated_cost is None:
            dataset = getattr(spec, "dataset", None)
            estimate = float(len(dataset)) if dataset is not None else 0.0
        else:
            estimate = float(estimated_cost)

        def body(handle: JobHandle) -> Any:
            # Imported lazily: evaluation pulls in the full driver stack,
            # and scheduling must stay importable on its own.
            from ..evaluation.experiment import ExperimentRun

            run = ExperimentRun(spec)
            run.cluster.slot_broker = partial(self._place, handle, tenant)
            return run.run()

        resolved = getattr(spec, "resolved_label", None)
        name = label or (resolved() if callable(resolved) else resolved) or "spec"
        return self._admit(name, tenant, lane, arrival, estimate, body)

    def adopt_service(self, service: Any, tenant: str = "service") -> None:
        """Attach a :class:`ResolverService` to this scheduler.

        Points the service's cluster at this scheduler's pool with no
        job handle, so direct ``service.submit()`` calls place each phase
        on the shared timeline at once, and records the service's
        accounting tenant.  Called automatically when a service is
        constructed with ``scheduler=``.
        """
        self._service_tenant[id(service)] = tenant
        self._tenant(tenant)
        service.session.cluster.slot_broker = partial(self._place, None, tenant)

    def submit_batch(
        self,
        service: Any,
        entities: Iterable[Any],
        *,
        tenant: Optional[str] = None,
        lane: str = "interactive",
        arrival: float = 0.0,
        label: Optional[str] = None,
        estimated_cost: Optional[float] = None,
    ) -> JobHandle:
        """Submit one :class:`ResolverService` batch.

        Batches of the same service are causally chained: batch *N+1*
        starts only after batch *N*'s virtual completion, because the
        service's clock (and cluster state) advances batch by batch.
        """
        entities = list(entities)
        if tenant is None:
            tenant = self._service_tenant.get(id(service), "service")
        estimate = (
            float(len(entities)) if estimated_cost is None else float(estimated_cost)
        )

        def body(handle: JobHandle) -> Any:
            cluster = service.session.cluster
            cluster.slot_broker = partial(self._place, handle, tenant)
            try:
                return service.submit(entities)
            finally:
                # Back to placing at once, so direct ``service.submit()``
                # calls after the trace still work.
                cluster.slot_broker = partial(self._place, None, tenant)

        handle = self._admit(
            label or f"batch-{len(self._handles)}",
            tenant, lane, arrival, estimate, body,
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
        body: Callable[[JobHandle], Any],
    ) -> JobHandle:
        if self._ran:
            raise RuntimeError(
                "scheduler already ran; build a new JobScheduler per trace"
            )
        if lane not in _LANE_RANK:
            raise ValueError(f"unknown lane {lane!r}; use one of {LANES}")
        if arrival < 0:
            raise ValueError(f"arrival must be >= 0, got {arrival}")
        state = self._tenant(tenant)
        admitted_active = sum(
            1
            for h in self._handles
            if h.receipt.admitted and h.state in ("pending", "running")
        )
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
                and (h.depends_on is None or h.depends_on.state == "finished")
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
                    self._start_job(starter, start_t)
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
                    request.seq,
                )
            else:
                key = (dispatch, request.handle.seq, request.seq)
            scored.append((key, dispatch, request))
        scored.sort(key=lambda item: item[0])
        _, dispatch, request = scored[0]
        return request, dispatch

    def _start_job(self, handle: JobHandle, start_t: float) -> None:
        self._not_started.remove(handle)
        handle.state = "running"
        handle.floor = max(handle.floor, start_t)
        threading.Thread(
            target=self._thread_main, args=(handle,), daemon=True,
            name=f"sched-{handle.name}",
        ).start()
        self._await_yield(handle)

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
        request.dispatch = dispatch
        if handle.started_at is None:
            handle.started_at = dispatch
        handle.grants += 1
        handle.wait_total += dispatch - request.ready
        self._await_yield(handle)

    def _finish_job(self, handle: JobHandle) -> None:
        if handle.finished_at is not None:
            return
        handle.finished_at = handle.floor
        self._tenants[handle.tenant].completed += 1
        if self._admission_fifo:
            released = self._admission_fifo.pop(0)
            released.release = max(released.arrival, handle.finished_at)

    def _await_yield(self, handle: JobHandle) -> None:
        """Let ``handle``'s thread run until it blocks or finishes."""
        handle._go.set()
        self._baton.wait()
        self._baton.clear()
        if handle.state in ("finished", "failed"):
            self._finish_job(handle)

    def _thread_main(self, handle: JobHandle) -> None:
        handle._go.wait()
        handle._go.clear()
        try:
            handle.result = handle._body(handle)
            handle.state = "finished"
        except BaseException as exc:  # noqa: BLE001 - reported by run()
            handle.error = exc
            handle.state = "failed"
        finally:
            self._baton.set()

    # -- the engine-facing placement call ------------------------------

    def _place(
        self,
        handle: Optional[JobHandle],
        tenant: str,
        kind: str,
        job: str,
        ready: float,
        place: Callable[[List[float], float], tuple],
    ) -> tuple:
        """Place one phase on the shared pool: a ``Cluster.slot_broker``.

        Bound to a job's ``handle`` and ``tenant`` with
        :func:`functools.partial`; the engine supplies the rest (``job``
        names the engine job, ``place`` runs its ``FaultScheduler``).
        With a handle — on that job's thread, inside :meth:`run` — the
        phase becomes a request to the event loop and this blocks until
        the loop grants it; with ``handle=None`` (a direct
        ``service.submit()`` on an adopted service) it is placed at
        ``ready`` at once.  Either way the placement is committed and
        charged to the tenant before this returns, on the calling thread,
        so an accounting error ends as that job's error.
        """
        start = ready
        if handle is not None:
            request = _PhaseRequest(
                handle, kind, max(ready, handle.floor), handle._request_seq
            )
            handle._request_seq += 1
            self._pending.append(request)
            self._baton.set()
            handle._go.wait()
            handle._go.clear()
            start = request.dispatch
        scheduler, schedules, busy, end = self.pool.place(kind, start, place)
        usage = self._tenant(tenant)
        usage.vtime += busy / usage.weight
        usage.slot_seconds += busy
        if handle is not None:
            handle.slot_seconds += busy
            handle.floor = max(handle.floor, end)
            if self.tracer is not None:
                self.tracer.record_span(
                    f"{handle.name}/{kind}",
                    "sched-lease",
                    start,
                    end,
                    job=handle.name,
                    track=1 if kind == "map" else 2,
                    tenant=handle.tenant,
                    lane=handle.lane,
                    wait=round(start - request.ready, 9),
                )
        return scheduler, schedules

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
