"""A shared-capacity slot pool with per-job phase leases.

The single-job engine starts every phase from idle slots — correct when
one job owns the whole cluster, meaningless when many jobs share it.
:class:`SharedSlotPool` keeps **one** virtual-time availability record per
map lane and per reduce lane for the lifetime of a
:class:`~repro.scheduling.scheduler.JobScheduler`; each phase of each job
checks slots out through a :class:`SlotLease` and returns them at their
post-phase free times, so the next job's tasks back-fill exactly the
capacity the previous phase left idle.

A lease places nothing itself: the engine seeds a
:class:`~repro.mapreduce.faults.FaultScheduler` with the lanes' current
free times, floored at the lease's *grant time* (the scheduler's dispatch
decision) so work can only run after the scheduler admitted it to the
timeline, and the lease absorbs the simulated outcome.  Per-job fault
plans therefore scope cleanly to their own job on the shared timeline.

Everything is driver-side virtual time: lane states never depend on the
execution backend, which is what makes a fixed arrival trace reproduce
bit-identical schedules on serial and process backends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

#: The two slot kinds of the paper's static-slot Hadoop model.
SLOT_KINDS = ("map", "reduce")


class SlotLease:
    """One phase's checkout of every lane of one slot kind.

    Created by :meth:`SharedSlotPool.lease` at the scheduler's dispatch
    time (``floor``); the engine hands :attr:`lane_free_times` to a
    :class:`~repro.mapreduce.faults.FaultScheduler` and commits the
    result via :meth:`commit_fault`, which updates the pool's lanes at
    once — an abandoned lease can therefore never strand capacity —
    while :meth:`close` only finalizes the accounting (phase end,
    busy slot-seconds) the scheduler charges to the owning tenant.
    """

    def __init__(
        self,
        pool: "SharedSlotPool",
        *,
        kind: str,
        job: str,
        phase: str,
        tenant: str,
        floor: float,
    ) -> None:
        self.pool = pool
        self.kind = kind
        self.job = job
        self.phase = phase
        self.tenant = tenant
        self.floor = floor
        self._initial_free = list(pool.lanes(kind))
        self._busy = 0.0
        self._end = floor
        self._closed = False
        pool._open_leases += 1

    @property
    def lane_free_times(self) -> List[float]:
        """Current free time of every lane (feeds ``FaultScheduler``)."""
        return list(self.pool.lanes(self.kind))

    def commit_fault(self, final_free_times: Sequence[float], schedules) -> None:
        """Absorb a :class:`FaultScheduler` simulation into the lanes.

        ``schedules`` is the simulator's per-task attempt list; every
        attempt (winning, failed, killed) occupied a lane for its span and
        is charged to the lease's busy time.
        """
        lanes = self.pool.lanes(self.kind)
        for index, free in enumerate(final_free_times):
            lanes[index] = max(lanes[index], free)
        for sched in schedules:
            for attempt in sched.attempts:
                self._busy += attempt.end - attempt.start
                if attempt.end > self._end:
                    self._end = attempt.end
        return None

    # -- accounting ----------------------------------------------------

    @property
    def phase_end(self) -> float:
        return self._end

    @property
    def slot_seconds(self) -> float:
        """Total lane-busy virtual time this phase consumed."""
        return self._busy

    def close(self) -> None:
        """Finalize accounting (idempotent; lanes were updated eagerly)."""
        if self._closed:
            return
        self._closed = True
        self.pool._open_leases -= 1
        self.pool._busy[self.kind] += self._busy

    @property
    def closed(self) -> bool:
        return self._closed


class SharedSlotPool:
    """Shared map/reduce lane capacity on one virtual timeline.

    Args:
        map_lanes: concurrent map tasks the shared cluster can run.
        reduce_lanes: concurrent reduce tasks it can run.
        ready_time: virtual time every lane starts free at (default 0).
    """

    def __init__(
        self, map_lanes: int, reduce_lanes: int, *, ready_time: float = 0.0
    ) -> None:
        if map_lanes <= 0 or reduce_lanes <= 0:
            raise ValueError(
                f"need at least one lane of each kind, got "
                f"map={map_lanes} reduce={reduce_lanes}"
            )
        self._lanes: Dict[str, List[float]] = {
            "map": [ready_time] * map_lanes,
            "reduce": [ready_time] * reduce_lanes,
        }
        self._busy: Dict[str, float] = {"map": 0.0, "reduce": 0.0}
        self._open_leases = 0

    # -- introspection -------------------------------------------------

    def lanes(self, kind: str) -> List[float]:
        """The mutable free-time list of ``kind`` lanes."""
        try:
            return self._lanes[kind]
        except KeyError:
            raise ValueError(
                f"unknown slot kind {kind!r}; expected one of {SLOT_KINDS}"
            ) from None

    def num_lanes(self, kind: str) -> int:
        return len(self.lanes(kind))

    def first_free(self, kind: str) -> float:
        """Earliest time any lane of ``kind`` is (or becomes) free."""
        return min(self.lanes(kind))

    @property
    def makespan(self) -> float:
        """Latest committed free time across every lane of both kinds."""
        return max(max(lanes) for lanes in self._lanes.values())

    @property
    def open_leases(self) -> int:
        """Leases granted but not yet closed (0 whenever the scheduler
        is quiescent — the no-leaked-slots invariant)."""
        return self._open_leases

    def busy_seconds(self, kind: str) -> float:
        """Cumulative lane-busy virtual time charged by closed leases."""
        return self._busy[kind]

    def utilization(self, kind: str, horizon: Optional[float] = None) -> float:
        """Busy fraction of ``kind`` capacity over ``[0, horizon]``."""
        horizon = self.makespan if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        return self._busy[kind] / (horizon * self.num_lanes(kind))

    # -- leasing -------------------------------------------------------

    def lease(
        self,
        kind: str,
        *,
        job: str,
        phase: str,
        tenant: str,
        floor: float,
    ) -> SlotLease:
        """Check every ``kind`` lane out to one phase of one job."""
        self.lanes(kind)  # validate kind before constructing
        return SlotLease(
            self, kind=kind, job=job, phase=phase, tenant=tenant, floor=floor
        )


__all__ = ["SLOT_KINDS", "SharedSlotPool", "SlotLease"]
