"""A shared-capacity slot pool on one virtual timeline.

The single-job engine starts every phase from idle slots — correct when
one job owns the whole cluster, meaningless when many jobs share it.
:class:`SharedSlotPool` keeps **one** virtual-time availability record per
map lane and per reduce lane for the lifetime of a
:class:`~repro.scheduling.scheduler.JobScheduler`; :meth:`SharedSlotPool.place`
places one phase of one job on a copy of the lanes and commits its
post-phase free times, so the next job's tasks back-fill exactly the
capacity the previous phase left idle.

The pool places nothing itself: the engine's closure seeds a
:class:`~repro.mapreduce.faults.FaultScheduler` with the lanes' current
free times, floored at the phase's start (the scheduler's dispatch
decision) so work can only run after the scheduler admitted it to the
timeline, and the pool absorbs the simulated outcome in the same call.
Per-job fault plans therefore scope cleanly to their own job on the
shared timeline.

Everything is driver-side virtual time: lane states never depend on the
execution backend, which is what makes a fixed arrival trace reproduce
bit-identical schedules on serial and process backends.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

#: The two slot kinds of the paper's static-slot Hadoop model.
SLOT_KINDS = ("map", "reduce")


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

    # -- introspection -------------------------------------------------

    def lanes(self, kind: str) -> List[float]:
        """The mutable free-time list of ``kind`` lanes."""
        try:
            return self._lanes[kind]
        except KeyError:
            raise ValueError(
                f"unknown slot kind {kind!r}; expected one of {SLOT_KINDS}"
            ) from None

    def first_free(self, kind: str) -> float:
        """Earliest time any lane of ``kind`` is (or becomes) free."""
        return min(self.lanes(kind))

    @property
    def makespan(self) -> float:
        """Latest committed free time across every lane of both kinds."""
        return max(max(lanes) for lanes in self._lanes.values())

    def busy_seconds(self, kind: str) -> float:
        """Cumulative lane-busy virtual time of every placed phase."""
        return self._busy[kind]

    # -- placement -----------------------------------------------------

    def place(
        self,
        kind: str,
        start: float,
        place: Callable[[List[float], float], Tuple[Any, Any]],
    ) -> Tuple[Any, Any, float, float]:
        """Place one phase on every ``kind`` lane and commit it.

        ``place(lane_free_times, start)`` runs the phase's
        :class:`~repro.mapreduce.faults.FaultScheduler` on a copy of the
        lanes and returns ``(fault_scheduler, schedules)``.  Its final
        free times are committed to the lanes before this returns, and
        every attempt (winning, failed, killed) is charged for its span.

        Returns ``(fault_scheduler, schedules, busy, end)``: the closure's
        result, the phase's busy slot-seconds and its end (``start`` when
        it placed no attempt).
        """
        lanes = self.lanes(kind)
        scheduler, schedules = place(list(lanes), start)
        for index, free in enumerate(scheduler.final_free_times):
            lanes[index] = max(lanes[index], free)
        attempts = [attempt for sched in schedules for attempt in sched.attempts]
        busy = sum(attempt.end - attempt.start for attempt in attempts)
        end = max([start] + [attempt.end for attempt in attempts])
        self._busy[kind] += busy
        return scheduler, schedules, busy, end


__all__ = ["SLOT_KINDS", "SharedSlotPool"]
