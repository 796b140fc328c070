"""Seeded fault injection and retries.

The paper runs on Hadoop and relies on its fault handling: a task attempt
that dies is retried until it succeeds or exhausts its budget.  This
module is the engine's placement path and that fault model:

* :class:`FaultPlan` — a **seeded, deterministic** description of what goes
  wrong: per-attempt crash decisions (an attempt crashes at a fraction of
  its cost, so the partial work is lost);
* :class:`RetryPolicy` — how the framework reacts: a maximum attempt count,
  exponential backoff in *virtual* time, and :class:`JobAbortedError` when
  a task exhausts its attempts.

A task has at most one live attempt: the next one is placed only after
the previous one crashed.

Determinism contract
--------------------
Every fault decision is a pure function of the plan's seed and a stable
identifier — ``(job name, phase, task id, attempt ordinal)`` — hashed
through :func:`~repro.mapreduce.job.stable_hash`.  Nothing depends on
wall-clock time, iteration order, or the execution backend: the
:class:`FaultScheduler` runs in the driver process on the per-task costs
the backend computed, so serial and process backends stay **bit-for-bit
identical** under any plan (pinned by ``tests/test_property_faults.py``).

Keying the crash decision by the number of *prior failures* of the task
(not by a global draw sequence) makes the failure set monotone in
``fault_rate``: raising the rate can only turn more attempts into
failures, never fewer — which is what makes "makespan is monotone
non-decreasing in the fault rate" a testable property.

The scheduler is a small discrete-event simulation over virtual time.
Because the simulator is omniscient (an attempt's duration is known the
moment it is placed), "events" reduce to attempt completions; slots commit
to attempts eagerly, exactly like Hadoop's wave scheduling.  With an
all-zero plan the simulation degenerates to plain earliest-free-slot
placement in task-id order (ties by slot index) — which is how the engine
places every fault-free phase (pinned against a scan reference in
``tests/test_property_faults.py``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .job import stable_hash

#: Crash points are drawn uniformly from this fraction range of the
#: attempt's cost — an attempt never dies instantly at 0 nor "almost
#: finishes" at 1, keeping partial-cost loss visible in timelines.
MIN_CRASH_FRACTION = 0.05
MAX_CRASH_FRACTION = 0.95

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _avalanche(x: int) -> int:
    """splitmix64 finalizer: full-width bit diffusion over a 64-bit hash.

    :func:`~repro.mapreduce.job.stable_hash` is FNV-1a, whose final bytes
    barely reach the high bits — keys differing only in a trailing attempt
    ordinal would yield nearly identical uniforms (so a task that failed
    once would fail every retry).  One avalanche round makes the draws
    behave independently per key.
    """
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class JobAbortedError(RuntimeError):
    """A task exhausted its retry budget; the framework kills the job."""

    def __init__(self, phase: str, task_id: int, attempts: int) -> None:
        super().__init__(
            f"{phase} task {task_id} failed {attempts} attempts "
            f"(retry budget exhausted); job aborted"
        )
        self.phase = phase
        self.task_id = task_id
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """How the framework reacts to a failed attempt.

    Attributes:
        max_attempts: total attempts a task may consume, like Hadoop's
            ``mapred.map.max.attempts``.  Exhaustion raises
            :class:`JobAbortedError`.
        backoff_base: virtual-time delay before the first retry; ``0``
            retries immediately.
        backoff_factor: multiplier applied per additional failure
            (exponential backoff: ``base * factor ** (failures - 1)``).
    """

    max_attempts: int = 4
    backoff_base: float = 0.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.backoff_base < math.inf:
            raise ValueError(
                f"backoff_base must be finite and >= 0, got {self.backoff_base}"
            )
        if not 1.0 <= self.backoff_factor < math.inf:
            raise ValueError(
                f"backoff_factor must be finite and >= 1, got {self.backoff_factor}"
            )

    def backoff(self, failures: int) -> float:
        """Virtual-time delay before the retry following failure number
        ``failures`` (1-based)."""
        if self.backoff_base <= 0 or failures < 1:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (failures - 1)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of which attempts crash.

    Attributes:
        seed: root of every hash-derived decision below.
        fault_rate: probability that any given task attempt crashes.
        retry: the framework's :class:`RetryPolicy`.

    A default-constructed plan is inert: no attempt crashes — the engine
    places every phase of a job that has no plan through one.
    """

    seed: int = 0
    fault_rate: float = 0.0
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")

    # -- hash-derived decisions ----------------------------------------

    def _unit(self, *key: object) -> float:
        """A uniform [0, 1) draw that is a pure function of ``key``."""
        return _avalanche(stable_hash((self.seed,) + key)) / 2.0**64

    def attempt_fails(self, job: str, phase: str, task_id: int, attempt: int) -> bool:
        """Does attempt number ``attempt`` of this task crash?

        ``attempt`` is the number of *prior failures* of the task, which is
        what makes the failure set monotone in :attr:`fault_rate`.
        """
        if self.fault_rate <= 0.0:
            return False
        return self._unit("fail", job, phase, task_id, attempt) < self.fault_rate

    def crash_fraction(self, job: str, phase: str, task_id: int, attempt: int) -> float:
        """Fraction of the attempt's cost burned before the crash."""
        u = self._unit("crash", job, phase, task_id, attempt)
        return MIN_CRASH_FRACTION + (MAX_CRASH_FRACTION - MIN_CRASH_FRACTION) * u


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptSpan:
    """One placed task attempt, in global virtual time.

    ``outcome`` is ``"success"`` (the winning attempt) or ``"failed"`` (it
    crashed at ``end``, losing the partial work).
    """

    attempt: int
    slot: int
    start: float
    end: float
    outcome: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TaskSchedule:
    """Every attempt one task consumed, in chronological start order."""

    task_id: int
    attempts: Tuple[AttemptSpan, ...]

    @property
    def winning(self) -> AttemptSpan:
        """The successful attempt (every finished task has exactly one)."""
        for span in self.attempts:
            if span.outcome == "success":
                return span
        raise ValueError(f"task {self.task_id} has no successful attempt")

    @property
    def num_failed(self) -> int:
        return sum(1 for span in self.attempts if span.outcome == "failed")


@dataclass
class FaultStats:
    """What one phase simulation observed (feeds ``fault.*`` counters)."""

    failed_attempts: int = 0
    retries: int = 0


class FaultScheduler:
    """Places one phase's tasks on slots under a :class:`FaultPlan`.

    A deterministic discrete-event simulation over a ready heap and a
    finish heap: tasks become *ready* (at phase start, or after a failure
    plus backoff), ready tasks are placed on the earliest-free slot (ties
    break by task id, then slot index), and a crashed attempt's completion
    makes its task ready again.  All decisions replay from the plan;
    nothing is random at simulation time.
    """

    def __init__(
        self,
        plan: FaultPlan,
        num_slots: int,
        ready_time: float,
        *,
        job: str,
        phase: str,
    ) -> None:
        if num_slots <= 0:
            raise ValueError(f"need at least one slot, got {num_slots}")
        self._plan = plan
        self._job = job
        self._phase = phase
        self._ready_time = ready_time
        self._free_at = [ready_time] * num_slots
        self.stats = FaultStats()

    def run(self, costs: Sequence[float]) -> List[TaskSchedule]:
        """Simulate the phase; returns one :class:`TaskSchedule` per task.

        Costs must be finite and non-negative.  Zero is legitimate — an
        empty input split produces a zero-cost map task, exactly like
        Hadoop running an empty split — and yields a zero-length attempt
        that still occupies a slot placement.

        Raises :class:`JobAbortedError` when any task exhausts the retry
        policy's attempt budget.
        """
        for cost in costs:
            if not math.isfinite(cost) or cost < 0:
                raise ValueError(f"task cost must be finite and >= 0, got {cost}")
        plan, job, phase, free_at = self._plan, self._job, self._phase, self._free_at
        n = len(costs)
        # Sorted, hence already a heap.
        ready = [(self._ready_time, task_id) for task_id in range(n)]
        # (end, placement sequence, task id, slot, start, crashes?)
        finishes: List[Tuple[float, int, int, int, float, bool]] = []
        spans: List[List[AttemptSpan]] = [[] for _ in range(n)]
        # A task's prior failures are also its next attempt's ordinal.
        failed = [0] * n
        seq = 0

        while ready or finishes:
            if ready:
                ready_time, task_id = ready[0]
                slot = min(range(len(free_at)), key=free_at.__getitem__)
                start = max(ready_time, free_at[slot])
                if not finishes or finishes[0][0] > start:
                    heapq.heappop(ready)
                    ordinal = failed[task_id]
                    duration = costs[task_id]
                    fails = plan.attempt_fails(job, phase, task_id, ordinal)
                    if fails:
                        duration *= plan.crash_fraction(job, phase, task_id, ordinal)
                    free_at[slot] = start + duration
                    seq += 1
                    heapq.heappush(
                        finishes, (free_at[slot], seq, task_id, slot, start, fails)
                    )
                    continue
            end, _, task_id, slot, start, fails = heapq.heappop(finishes)
            outcome = "failed" if fails else "success"
            spans[task_id].append(
                AttemptSpan(failed[task_id], slot, start, end, outcome)
            )
            if not fails:
                continue
            self.stats.failed_attempts += 1
            failed[task_id] += 1
            if failed[task_id] >= plan.retry.max_attempts:
                raise JobAbortedError(phase, task_id, failed[task_id])
            self.stats.retries += 1
            delay = plan.retry.backoff(failed[task_id])
            heapq.heappush(ready, (end + delay, task_id))

        return [
            TaskSchedule(task_id=t, attempts=tuple(spans[t])) for t in range(n)
        ]


__all__ = [
    "MIN_CRASH_FRACTION",
    "MAX_CRASH_FRACTION",
    "JobAbortedError",
    "RetryPolicy",
    "FaultPlan",
    "AttemptSpan",
    "TaskSchedule",
    "FaultStats",
    "FaultScheduler",
]
