"""Seeded fault injection, retries, and speculative execution.

The paper's progressive schedule is only valuable if the cluster keeps
maximizing the early-duplicate rate *while tasks fail and straggle* — skew
and node slowdown are the dominant real-world hazards for MapReduce-based
ER (Kolb et al., "Load Balancing for MapReduce-based Entity Resolution").
This module is the engine's placement path and its fault model:

* :class:`FaultPlan` — a **seeded, deterministic** description of what goes
  wrong: per-attempt crash decisions (an attempt crashes at a fraction of
  its cost, so the partial work is lost) and per-slot straggler slowdown
  multipliers;
* :class:`RetryPolicy` — how the framework reacts: a maximum attempt count,
  exponential backoff in *virtual* time, and :class:`JobAbortedError` when
  a task exhausts its attempts;
* :class:`SpeculationConfig` — Hadoop-style speculative execution: when a
  slot is idle and a running attempt's projected duration exceeds
  ``threshold ×`` the median attempt duration seen so far, a backup attempt
  is launched on the idle slot.  The first attempt to finish wins; the
  loser is killed and its slot reclaimed.

Determinism contract
--------------------
Every fault decision is a pure function of the plan's seed and a stable
identifier — ``(job name, phase, task id, attempt ordinal)`` for crashes,
``slot index`` for stragglers — hashed through
:func:`~repro.mapreduce.job.stable_hash`.  Nothing depends on wall-clock
time, iteration order, or the execution backend: the
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
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .job import stable_hash

#: Crash points are drawn uniformly from this fraction range of the
#: attempt's effective cost — an attempt never dies instantly at 0 nor
#: "almost finishes" at 1, keeping partial-cost loss visible in timelines.
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
        max_attempts: total attempts a task may consume (failed speculative
            attempts count too, like Hadoop's ``mapred.map.max.attempts``).
            Exhaustion raises :class:`JobAbortedError`.
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
class SpeculationConfig:
    """Hadoop-style speculative execution.

    When enabled, an idle slot may run a backup of a task whose running
    attempt's projected duration exceeds ``threshold ×`` the median
    duration of all attempts placed so far in the phase.  At most one
    backup per task is ever launched; the first finisher wins and the
    loser is killed (counted as wasted work).
    """

    enabled: bool = False
    threshold: float = 1.5

    def __post_init__(self) -> None:
        if not 1.0 < self.threshold < math.inf:
            raise ValueError(
                f"speculation threshold must be finite and exceed 1.0, "
                f"got {self.threshold}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of everything that goes wrong.

    Attributes:
        seed: root of every hash-derived decision below.
        fault_rate: probability that any given task attempt crashes.
        straggler_rate: probability that any given slot is a straggler.
        straggler_factor: cost multiplier of a straggler slot (>= 1).
        slot_slowdowns: explicit per-slot overrides (``{slot: factor}``),
            taking precedence over the seeded straggler draw — used by
            benchmarks and tests that need a known-slow slot.
        retry: the framework's :class:`RetryPolicy`.
        speculation: the framework's :class:`SpeculationConfig`.

    A default-constructed plan is inert: no crashes, no stragglers, no
    speculation — the engine places every phase of a job that has no
    plan through one.
    """

    seed: int = 0
    fault_rate: float = 0.0
    straggler_rate: float = 0.0
    straggler_factor: float = 1.0
    slot_slowdowns: Union[Tuple[Tuple[int, float], ...], Mapping[int, float]] = ()
    retry: RetryPolicy = RetryPolicy()
    speculation: SpeculationConfig = SpeculationConfig()

    def __post_init__(self) -> None:
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {self.fault_rate}")
        if not 0.0 <= self.straggler_rate <= 1.0:
            raise ValueError(
                f"straggler_rate must be in [0, 1], got {self.straggler_rate}"
            )
        if not 1.0 <= self.straggler_factor < math.inf:
            raise ValueError(
                f"straggler_factor must be finite and >= 1, "
                f"got {self.straggler_factor}"
            )
        if isinstance(self.slot_slowdowns, Mapping):
            object.__setattr__(
                self, "slot_slowdowns", tuple(sorted(self.slot_slowdowns.items()))
            )
        for slot, factor in self.slot_slowdowns:
            if not 1.0 <= factor < math.inf:
                raise ValueError(
                    f"slot {slot} slowdown must be finite and >= 1, got {factor}"
                )

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
        """Fraction of the attempt's effective cost burned before the crash."""
        u = self._unit("crash", job, phase, task_id, attempt)
        return MIN_CRASH_FRACTION + (MAX_CRASH_FRACTION - MIN_CRASH_FRACTION) * u

    def slot_slowdown(self, slot: int) -> float:
        """Cost multiplier of ``slot`` (1.0 for a healthy slot)."""
        for index, factor in self.slot_slowdowns:
            if index == slot:
                return factor
        if self.straggler_rate <= 0.0 or self.straggler_factor == 1.0:
            return 1.0
        if self._unit("straggler", slot) < self.straggler_rate:
            return self.straggler_factor
        return 1.0


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttemptSpan:
    """One placed task attempt, in global virtual time.

    ``outcome`` is ``"success"`` (the winning attempt), ``"failed"`` (it
    crashed at ``end``, losing the partial work) or ``"killed"`` (a
    speculation loser, terminated at the winner's finish time).
    """

    attempt: int
    slot: int
    start: float
    end: float
    outcome: str
    speculative: bool = False

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


class _Slot:
    """Mutable slot state during one phase simulation."""

    __slots__ = ("index", "free_at", "slowdown")

    def __init__(self, index: int, free_at: float, slowdown: float) -> None:
        self.index = index
        self.free_at = free_at
        self.slowdown = slowdown


class _Attempt:
    """Mutable running-attempt record (becomes an :class:`AttemptSpan`)."""

    __slots__ = ("task_id", "attempt", "slot", "start", "end", "fails", "speculative", "killed")

    def __init__(self, task_id, attempt, slot, start, end, fails, speculative):
        self.task_id = task_id
        self.attempt = attempt
        self.slot = slot
        self.start = start
        self.end = end
        self.fails = fails
        self.speculative = speculative
        self.killed = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class FaultStats:
    """What one phase simulation observed (feeds ``fault.*`` counters)."""

    failed_attempts: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    speculative_failed: int = 0
    killed_attempts: int = 0
    retries: int = 0


class FaultScheduler:
    """Places one phase's tasks on slots under a :class:`FaultPlan`.

    A deterministic discrete-event simulation: tasks become *ready* (at
    phase start, or after a failure plus backoff), ready tasks are placed
    on the earliest-free slot (ties break by task id, then slot index),
    and attempt completions drive retries and speculation.  All decisions
    replay from the plan; nothing is random at simulation time.
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
        self._slots = [
            _Slot(index, ready_time, plan.slot_slowdown(index))
            for index in range(num_slots)
        ]
        self.stats = FaultStats()

    # -- public API ----------------------------------------------------

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
        n = len(costs)
        self._costs = list(costs)
        self._ready: List[Tuple[float, int]] = [
            (self._ready_time, task_id) for task_id in range(n)
        ]
        heapq.heapify(self._ready)
        self._finishes: List[Tuple[float, int, _Attempt]] = []
        self._seq = 0
        self._live: Dict[int, List[_Attempt]] = {t: [] for t in range(n)}
        self._spans: List[List[AttemptSpan]] = [[] for _ in range(n)]
        self._failed: List[int] = [0] * n
        self._attempt_ids: List[int] = [0] * n
        self._done: List[Optional[_Attempt]] = [None] * n
        self._had_backup: Set[int] = set()
        self._durations: List[float] = []

        while self._ready or self._finishes:
            if not self._ready and self._plan.speculation.enabled:
                self._speculate()
            if self._ready:
                ready_time, task_id = self._ready[0]
                slot = self._best_slot()
                launch_at = max(ready_time, slot.free_at)
                if self._finishes and self._finishes[0][0] <= launch_at:
                    self._process_finish()
                else:
                    heapq.heappop(self._ready)
                    self._commit(task_id, ready_time, slot, speculative=False)
            else:
                self._process_finish()

        return [
            TaskSchedule(
                task_id=t,
                attempts=tuple(
                    sorted(self._spans[t], key=lambda a: (a.start, a.attempt))
                ),
            )
            for t in range(n)
        ]

    # -- internals -----------------------------------------------------

    def _best_slot(self) -> _Slot:
        """The earliest-free slot (ties by slot index)."""
        return min(self._slots, key=lambda s: (s.free_at, s.index))

    def _commit(
        self, task_id: int, ready_time: float, slot: _Slot, *, speculative: bool
    ) -> None:
        """Place one attempt of ``task_id`` on ``slot``."""
        start = max(ready_time, slot.free_at)
        effective = self._costs[task_id] * slot.slowdown
        if speculative:
            fails = self._plan.attempt_fails(self._job, self._phase, task_id, -1)
            fraction = self._plan.crash_fraction(self._job, self._phase, task_id, -1)
        else:
            ordinal = self._failed[task_id]
            fails = self._plan.attempt_fails(self._job, self._phase, task_id, ordinal)
            fraction = self._plan.crash_fraction(self._job, self._phase, task_id, ordinal)
        duration = effective * fraction if fails else effective
        attempt = _Attempt(
            task_id,
            self._attempt_ids[task_id],
            slot.index,
            start,
            start + duration,
            fails,
            speculative,
        )
        self._attempt_ids[task_id] += 1
        slot.free_at = attempt.end
        self._live[task_id].append(attempt)
        self._durations.append(duration)
        self._seq += 1
        heapq.heappush(self._finishes, (attempt.end, self._seq, attempt))
        if speculative:
            self._had_backup.add(task_id)
            self.stats.speculative_launched += 1

    def _process_finish(self) -> None:
        """Consume the earliest attempt completion."""
        _, _, attempt = heapq.heappop(self._finishes)
        if attempt.killed:
            return  # lazily deleted: the race was lost earlier
        task_id = attempt.task_id
        live = self._live[task_id]
        live.remove(attempt)
        if attempt.fails:
            self._on_failure(attempt, live)
        else:
            self._on_success(attempt, live)

    def _on_failure(self, attempt: _Attempt, live: List[_Attempt]) -> None:
        task_id = attempt.task_id
        self._spans[task_id].append(
            AttemptSpan(
                attempt.attempt,
                attempt.slot,
                attempt.start,
                attempt.end,
                "failed",
                attempt.speculative,
            )
        )
        self.stats.failed_attempts += 1
        if attempt.speculative:
            self.stats.speculative_failed += 1
        self._failed[task_id] += 1
        if live:
            # The surviving attempt (original or backup) carries on; a
            # promoted backup is simply the one attempt left running.
            return
        if self._failed[task_id] >= self._plan.retry.max_attempts:
            raise JobAbortedError(self._phase, task_id, self._failed[task_id])
        delay = self._plan.retry.backoff(self._failed[task_id])
        self.stats.retries += 1
        heapq.heappush(self._ready, (attempt.end + delay, task_id))

    def _on_success(self, attempt: _Attempt, live: List[_Attempt]) -> None:
        task_id = attempt.task_id
        self._done[task_id] = attempt
        self._spans[task_id].append(
            AttemptSpan(
                attempt.attempt,
                attempt.slot,
                attempt.start,
                attempt.end,
                "success",
                attempt.speculative,
            )
        )
        if attempt.speculative:
            self.stats.speculative_wins += 1
        for loser in live:
            # First finisher wins: the loser dies at the winner's finish
            # time and, unless a later attempt was already committed
            # behind it, its slot is reclaimed immediately.
            loser.killed = True
            self._spans[task_id].append(
                AttemptSpan(
                    loser.attempt,
                    loser.slot,
                    loser.start,
                    attempt.end,
                    "killed",
                    loser.speculative,
                )
            )
            slot = self._slots[loser.slot]
            if slot.free_at == loser.end:
                slot.free_at = attempt.end
            self.stats.killed_attempts += 1
        live.clear()

    def _speculate(self) -> None:
        """Launch backups for running attempts that look like stragglers."""
        if not self._durations:
            return
        ordered = sorted(self._durations)
        median = ordered[(len(ordered) - 1) // 2]
        threshold = self._plan.speculation.threshold * median
        for task_id in sorted(self._live):
            live = self._live[task_id]
            if (
                len(live) != 1
                or task_id in self._had_backup
                or self._done[task_id] is not None
            ):
                continue
            attempt = live[0]
            if attempt.duration <= threshold:
                continue
            slot = self._best_slot()
            # A backup only makes sense on a slot that frees before the
            # suspect attempt would finish (its own slot never qualifies:
            # it is busy until attempt.end).
            if slot.free_at >= attempt.end:
                continue
            self._commit(task_id, slot.free_at, slot, speculative=True)


__all__ = [
    "MIN_CRASH_FRACTION",
    "MAX_CRASH_FRACTION",
    "JobAbortedError",
    "RetryPolicy",
    "SpeculationConfig",
    "FaultPlan",
    "AttemptSpan",
    "TaskSchedule",
    "FaultStats",
    "FaultScheduler",
]
