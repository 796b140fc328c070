"""Unit tests for the seeded fault-injection subsystem.

Covers :mod:`repro.mapreduce.faults` in isolation (plan validation, draw
determinism, the discrete-event scheduler's retry behaviour) and its integration with the engine (zero-plan
byte-identity, result invariance, ``fault.*`` counters, the abort path).
"""

from __future__ import annotations

import math

import pytest

from repro.mapreduce import (
    Cluster,
    FaultPlan,
    FaultScheduler,
    JobAbortedError,
    RetryPolicy,
)
from repro.mapreduce.faults import (
    MAX_CRASH_FRACTION,
    MIN_CRASH_FRACTION,
    AttemptSpan,
    TaskSchedule,
)

from conftest import ScanSlotPool
from test_executor_parity import _LINES, _wordcount_job, job_fingerprint


# ---------------------------------------------------------------------------
# Plan / policy validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_retry_policy_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                RetryPolicy(backoff_base=value)
            with pytest.raises(ValueError):
                RetryPolicy(backoff_factor=value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fault_rate": -0.1},
            {"fault_rate": 1.5},
            {"fault_rate": math.nan},
            {"fault_rate": math.inf},
            {"fault_rate": -math.inf},
        ],
    )
    def test_fault_plan_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

class TestDraws:
    def test_draws_are_deterministic(self):
        a = FaultPlan(seed=42, fault_rate=0.3)
        b = FaultPlan(seed=42, fault_rate=0.3)
        for task in range(20):
            for attempt in range(4):
                assert a.attempt_fails("j", "map", task, attempt) == b.attempt_fails(
                    "j", "map", task, attempt
                )
                assert a.crash_fraction("j", "map", task, attempt) == pytest.approx(
                    b.crash_fraction("j", "map", task, attempt)
                )

    def test_failure_sets_nested_in_rate(self):
        low = FaultPlan(seed=5, fault_rate=0.1)
        high = FaultPlan(seed=5, fault_rate=0.4)
        for task in range(50):
            for attempt in range(4):
                if low.attempt_fails("j", "reduce", task, attempt):
                    assert high.attempt_fails("j", "reduce", task, attempt)

    def test_retry_draws_are_independent(self):
        """The avalanche fix: consecutive attempt ordinals of one task must
        not produce nearly identical uniforms (a task that failed once must
        not be doomed to fail forever at moderate rates)."""
        plan = FaultPlan(seed=0, fault_rate=0.3)
        always_failing = 0
        for task in range(100):
            if all(plan.attempt_fails("j", "map", task, a) for a in range(6)):
                always_failing += 1
        assert always_failing == 0  # 0.3 ** 6 per task; ~0.07 expected over 100

    def test_crash_fraction_bounds(self):
        plan = FaultPlan(seed=1, fault_rate=1.0)
        for task in range(50):
            fraction = plan.crash_fraction("j", "map", task, 0)
            assert MIN_CRASH_FRACTION <= fraction <= MAX_CRASH_FRACTION

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=2.0, backoff_factor=3.0)
        assert policy.backoff(1) == 2.0
        assert policy.backoff(2) == 6.0
        assert policy.backoff(3) == 18.0
        assert RetryPolicy(backoff_base=0.0).backoff(5) == 0.0


# ---------------------------------------------------------------------------
# Scheduler behaviour
# ---------------------------------------------------------------------------


def _schedules(plan, costs, num_slots=2, ready=0.0):
    return FaultScheduler(plan, num_slots, ready, job="j", phase="map").run(costs)


class TestFaultScheduler:
    def test_inert_plan_matches_slot_pool_placement(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        schedules = _schedules(FaultPlan(), costs, num_slots=3, ready=10.0)
        pool = ScanSlotPool(3, 10.0)
        for task_id, cost in enumerate(costs):
            start, end, slot = pool.schedule(cost)
            sched = schedules[task_id]
            assert len(sched.attempts) == 1
            win = sched.winning
            assert (win.start, win.end, win.slot) == (start, end, slot)
            assert win.outcome == "success"

    def test_crash_loses_partial_cost_then_retries(self):
        plan = FaultPlan(seed=3, fault_rate=0.5, retry=RetryPolicy(max_attempts=50))
        schedules = _schedules(plan, [4.0] * 8, num_slots=8)
        failed_any = False
        for sched in schedules:
            win = sched.winning
            assert win.outcome == "success"
            for span in sched.attempts:
                if span.outcome == "failed":
                    failed_any = True
                    # Partial-cost loss: the crashed attempt is strictly
                    # shorter than the full cost.
                    assert 0 < span.duration < 4.0
                    assert (
                        MIN_CRASH_FRACTION * 4.0
                        <= span.duration
                        <= MAX_CRASH_FRACTION * 4.0
                    )
        assert failed_any, "seed must produce at least one crash at rate 0.5"

    def test_backoff_delays_the_retry(self):
        base = FaultPlan(seed=9, fault_rate=0.6, retry=RetryPolicy(max_attempts=50))
        delayed = FaultPlan(
            seed=9, fault_rate=0.6,
            retry=RetryPolicy(max_attempts=50, backoff_base=5.0),
        )
        fast = _schedules(base, [2.0] * 4, num_slots=4)
        slow = _schedules(delayed, [2.0] * 4, num_slots=4)
        assert any(len(s.attempts) > 1 for s in fast)
        for f, s in zip(fast, slow):
            # Same failure pattern (same seed), strictly later commits when
            # a retry happened.
            assert len(f.attempts) == len(s.attempts)
            if len(f.attempts) > 1:
                assert s.winning.start > f.winning.start

    def test_exhausted_retries_abort_the_job(self):
        plan = FaultPlan(seed=0, fault_rate=1.0, retry=RetryPolicy(max_attempts=3))
        with pytest.raises(JobAbortedError) as err:
            _schedules(plan, [1.0, 1.0])
        assert err.value.attempts == 3
        assert err.value.phase == "map"

    def test_empty_phase_is_a_noop(self):
        assert _schedules(FaultPlan(fault_rate=0.5), []) == []

    def test_winning_raises_without_success_span(self):
        sched = TaskSchedule(
            task_id=0,
            attempts=(AttemptSpan(0, 0, 0.0, 1.0, "failed"),),
        )
        with pytest.raises(ValueError):
            sched.winning

    def test_scheduler_rejects_zero_slots(self):
        with pytest.raises(ValueError):
            FaultScheduler(FaultPlan(), 0, 0.0, job="j", phase="map")


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------


class TestEngineIntegration:
    def test_zero_plan_is_byte_identical_to_no_plan(self):
        base = Cluster(2).run_job(_wordcount_job(), _LINES)
        zero = Cluster(2, faults=FaultPlan()).run_job(_wordcount_job(), _LINES)
        assert job_fingerprint(base) == job_fingerprint(zero)
        assert not any(
            group == "fault" for (group, _), _ in zero.counters.items()
        )

    def test_results_invariant_under_faults(self):
        plan = FaultPlan(
            seed=7, fault_rate=0.3,
            retry=RetryPolicy(max_attempts=50, backoff_base=0.5),
        )
        base = Cluster(2).run_job(_wordcount_job(), _LINES)
        faulty = Cluster(2, faults=plan).run_job(_wordcount_job(), _LINES)
        assert faulty.output == base.output
        assert faulty.end_time >= base.end_time
        assert sorted((e.kind, repr(e.payload)) for e in faulty.events) == sorted(
            (e.kind, repr(e.payload)) for e in base.events
        )

    def test_fault_counters_and_task_fields(self):
        plan = FaultPlan(
            seed=7, fault_rate=0.3, retry=RetryPolicy(max_attempts=50)
        )
        result = Cluster(2, faults=plan).run_job(_wordcount_job(), _LINES)
        flat = result.counters.as_flat_dict()
        fault_keys = {k for k in flat if k.startswith("fault.")}
        assert fault_keys, "rate 0.3 must record fault counters"
        total_failed = sum(
            t.num_failed_attempts
            for t in result.map_tasks + result.reduce_tasks
        )
        assert total_failed == flat.get(
            "fault.map_failed_attempts", 0
        ) + flat.get("fault.reduce_failed_attempts", 0)

    def test_abort_propagates_from_engine(self):
        plan = FaultPlan(seed=0, fault_rate=1.0)
        with pytest.raises(JobAbortedError):
            Cluster(2, faults=plan).run_job(_wordcount_job(), _LINES)

