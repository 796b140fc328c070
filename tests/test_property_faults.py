"""Property-based tests for the fault subsystem (hypothesis).

Three properties pin the determinism contract of
:mod:`repro.mapreduce.faults`:

1. **Backend parity** — for *random* fault plans, the serial and process
   backends produce bit-identical results, traces and counters (fault
   decisions replay from the seeded plan in the driver, never from
   wall-clock time).
2. **Monotonicity** — on a single wave of slots, makespan is monotone
   non-decreasing in the fault rate: the failure-decision key includes the task's prior
   failure count, so failure sets are nested as the rate grows.
3. **Zero-rate identity** — any inert plan (rate 0) schedules
   byte-identically to having no plan at all.

The hypothesis profile is registered in ``conftest.py``; CI runs with
``HYPOTHESIS_PROFILE=ci`` (derandomized) so the suite cannot flake.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import (
    Cluster,
    FaultPlan,
    FaultScheduler,
    JobAbortedError,
    ParallelExecutor,
    RetryPolicy,
)
from repro.observability import Tracer

from conftest import ScanSlotPool
from test_executor_parity import _LINES, _wordcount_job, job_fingerprint

#: Generous retry budget: the properties are about timelines, not aborts.
_PATIENT = RetryPolicy(max_attempts=1000)

fault_plans = st.builds(
    FaultPlan,
    seed=st.integers(min_value=0, max_value=2**32),
    fault_rate=st.floats(min_value=0.0, max_value=0.4),
    retry=st.builds(
        RetryPolicy,
        max_attempts=st.just(1000),
        backoff_base=st.floats(min_value=0.0, max_value=2.0),
        backoff_factor=st.floats(min_value=1.0, max_value=3.0),
    ),
)

costs_lists = st.lists(
    st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestSchedulerProperties:
    @given(plan=fault_plans, costs=costs_lists)
    def test_scheduler_is_deterministic(self, plan, costs):
        """Two simulations of the same plan agree attempt for attempt."""
        a = FaultScheduler(plan, 3, 0.0, job="j", phase="map").run(costs)
        b = FaultScheduler(plan, 3, 0.0, job="j", phase="map").run(costs)
        assert a == b

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        costs=costs_lists,
        low=st.floats(min_value=0.0, max_value=0.5),
        high=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_makespan_monotone_in_fault_rate_single_wave(
        self, seed, costs, low, high
    ):
        """Single wave: a higher fault rate can only push the makespan
        out (failure sets are nested)."""
        low, high = min(low, high), max(low, high)
        num_slots = len(costs)  # one slot per task: a single wave
        ends = []
        for rate in (low, high):
            plan = FaultPlan(seed=seed, fault_rate=rate, retry=_PATIENT)
            schedules = FaultScheduler(
                plan, num_slots, 0.0, job="j", phase="map"
            ).run(costs)
            ends.append(max((s.winning.end for s in schedules), default=0.0))
        assert ends[0] <= ends[1] + 1e-9

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        costs=costs_lists,
        slots=st.integers(min_value=1, max_value=5),
        ready=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_inert_plan_equals_slot_pool(self, seed, costs, slots, ready):
        """Zero-rate plans reproduce plain wave placement (the scan
        reference) exactly."""
        plan = FaultPlan(seed=seed)  # seed varies, nothing else: inert
        schedules = FaultScheduler(
            plan, slots, ready, job="j", phase="map"
        ).run(costs)
        pool = ScanSlotPool(slots, ready)
        for task_id, cost in enumerate(costs):
            start, end, slot = pool.schedule(cost)
            win = schedules[task_id].winning
            assert (win.start, win.end, win.slot) == (start, end, slot)
            assert len(schedules[task_id].attempts) == 1


class TestEngineProperties:
    @settings(max_examples=8, deadline=None)
    @given(plan=fault_plans)
    def test_serial_process_parity_under_random_plans(self, plan):
        """The acceptance criterion: any fixed fault seed yields
        bit-identical results, traces and counters on both backends."""
        outcomes = []
        for executor in (None, ParallelExecutor(2)):
            tracer = Tracer()
            cluster = Cluster(
                2, executor=executor, tracer=tracer, faults=plan
            )
            try:
                result = cluster.run_job(_wordcount_job(), _LINES)
            except JobAbortedError as err:
                outcomes.append(("aborted", err.phase, err.task_id, err.attempts))
            else:
                outcomes.append(
                    (job_fingerprint(result), tracer.span_set())
                )
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_zero_rate_plan_is_byte_identical(self, seed):
        """--fault-rate 0 reproduces today's timelines exactly, whatever
        the seed."""
        base = Cluster(2).run_job(_wordcount_job(), _LINES)
        zero = Cluster(2, faults=FaultPlan(seed=seed)).run_job(
            _wordcount_job(), _LINES
        )
        assert job_fingerprint(base) == job_fingerprint(zero)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_faulty_output_equals_clean_output(self, seed, rate):
        """Fault injection perturbs timing only — never what is computed."""
        plan = FaultPlan(seed=seed, fault_rate=rate, retry=_PATIENT)
        base = Cluster(2).run_job(_wordcount_job(), _LINES)
        faulty = Cluster(2, faults=plan).run_job(_wordcount_job(), _LINES)
        assert faulty.output == base.output
        assert faulty.end_time >= base.end_time - 1e-9
