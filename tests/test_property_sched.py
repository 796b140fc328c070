"""Property-based tests for the multi-tenant scheduler (hypothesis).

Random seeded Poisson arrival traces drive small MapReduce jobs through
:class:`~repro.scheduling.JobScheduler`; four properties pin the
dispatch contract from the scheduler's own decision log:

1. **Work conservation** — every phase dispatches at
   ``max(ready, first_free(kind))``: a slot is never left idle while a
   runnable phase of that kind is pending, and no phase ever starts
   before it is ready.
2. **Weighted fair share** — per decision, the fair policy grants the
   minimal (dispatch, lane rank, tenant virtual time) candidate: at
   equal dispatch the tenant with the least weight-normalized service
   wins.  Long-run, with both tenants backlogged, a ≥2× heavier tenant
   receives at least as many slot-seconds (within one whole-phase grant
   of quantization slack — grants are never preempted mid-phase), and
   equal-weight tenants split within two grants.
3. **Priority lanes** — a batch phase is never granted while an
   interactive phase of the same slot kind was runnable at-or-before
   the chosen dispatch time (interactive waits behind at most the
   already-running phase, never behind a later batch phase start).
4. **Determinism** — replaying the identical trace yields a
   bit-identical decision log, outcomes and latencies.

The hypothesis profile is registered in ``conftest.py``; CI runs with
``HYPOTHESIS_PROFILE=ci`` (derandomized) so the suite cannot flake.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import MapReduceJob, Mapper, Reducer
from repro.observability import Tracer
from repro.scheduling import (
    AdmissionPolicy,
    JobScheduler,
    poisson_arrivals,
)

_LINES = [
    "alpha beta gamma delta",
    "beta gamma epsilon",
    "zeta eta theta alpha",
    "iota kappa",
]


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(0.5 * len(values))
        context.write((key, sum(values)))


def _job(name: str) -> MapReduceJob:
    return MapReduceJob(_WordMapper, _SumReducer, name=name, alpha=2.0)


def _records(size_draw: float) -> list:
    repeat = 1 + int(size_draw * 4)
    return _LINES * repeat


def _run_poisson_trace(
    *, seed: int, count: int, rate: float, policy: str, interactive_fraction: float
):
    trace = poisson_arrivals(
        seed=seed,
        rate=rate,
        count=count,
        tenants=("alice", "bob", "carol"),
        tenant_weights=(3.0, 2.0, 1.0),
        interactive_fraction=interactive_fraction,
    )
    scheduler = JobScheduler(machines=2, policy=policy)
    scheduler.add_tenant("alice", 3.0)
    scheduler.add_tenant("bob", 2.0)
    scheduler.add_tenant("carol", 1.0)
    for arrival in trace:
        scheduler.submit_job(
            _job(f"job-{arrival.index}"),
            _records(arrival.size_draw),
            tenant=arrival.tenant,
            lane=arrival.lane,
            arrival=arrival.time,
        )
    return scheduler.run()


trace_params = {
    "seed": st.integers(0, 2**32 - 1),
    "count": st.integers(2, 7),
    "rate": st.floats(0.005, 0.5),
    "interactive_fraction": st.floats(0.0, 1.0),
    "policy": st.sampled_from(["fair", "fifo"]),
}


class TestWorkConservation:
    @given(**trace_params)
    @settings(deadline=None)
    def test_dispatch_is_lazy_and_work_conserving(
        self, seed, count, rate, interactive_fraction, policy
    ):
        report = _run_poisson_trace(
            seed=seed, count=count, rate=rate, policy=policy,
            interactive_fraction=interactive_fraction,
        )
        assert report.decisions, "trace granted nothing"
        for decision in report.decisions:
            # Never early (causality), never late (work conservation):
            # the phase starts the instant it is ready AND a slot of its
            # kind frees up, whichever is later.
            assert decision["dispatch"] == max(
                decision["ready"], decision["first_free"]
            )
            # And the scheduler picked a minimal-dispatch candidate:
            # granting anything else first could only idle the slot.
            best = min(c["dispatch"] for c in decision["candidates"])
            assert decision["dispatch"] == best

    @given(**trace_params)
    @settings(deadline=None)
    def test_every_job_completes_with_no_leaked_slots(
        self, seed, count, rate, interactive_fraction, policy
    ):
        report = _run_poisson_trace(
            seed=seed, count=count, rate=rate, policy=policy,
            interactive_fraction=interactive_fraction,
        )
        # Every placed phase is charged exactly once: the tenants' bill
        # is the pool's busy time.
        assert sum(t.slot_seconds for t in report.tenants) == pytest.approx(
            sum(report.busy.values())
        )
        for outcome in report.outcomes:
            assert outcome.finished_at is not None
            assert outcome.started_at is not None
            assert outcome.started_at >= outcome.arrival
            assert outcome.finished_at >= outcome.started_at
            assert outcome.latency >= 0
            # Two phases (map + reduce) per submitted job.
            assert outcome.grants == 2


def _backlog_run(weight_a, weight_b, jobs_per_tenant, scale):
    """Two tenants fully backlogged from t=0 on identical jobs, single
    lane per slot kind (so lease closes are prompt and virtual time stays
    fresh).  Returns (contested slot-second shares, max grant size)."""
    scheduler = JobScheduler(
        machines=1, map_slots=1, reduce_slots=1, policy="fair"
    )
    scheduler.add_tenant("a", weight_a)
    scheduler.add_tenant("b", weight_b)
    records = _LINES * scale
    for index in range(jobs_per_tenant):
        scheduler.submit_job(_job(f"a{index}"), records, tenant="a", arrival=0.0)
        scheduler.submit_job(_job(f"b{index}"), records, tenant="b", arrival=0.0)
    report = scheduler.run()
    per_grant = {o.job: o.slot_seconds / o.grants for o in report.outcomes}
    shares = {"a": 0.0, "b": 0.0}
    contested = 0
    for decision in report.decisions:
        # Measure only while the backlog is contested: both tenants have
        # runnable phases among the recorded candidates.
        if {c["tenant"] for c in decision["candidates"]} >= {"a", "b"}:
            contested += 1
            shares[decision["tenant"]] += per_grant[decision["job"]]
    assert contested, "backlog never contested — property is vacuous"
    return shares, max(per_grant.values())


class TestWeightedFairShare:
    @given(**trace_params)
    @settings(deadline=None)
    def test_fair_grants_minimize_policy_key(
        self, seed, count, rate, interactive_fraction, policy
    ):
        """The exact WFQ contract, per decision: under the fair policy the
        granted request is minimal under (dispatch, lane rank, tenant
        virtual time) among every recorded candidate — i.e. at equal
        dispatch the tenant with the least weight-normalized service wins.
        """
        if policy == "fifo":
            return
        report = _run_poisson_trace(
            seed=seed, count=count, rate=rate, policy="fair",
            interactive_fraction=interactive_fraction,
        )
        def key(c):
            return (c["dispatch"], 0 if c["lane"] == "interactive" else 1,
                    c["vtime"])
        for decision in report.decisions:
            chosen = next(
                c for c in decision["candidates"]
                if c["job"] == decision["job"]
                and c["kind"] == decision["kind"]
            )
            assert key(chosen) == min(key(c) for c in decision["candidates"])

    @given(
        weight_low=st.floats(1.0, 2.0),
        multiplier=st.floats(2.0, 4.0),
        jobs_per_tenant=st.integers(4, 10),
        scale=st.integers(1, 2),
        favored=st.sampled_from(["a", "b"]),
    )
    @settings(deadline=None)
    def test_higher_weight_tenant_gets_larger_share(
        self, weight_low, multiplier, jobs_per_tenant, scale, favored
    ):
        """Long-run bound: with a weight ratio of at least 2×, the heavier
        tenant receives at least as many slot-seconds over the contested
        window, within one grant of quantization slack (grants are whole
        phases, never preempted mid-phase)."""
        weight_high = weight_low * multiplier
        weights = {"a": weight_low, "b": weight_low}
        weights[favored] = weight_high
        other = "b" if favored == "a" else "a"
        shares, grant = _backlog_run(
            weights["a"], weights["b"], jobs_per_tenant, scale
        )
        assert shares[favored] >= shares[other] - grant

    @given(
        weight=st.floats(1.0, 3.0),
        jobs_per_tenant=st.integers(4, 10),
        scale=st.integers(1, 2),
    )
    @settings(deadline=None)
    def test_equal_weight_tenants_split_evenly(
        self, weight, jobs_per_tenant, scale
    ):
        """Equal weights ⇒ contested slot-seconds split evenly, within two
        grants of quantization slack."""
        shares, grant = _backlog_run(weight, weight, jobs_per_tenant, scale)
        assert abs(shares["a"] - shares["b"]) <= 2.0 * grant + 1e-9


class TestPriorityLanes:
    @given(**trace_params)
    @settings(deadline=None)
    def test_interactive_never_waits_behind_batch_phase_start(
        self, seed, count, rate, interactive_fraction, policy
    ):
        if policy == "fifo":
            return  # priority lanes are a fair-policy feature
        report = _run_poisson_trace(
            seed=seed, count=count, rate=rate, policy="fair",
            interactive_fraction=interactive_fraction,
        )
        for decision in report.decisions:
            if decision["lane"] != "batch":
                continue
            rivals = [
                c for c in decision["candidates"]
                if c["lane"] == "interactive"
                and c["kind"] == decision["kind"]
            ]
            for rival in rivals:
                # Any interactive phase runnable at-or-before the chosen
                # batch dispatch would have won the tie-break.
                assert rival["dispatch"] > decision["dispatch"]


class TestDeterminism:
    @given(**trace_params)
    @settings(deadline=None)
    def test_same_trace_same_schedule(
        self, seed, count, rate, interactive_fraction, policy
    ):
        def snapshot():
            report = _run_poisson_trace(
                seed=seed, count=count, rate=rate, policy=policy,
                interactive_fraction=interactive_fraction,
            )
            return (
                [
                    (d["job"], d["kind"], d["ready"], d["dispatch"])
                    for d in report.decisions
                ],
                [
                    (o.job, o.started_at, o.finished_at, o.latency)
                    for o in report.outcomes
                ],
            )

        assert snapshot() == snapshot()

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 20))
    @settings(deadline=None)
    def test_poisson_trace_is_reproducible_and_ordered(self, seed, count):
        kwargs = dict(
            seed=seed, rate=0.1, count=count,
            tenants=("a", "b"), interactive_fraction=0.5,
        )
        first = poisson_arrivals(**kwargs)
        second = poisson_arrivals(**kwargs)
        assert first == second
        times = [a.time for a in first]
        assert times == sorted(times)
        assert all(t > 0 for t in times)


class TestAdmissionProperties:
    @given(
        cap=st.integers(1, 3),
        submissions=st.integers(4, 8),
    )
    @settings(deadline=None)
    def test_queue_cap_rejects_overflow_with_typed_receipt(
        self, cap, submissions
    ):
        scheduler = JobScheduler(
            machines=2,
            admission=AdmissionPolicy(max_queued=cap),
        )
        receipts = [
            scheduler.submit_job(
                _job(f"j{index}"), _LINES, tenant="t", arrival=0.0
            ).receipt
            for index in range(submissions)
        ]
        accepted = [r for r in receipts if not r.rejected]
        rejected = [r for r in receipts if r.rejected]
        assert len(accepted) == min(cap, submissions)
        assert all(r.reason == "queue-full" for r in rejected)
        report = scheduler.run()
        finished = [o for o in report.outcomes if o.finished_at is not None]
        assert len(finished) == len(accepted)

    @given(
        max_active=st.integers(1, 3),
        submissions=st.integers(2, 6),
    )
    @settings(deadline=None)
    def test_max_active_queues_and_staggers_starts(
        self, max_active, submissions
    ):
        scheduler = JobScheduler(
            machines=2,
            admission=AdmissionPolicy(max_active=max_active),
        )
        handles = [
            scheduler.submit_job(
                _job(f"j{index}"), _LINES, tenant="t", arrival=0.0
            )
            for index in range(submissions)
        ]
        queued = [h for h in handles if h.receipt.decision == "queued"]
        assert len(queued) == max(0, submissions - max_active)
        report = scheduler.run()
        finishes = sorted(
            o.finished_at for o in report.outcomes if o.decision == "admitted"
        )
        for outcome in report.outcomes:
            if outcome.decision != "queued":
                continue
            # A queued job may only start once some earlier job finished.
            assert outcome.started_at >= finishes[0]


def _submit(**options):
    def case():
        scheduler = JobScheduler(machines=2)
        scheduler.submit_job(_job("j"), _LINES, tenant="t", **options)
        return scheduler
    return case


def _tenant(weight):
    def case():
        scheduler = JobScheduler(machines=2)
        scheduler.add_tenant("t", weight)
        return scheduler
    return case


_INVALID_INPUTS = {
    "weight-zero": _tenant(0.0),
    "weight-negative": _tenant(-1.0),
    "weight-nan": _tenant(float("nan")),
    "weight-inf": _tenant(float("inf")),
    "arrival-negative": _submit(arrival=-1.0),
    "arrival-nan": _submit(arrival=float("nan")),
    "arrival-inf": _submit(arrival=float("inf")),
    "cost-negative": _submit(estimated_cost=-1.0),
    "cost-nan": _submit(estimated_cost=float("nan")),
    "cost-inf": _submit(estimated_cost=float("inf")),
    "unknown-lane": _submit(lane="urgent"),
    "unknown-policy": lambda: JobScheduler(policy="lottery"),
}


class TestInputValidation:
    @pytest.mark.parametrize("case", sorted(_INVALID_INPUTS))
    def test_rejects_invalid_input_with_value_error(self, case):
        """A weight, arrival or cost estimate that is not a finite number
        in range, or an unknown lane or policy, raises ``ValueError``."""
        with pytest.raises(ValueError):
            _INVALID_INPUTS[case]()


class _FailingLeaseTracer(Tracer):
    """A tracer whose sink fails on every scheduler lease span."""

    def record_span(self, name, category, *args, **kwargs):
        if category == "sched-lease":
            raise OSError("trace sink is full")
        return super().record_span(name, category, *args, **kwargs)


class TestAccountingFailure:
    def test_raising_tracer_fails_the_job_and_strands_no_thread(self):
        """An error while a placed phase is charged is that job's error:
        ``run()`` raises the typed ``RuntimeError`` naming the first job,
        chained to the cause, and every job thread has ended."""
        scheduler = JobScheduler(machines=1, tracer=_FailingLeaseTracer())
        for index in range(3):
            scheduler.submit_job(
                _job(f"j{index}"), _LINES, tenant=f"t{index}", arrival=0.0
            )
        with pytest.raises(RuntimeError, match="job 'j0' \\(tenant 't0'\\)") as caught:
            scheduler.run()
        assert isinstance(caught.value.__cause__, OSError)

        def stranded():
            return [t.name for t in threading.enumerate() if t.name.startswith("sched-")]

        deadline = time.monotonic() + 5.0
        while stranded() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert stranded() == []
