"""Differential oracle for the multi-tenant scheduler.

The isolation invariant: running a job *through the shared scheduler* —
interleaved with another tenant's work on the same slot pool — must
produce the identical found-pair set and identical job counters
(comparisons included) as running the same job *alone* on a private
cluster.  Sharing changes only when phases start, never what they
compute, because task payloads are computed before placement and fault
decisions key on task ids and attempt ordinals, not on absolute times.

The oracle runs the grid kind × backend × fault: a stream of
:class:`ResolverService` batches and one raw delta job, each on the
serial and process backends, clean and faulty, every time beside a rival
tenant's batch stream.  The faulty plan injects crashes, retries and a
straggler slot but **no speculation**: speculative kill/win accounting
is legitimately placement-dependent (a busier timeline changes which
attempt finishes first), so it is exercised by the fault suite, not by
this counter-equality oracle.

The other guarantees pinned here: one fixed batch trace yields
bit-identical decision logs and timings on the serial and process
backends; a service restored from a snapshot schedules exactly like the
one it was taken from; and a batch whose delta job aborts fails alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

import pytest

from repro.core import skewed_config
from repro.data.skewed import make_skewed
from repro.mapreduce import Cluster, FaultPlan, JobAbortedError, RetryPolicy
from repro.mapreduce.executors import make_executor
from repro.observability import MetricsRegistry
from repro.scheduling import JobScheduler
from repro.service import ResolverService
from repro.similarity import citeseer_matcher

MACHINES = 3
KINDS = ("batches", "raw")
BACKENDS = ("serial", "process")
FAULT_PLANS = {
    "clean": None,
    # Crashes + retries + a slow slot, but no speculation: speculative
    # outcomes depend on which lane an attempt landed on, so they are
    # excluded from a counter-equality oracle by design.
    "faulty": FaultPlan(
        seed=99,
        fault_rate=0.15,
        slot_slowdowns={1: 2.0},
        retry=RetryPolicy(),
    ),
}


@pytest.fixture(scope="module")
def dataset():
    return make_skewed(300, seed=5, hub_fraction=0.6)


@pytest.fixture(scope="module")
def rival_dataset():
    return make_skewed(160, seed=11, hub_fraction=0.5)


@pytest.fixture(scope="module")
def cfg():
    return skewed_config(matcher=citeseer_matcher(cache=True))


def _slices(entities, count):
    size = len(entities) // count
    return [entities[i * size:(i + 1) * size] for i in range(count)]


def _service(cfg, *, backend="serial", faults=None, metrics=None):
    return ResolverService(
        cfg,
        machines=MACHINES,
        backend=None if backend == "serial" else backend,
        workers=2 if backend == "process" else None,
        faults=faults,
        metrics=metrics,
    )


def _assert_charged_once(report):
    """Every placed phase is billed to its tenant exactly once."""
    assert sum(t.slot_seconds for t in report.tenants) == pytest.approx(
        sum(report.busy.values())
    )


def _rival_scheduler(cfg, rival_dataset, *, backend="serial"):
    """A fair scheduler already holding a rival tenant's batch stream on
    the interactive lane; returns it with the rival service."""
    scheduler = JobScheduler(machines=MACHINES, policy="fair")
    scheduler.add_tenant("rival", 2.0)
    scheduler.add_tenant("target", 1.0)
    rival = _service(cfg, backend=backend)
    for index, batch in enumerate(_slices(rival_dataset.entities, 3)):
        scheduler.submit_batch(
            rival, batch, tenant="rival", lane="interactive", arrival=float(index)
        )
    return scheduler, rival


@dataclass
class _Outcome:
    """What a run computed (must not depend on sharing) and when each of
    its jobs ended (may only move later)."""

    found: frozenset
    counters: List[dict]
    duplicates: List[List[Any]]
    ends: List[float]


def _job_counters(metrics):
    """Every delta job's counters, from its reduce-phase snapshot, minus
    the executor's own wall-clock statistics."""
    return [
        {name: value for name, value in snap.counters if not name.startswith("driver.")}
        for snap in metrics.snapshots
        if snap.scope.endswith("/reduce")
    ]


def _batch_outcome(service, metrics, receipts):
    return _Outcome(
        found=service.found_pairs,
        counters=_job_counters(metrics),
        duplicates=[sorted(r.pairs) for r in receipts],
        ends=[r.end_time for r in receipts],
    )


def _job_outcome(result):
    duplicates = sorted(e.payload for e in result.events if e.kind == "duplicate")
    return _Outcome(
        found=frozenset(duplicates),
        counters=[result.counters.as_flat_dict()],
        duplicates=[duplicates],
        ends=[result.end_time],
    )


def _run_cell(kind, backend, plan, dataset, rival_dataset, cfg):
    """(solo outcome, scheduled outcome, scheduler report) of one cell."""
    scheduler, _ = _rival_scheduler(cfg, rival_dataset, backend=backend)
    if kind == "batches":
        batches = _slices(dataset.entities, 4)
        solo_metrics = MetricsRegistry()
        solo = _service(cfg, backend=backend, faults=plan, metrics=solo_metrics)
        solo_receipts = [solo.submit(batch) for batch in batches]

        metrics = MetricsRegistry()
        target = _service(cfg, backend=backend, faults=plan, metrics=metrics)
        handles = [
            scheduler.submit_batch(
                target, batch, tenant="target", lane="batch", arrival=0.5 + index
            )
            for index, batch in enumerate(batches)
        ]
        report = scheduler.run()
        return (
            _batch_outcome(solo, solo_metrics, solo_receipts),
            _batch_outcome(target, metrics, [h.result for h in handles]),
            report,
        )
    # A raw job: the delta job resolving the whole dataset at once, alone
    # on a cluster of this backend, then on the scheduler's own cluster.
    def prepared():
        return _service(cfg).prepare(dataset.entities)

    solo_job = prepared()
    solo = Cluster(
        MACHINES, executor=make_executor(backend, 2), faults=plan
    ).run_job(solo_job.job, solo_job.records)
    job = prepared()
    handle = scheduler.submit_job(
        job.job, job.records, tenant="target", lane="batch", arrival=0.5,
        faults=plan, label="target-job",
    )
    report = scheduler.run()
    return _job_outcome(solo), _job_outcome(handle.result), report


@pytest.fixture(scope="module")
def grid(dataset, rival_dataset, cfg):
    """(kind, backend, fault) → (solo, scheduled, report)."""
    return {
        (kind, backend, fault_name): _run_cell(
            kind, backend, plan, dataset, rival_dataset, cfg
        )
        for kind in KINDS
        for backend in BACKENDS
        for fault_name, plan in FAULT_PLANS.items()
    }


class TestIsolationInvariant:
    def test_grid_is_complete(self, grid):
        assert len(grid) == len(KINDS) * len(BACKENDS) * len(FAULT_PLANS)
        for cell, (_, _, report) in grid.items():
            _assert_charged_once(report)
            # The target really shared the pool: some phase waited.
            assert any(
                o.wait_total > 0 for o in report.outcomes if o.tenant == "target"
            ), cell

    def test_found_pairs_identical_to_solo_run(self, grid):
        for cell, (solo, scheduled, _) in grid.items():
            assert solo.found, f"oracle is vacuous in {cell}"
            assert scheduled.found == solo.found, cell

    def test_job_counters_identical_to_solo_run(self, grid):
        """Comparison counts (and every other counter) must not move."""
        for cell, (solo, scheduled, _) in grid.items():
            assert scheduled.counters == solo.counters, cell
            faults = sum(
                value
                for counters in solo.counters
                for name, value in counters.items()
                if name.startswith("fault.")
            )
            assert (faults > 0) == (cell[2] == "faulty"), cell

    def test_duplicate_event_multisets_match_solo(self, grid):
        """Same occurrences; *times* legitimately shift on a shared
        timeline, so order is not part of the invariant."""
        for cell, (solo, scheduled, _) in grid.items():
            assert scheduled.duplicates == solo.duplicates, cell

    def test_scheduling_only_delays_never_shrinks(self, grid):
        """The shared timeline can push work later, never earlier.

        Clean cells only: under a fault plan with a slow slot the
        *makespan* is legitimately placement-dependent — a later start
        can route work away from the straggler lane and finish sooner.
        """
        for cell, (solo, scheduled, _) in grid.items():
            if cell[2] != "clean":
                continue
            assert len(scheduled.ends) == len(solo.ends), cell
            for shared, alone in zip(scheduled.ends, solo.ends):
                assert shared >= alone, cell


class TestServiceIsolation:
    """Two services streaming the same batches side by side both agree
    with one service streaming them alone."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scheduled_batches_match_solo_service(self, backend, dataset, cfg):
        batches = _slices(dataset.entities, 4)
        solo = _service(cfg, backend=backend)
        for batch in batches:
            solo.submit(batch)

        scheduler = JobScheduler(machines=MACHINES, policy="fair")
        target = _service(cfg, backend=backend)
        rival = _service(cfg, backend=backend)
        for index, batch in enumerate(batches):
            scheduler.submit_batch(
                target, batch, tenant="target", arrival=float(index), lane="batch"
            )
            scheduler.submit_batch(
                rival, batch, tenant="rival", arrival=float(index) + 0.5,
                lane="interactive",
            )
        report = scheduler.run()

        assert target.found_pairs == solo.found_pairs
        assert target.total_comparisons == solo.total_comparisons
        # The rival ran the identical stream, so it must agree too.
        assert rival.found_pairs == solo.found_pairs
        assert rival.total_comparisons == solo.total_comparisons
        _assert_charged_once(report)


class TestSnapshotRestoreUnderScheduler:
    """A service restored from a snapshot before :meth:`JobScheduler.run`
    schedules exactly like the service the snapshot was taken from: same
    results for it, and not one virtual timestamp moved for its rival."""

    def _run(self, cfg, dataset, rival_dataset, *, round_trip):
        batches = _slices(dataset.entities[:180], 3)
        target = _service(cfg)
        target.submit(batches[0])
        if round_trip:
            target = ResolverService.restore(
                target.snapshot(), cfg, machines=MACHINES
            )
        scheduler, rival = _rival_scheduler(cfg, rival_dataset)
        for index, batch in enumerate(batches[1:]):
            scheduler.submit_batch(
                target, batch, tenant="target", lane="batch", arrival=0.5 + index
            )
        report = scheduler.run()
        _assert_charged_once(report)
        return report, rival, target

    def test_round_trip_leaks_no_slots_and_rival_clock_is_unperturbed(
        self, cfg, dataset, rival_dataset
    ):
        control_report, control_rival, _ = self._run(
            cfg, dataset, rival_dataset, round_trip=False
        )
        report, rival, _ = self._run(cfg, dataset, rival_dataset, round_trip=True)
        assert rival.clock == control_rival.clock
        assert [
            (r.start_time, r.end_time) for r in rival.receipts
        ] == [(r.start_time, r.end_time) for r in control_rival.receipts]
        assert rival.found_pairs == control_rival.found_pairs
        assert report.decisions == control_report.decisions

    def test_restored_service_matches_uninterrupted_target(
        self, cfg, dataset, rival_dataset
    ):
        _, _, control_target = self._run(
            cfg, dataset, rival_dataset, round_trip=False
        )
        _, _, target = self._run(cfg, dataset, rival_dataset, round_trip=True)
        assert target.found_pairs == control_target.found_pairs
        assert target.total_comparisons == control_target.total_comparisons
        assert [r.end_time for r in target.receipts[-2:]] == [
            r.end_time for r in control_target.receipts[-2:]
        ]


class TestTraceDeterminism:
    """One fixed batch trace ⇒ one schedule, on every backend."""

    def _run_trace(self, backend, dataset, rival_dataset, cfg):
        scheduler = JobScheduler(machines=MACHINES, policy="fair")
        scheduler.add_tenant("a", 2.0)
        scheduler.add_tenant("b", 1.0)
        services = {"a": _service(cfg, backend=backend),
                    "b": _service(cfg, backend=backend)}
        trace = [
            ("a", "interactive", 0.0, rival_dataset.entities[:80]),
            ("b", "batch", 2.0, dataset.entities[:150]),
            ("a", "interactive", 3.0, rival_dataset.entities[80:]),
            ("b", "batch", 3.0, dataset.entities[150:]),
        ]
        for index, (tenant, lane, arrival, batch) in enumerate(trace):
            scheduler.submit_batch(
                services[tenant], batch, tenant=tenant, lane=lane,
                arrival=arrival, label=f"j{index}",
            )
        report = scheduler.run()
        schedule = [
            (d["job"], d["kind"], d["ready"], d["dispatch"])
            for d in report.decisions
        ]
        timings = [
            (o.job, o.started_at, o.finished_at, o.latency, o.slot_seconds)
            for o in report.outcomes
        ]
        return schedule, timings

    def test_schedule_bit_identical_across_backends(
        self, dataset, rival_dataset, cfg
    ):
        serial = self._run_trace("serial", dataset, rival_dataset, cfg)
        process = self._run_trace("process", dataset, rival_dataset, cfg)
        assert serial == process

    def test_schedule_reproducible_within_backend(
        self, dataset, rival_dataset, cfg
    ):
        first = self._run_trace("serial", dataset, rival_dataset, cfg)
        second = self._run_trace("serial", dataset, rival_dataset, cfg)
        assert first == second


class TestScheduledAbort:
    def test_aborted_batch_fails_only_that_batch(self, dataset, rival_dataset, cfg):
        """A delta job that exhausts its retries is thrown into its own
        batch only: ``run()`` names it, chained to the abort, its service
        is exactly as before the batch, and the other tenant completes."""
        batches = _slices(dataset.entities, 3)
        clean = _service(cfg)
        clean.submit(batches[0])
        doomed = ResolverService.restore(
            clean.snapshot(), cfg, machines=MACHINES,
            faults=FaultPlan(seed=3, fault_rate=1.0, retry=RetryPolicy(max_attempts=1)),
        )

        def state(service) -> Tuple[Any, ...]:
            return (service.total_entities, service.clock, service.receipts,
                    service.pairs())

        before = state(doomed)
        scheduler, rival = _rival_scheduler(cfg, rival_dataset)
        failing = scheduler.submit_batch(
            doomed, batches[1], tenant="target", lane="batch", arrival=0.5,
            label="doomed",
        )
        with pytest.raises(
            RuntimeError, match="job 'doomed' \\(tenant 'target'\\) failed"
        ) as caught:
            scheduler.run()
        assert isinstance(caught.value.__cause__, JobAbortedError)
        assert failing.state == "failed"
        assert state(doomed) == before

        solo_rival = _service(cfg)
        for batch in _slices(rival_dataset.entities, 3):
            solo_rival.submit(batch)
        report = scheduler.report()
        rival_outcomes = [o for o in report.outcomes if o.tenant == "rival"]
        assert len(rival_outcomes) == 3
        assert all(o.error is None and o.finished_at is not None
                   for o in rival_outcomes)
        assert rival.found_pairs == solo_rival.found_pairs
        _assert_charged_once(report)
