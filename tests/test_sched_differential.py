"""Differential oracle for the multi-tenant scheduler.

The isolation invariant: running a job *through the shared scheduler* —
interleaved with another tenant's work on the same slot pool — must
produce the identical found-pair set and identical job counters
(comparisons included) as running the same job *alone* on a private
cluster.  Sharing changes only when phases start, never what they
compute, because task payloads are computed before placement and fault
decisions key on task ids and attempt ordinals, not on absolute times.

The oracle runs the grid backend × balance × fault (serial/process ×
slack/blocksplit × clean/faulty).  The faulty plan injects crashes,
retries and a straggler slot but **no speculation**: speculative
kill/win accounting is legitimately placement-dependent (a busier
timeline changes which attempt finishes first), so it is exercised by
the fault suite, not by this counter-equality oracle.

The second guarantee pinned here is trace determinism: one fixed
arrival trace replayed on the serial and process backends yields
bit-identical decision logs, virtual start/finish times and latencies.
"""

from __future__ import annotations

import pytest

from repro.core import skewed_config
from repro.data.skewed import make_skewed
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import FaultPlan, RetryPolicy
from repro.scheduling import JobScheduler
from repro.service import ResolverService
from repro.similarity import citeseer_matcher

MACHINES = 3
BACKENDS = ("serial", "process")
BALANCES = ("slack", "blocksplit")
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


def _spec(dataset, cfg, *, backend, balance, faults, label):
    return RunSpec(
        dataset,
        cfg,
        machines=MACHINES,
        balance=balance,
        backend=None if backend == "serial" else backend,
        workers=2 if backend == "process" else None,
        faults=faults,
        label=label,
    )


def _assert_charged_once(report):
    """Every placed phase is billed to its tenant exactly once."""
    assert sum(t.slot_seconds for t in report.tenants) == pytest.approx(
        sum(report.busy.values())
    )


def _job_counters(run_result):
    """Both jobs' full counter dicts — comparisons, retries, everything."""
    result = run_result.result
    return (
        result.job1.counters.as_flat_dict(),
        result.job2.counters.as_flat_dict(),
    )


@pytest.fixture(scope="module")
def grid(dataset, rival_dataset, cfg):
    """(backend, balance, fault) → (solo RunResult, scheduled RunResult)."""
    cells = {}
    for backend in BACKENDS:
        for balance in BALANCES:
            for fault_name, plan in FAULT_PLANS.items():
                solo = ExperimentRun(
                    _spec(dataset, cfg, backend=backend, balance=balance,
                          faults=plan, label="solo")
                ).run()

                scheduler = JobScheduler(machines=MACHINES, policy="fair")
                scheduler.add_tenant("rival", 2.0)
                scheduler.add_tenant("target", 1.0)
                scheduler.submit_spec(
                    _spec(rival_dataset, cfg, backend=backend, balance=balance,
                          faults=None, label="rival"),
                    tenant="rival",
                    lane="interactive",
                    arrival=0.0,
                )
                handle = scheduler.submit_spec(
                    _spec(dataset, cfg, backend=backend, balance=balance,
                          faults=plan, label="target"),
                    tenant="target",
                    lane="batch",
                    arrival=1.0,
                )
                scheduler.run()
                cells[(backend, balance, fault_name)] = (solo, handle.result)
    return cells


class TestIsolationInvariant:
    def test_grid_is_complete(self, grid):
        assert len(grid) == len(BACKENDS) * len(BALANCES) * len(FAULT_PLANS)

    def test_found_pairs_identical_to_solo_run(self, grid):
        for cell, (solo, scheduled) in grid.items():
            assert solo.found_pairs, f"oracle is vacuous in {cell}"
            assert scheduled.found_pairs == solo.found_pairs, cell

    def test_job_counters_identical_to_solo_run(self, grid):
        """Comparison counts (and every other counter) must not move."""
        for cell, (solo, scheduled) in grid.items():
            assert _job_counters(scheduled) == _job_counters(solo), cell

    def test_duplicate_event_multisets_match_solo(self, grid):
        """Same occurrences; *times* legitimately shift on a shared
        timeline, so order is not part of the invariant."""
        for cell, (solo, scheduled) in grid.items():
            solo_pairs = sorted(e.payload for e in solo.duplicate_events)
            sched_pairs = sorted(e.payload for e in scheduled.duplicate_events)
            assert sched_pairs == solo_pairs, cell

    def test_scheduling_only_delays_never_shrinks(self, grid):
        """The shared timeline can push work later, never earlier.

        Clean cells only: under a fault plan with a slow slot the
        *makespan* is legitimately placement-dependent — a later start
        can route work away from the straggler lane and finish sooner.
        """
        for cell, (solo, scheduled) in grid.items():
            if cell[2] != "clean":
                continue
            assert scheduled.total_time >= solo.total_time, cell


class TestServiceIsolation:
    """The same invariant for ResolverService batches."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_scheduled_batches_match_solo_service(self, backend, dataset, cfg):
        batches = [dataset.entities[i * 75:(i + 1) * 75] for i in range(4)]
        kwargs = dict(
            machines=MACHINES,
            backend=None if backend == "serial" else backend,
            workers=2 if backend == "process" else None,
        )
        solo = ResolverService(cfg, **kwargs)
        for batch in batches:
            solo.submit(batch)

        scheduler = JobScheduler(machines=MACHINES, policy="fair")
        target = ResolverService(
            cfg, scheduler=scheduler, tenant="target", **kwargs
        )
        rival = ResolverService(
            cfg, scheduler=scheduler, tenant="rival", **kwargs
        )
        for index, batch in enumerate(batches):
            scheduler.submit_batch(
                target, batch, arrival=float(index), lane="batch"
            )
            scheduler.submit_batch(
                rival, batch, arrival=float(index) + 0.5, lane="interactive"
            )
        report = scheduler.run()

        assert target.found_pairs == solo.found_pairs
        assert target.total_comparisons == solo.total_comparisons
        # The rival ran the identical stream, so it must agree too.
        assert rival.found_pairs == solo.found_pairs
        assert rival.total_comparisons == solo.total_comparisons
        _assert_charged_once(report)


class TestSnapshotRestoreUnderScheduler:
    """Regression: a snapshot/restore round-trip while the shared pool is
    live (another tenant mid-stream) must not leak slots, and must leave
    the other tenant's virtual clock exactly where it would have been had
    the round-trip never happened."""

    def _rival_batches(self, rival_dataset):
        return [rival_dataset.entities[i * 40:(i + 1) * 40] for i in range(3)]

    def _run_rival(self, cfg, rival_dataset, *, interrupt):
        """Drive a rival tenant through a shared scheduler; optionally
        snapshot/restore a target tenant between the rival's batches."""
        scheduler = JobScheduler(machines=MACHINES, policy="fair")
        rival = ResolverService(
            cfg, machines=MACHINES, scheduler=scheduler, tenant="rival"
        )
        target = ResolverService(
            cfg, machines=MACHINES, scheduler=scheduler, tenant="target"
        )
        batches = self._rival_batches(rival_dataset)
        rival.submit(batches[0])
        target.submit(batches[0])
        if interrupt:
            # Round-trip the target while the rival is mid-stream.
            snap = target.snapshot()
            target = ResolverService.restore(
                snap, cfg, machines=MACHINES,
                scheduler=scheduler, tenant="target",
            )
        rival.submit(batches[1])
        target.submit(batches[1])
        rival.submit(batches[2])
        return scheduler, rival, target

    def test_round_trip_leaks_no_slots_and_rival_clock_is_unperturbed(
        self, cfg, rival_dataset
    ):
        control_sched, control_rival, control_target = self._run_rival(
            cfg, rival_dataset, interrupt=False
        )
        sched, rival, target = self._run_rival(
            cfg, rival_dataset, interrupt=True
        )

        _assert_charged_once(sched.report())
        _assert_charged_once(control_sched.report())
        # The other tenant never notices the round-trip: same clock, same
        # batch timings, same results.
        assert rival.clock == control_rival.clock
        assert [
            (r.start_time, r.end_time) for r in rival.receipts
        ] == [(r.start_time, r.end_time) for r in control_rival.receipts]
        assert rival.found_pairs == control_rival.found_pairs

    def test_restored_service_matches_uninterrupted_target(
        self, cfg, rival_dataset
    ):
        _, _, control_target = self._run_rival(
            cfg, rival_dataset, interrupt=False
        )
        _, _, target = self._run_rival(cfg, rival_dataset, interrupt=True)
        assert target.found_pairs == control_target.found_pairs
        assert target.total_comparisons == control_target.total_comparisons


class TestTraceDeterminism:
    """One fixed arrival trace ⇒ one schedule, on every backend."""

    def _run_trace(self, backend, dataset, rival_dataset, cfg):
        scheduler = JobScheduler(machines=MACHINES, policy="fair")
        scheduler.add_tenant("a", 2.0)
        scheduler.add_tenant("b", 1.0)
        specs = [
            (rival_dataset, "a", "interactive", 0.0, "j0"),
            (dataset, "b", "batch", 2.0, "j1"),
            (rival_dataset, "b", "batch", 3.0, "j2"),
        ]
        for ds, tenant, lane, arrival, label in specs:
            scheduler.submit_spec(
                _spec(ds, cfg, backend=backend, balance="slack",
                      faults=None, label=label),
                tenant=tenant, lane=lane, arrival=arrival,
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
