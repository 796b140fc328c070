"""Cross-backend determinism: serial and process executors must produce
bit-for-bit identical virtual-time results.

The execution backend only decides *where* per-task computations run; the
engine replays the resulting payloads through its slot pool in task-id
order.  These tests pin the contract on paper-shaped workloads: a FIG8-scale
ours-versus-Basic comparison and a small FIG9 scheduler sweep, both seeded,
plus targeted engine-level jobs (word count, failures, empty input).
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation import ExperimentRun, RunSpec, sample_times
from repro.mapreduce import (
    Cluster,
    FaultPlan,
    MapReduceJob,
    Mapper,
    ParallelExecutor,
    Reducer,
    RetryPolicy,
    make_executor,
)

#: Worker count for the process backend in these tests.  Two is enough to
#: exercise real fan-out (pickled payloads, out-of-order completion) while
#: staying cheap on small CI machines.
WORKERS = 2


def job_fingerprint(job):
    """Everything observable about a JobResult, hashable and comparable.

    Event equality alone is not enough — ``Event.payload`` is excluded from
    the dataclass ``__eq__`` — so payloads are compared explicitly.
    """
    return (
        job.start_time,
        job.map_phase_end,
        job.end_time,
        tuple(
            (t.task_id, t.cost, t.start_time, t.end_time)
            for t in job.map_tasks + job.reduce_tasks
        ),
        tuple((e.time, e.kind, repr(e.payload)) for e in job.events),
        tuple(sorted(job.counters.as_dict().items())),
        tuple(
            (f.task_id, f.index, f.close_time, tuple(repr(r) for r in f.records))
            for f in job.output_files
        ),
        tuple(repr(record) for record in job.output),
    )


def run_fingerprint(run):
    """Fingerprint of a CurveRun: all jobs plus the recall-vs-time curve."""
    jobs = run.result.jobs
    times = sample_times(run.total_time, points=25)
    curve = tuple(run.curve.recall_at(t) for t in times)
    return tuple(job_fingerprint(job) for job in jobs), curve, run.total_time


class TestPaperWorkloadParity:
    def test_fig8_scale_progressive_parity(self, citeseer_small, citeseer_cfg):
        serial = ExperimentRun(
            RunSpec(citeseer_small, citeseer_cfg, machines=10, backend="serial")
        ).run()
        process = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg, machines=10,
                backend="process", workers=WORKERS,
            )
        ).run()
        assert run_fingerprint(serial) == run_fingerprint(process)
        for run in (serial, process):
            jobs = (run.result.job1, run.result.job2)
            tasks = [t for job in jobs for t in job.map_tasks + job.reduce_tasks]
            assert tasks and all(task.wall_ns > 0 for task in tasks)

    def test_fig8_scale_basic_parity(self, citeseer_small, basic_cfg):
        serial = ExperimentRun(
            RunSpec(citeseer_small, basic_cfg, machines=10, backend="serial")
        ).run()
        process = ExperimentRun(
            RunSpec(
                citeseer_small, basic_cfg, machines=10,
                backend="process", workers=WORKERS,
            )
        ).run()
        assert run_fingerprint(serial) == run_fingerprint(process)

    @pytest.mark.parametrize("strategy", ["nosplit", "lpt"])
    def test_fig9_small_scheduler_parity(self, citeseer_small, citeseer_cfg, strategy):
        serial = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg, machines=6,
                strategy=strategy, backend="serial",
            )
        ).run()
        process = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg, machines=6,
                strategy=strategy, backend="process", workers=WORKERS,
            )
        ).run()
        assert run_fingerprint(serial) == run_fingerprint(process)


# ---------------------------------------------------------------------------
# Engine-level parity on synthetic jobs
# ---------------------------------------------------------------------------


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(0.5 * len(values))
        context.record_event("group", key)
        context.write((key, sum(values)))


_LINES = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks",
    "",
    "fox fox fox",
] * 4


def _wordcount_job():
    return MapReduceJob(_WordMapper, _SumReducer, alpha=1.0)


class TestEngineParity:
    def test_wordcount_parity(self):
        serial = Cluster(3).run_job(_wordcount_job(), _LINES)
        process = Cluster(3, executor=ParallelExecutor(WORKERS)).run_job(
            _wordcount_job(), _LINES
        )
        assert job_fingerprint(serial) == job_fingerprint(process)

    def test_failure_injection_parity(self):
        # Seed 2 crashes attempt 0 of map task 0 and of reduce task 0.
        plan = FaultPlan(seed=2, fault_rate=0.3)
        serial = Cluster(2, faults=plan).run_job(_wordcount_job(), _LINES)
        process = Cluster(
            2, executor=ParallelExecutor(WORKERS), faults=plan
        ).run_job(_wordcount_job(), _LINES)
        assert serial.counters.get("fault", "map_failed_attempts") >= 1
        assert serial.counters.get("fault", "reduce_failed_attempts") >= 1
        assert job_fingerprint(serial) == job_fingerprint(process)

    def test_empty_input_parity(self):
        serial = Cluster(2).run_job(_wordcount_job(), [])
        process = Cluster(2, executor=ParallelExecutor(WORKERS)).run_job(
            _wordcount_job(), []
        )
        assert job_fingerprint(serial) == job_fingerprint(process)


class TestFaultParity:
    """Seeded fault plans decide everything in the driver, so they cannot
    distinguish backends — faulty runs stay bit-identical."""

    #: Crashes + retries with backoff.
    PLAN = FaultPlan(
        seed=11,
        fault_rate=0.25,
        retry=RetryPolicy(max_attempts=50, backoff_base=0.25),
    )

    def test_wordcount_fault_parity(self):
        serial = Cluster(2, faults=self.PLAN).run_job(_wordcount_job(), _LINES)
        process = Cluster(
            2, executor=ParallelExecutor(WORKERS), faults=self.PLAN
        ).run_job(_wordcount_job(), _LINES)
        assert job_fingerprint(serial) == job_fingerprint(process)

    def test_progressive_pipeline_fault_parity(self, citeseer_small, citeseer_cfg):
        plan = FaultPlan(
            seed=5, fault_rate=0.1, retry=RetryPolicy(max_attempts=50)
        )
        serial = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg, machines=6,
                backend="serial", faults=plan,
            )
        ).run()
        process = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg, machines=6,
                backend="process", workers=WORKERS, faults=plan,
            )
        ).run()
        assert run_fingerprint(serial) == run_fingerprint(process)

    def test_zero_rate_plan_reproduces_clean_run(self, citeseer_small, citeseer_cfg):
        clean = ExperimentRun(
            RunSpec(citeseer_small, citeseer_cfg, machines=6)
        ).run()
        zeroed = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg, machines=6,
                faults=FaultPlan(seed=99),
            )
        ).run()
        assert run_fingerprint(clean) == run_fingerprint(zeroed)


class TestExecutorApi:
    def test_make_executor_names(self, monkeypatch):
        assert make_executor("serial").name == "serial"
        assert make_executor("process", 3).name == "process"
        assert make_executor("process", 3).workers == 3
        # With no count: one worker per CPU the affinity mask allows, not
        # per CPU installed.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert ParallelExecutor().workers == 2

    def test_make_executor_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            make_executor("threads")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_single_worker_degrades_in_process(self):
        # One worker cannot beat in-process execution; results are identical.
        serial = Cluster(2).run_job(_wordcount_job(), _LINES)
        degraded = Cluster(2, executor=ParallelExecutor(1)).run_job(
            _wordcount_job(), _LINES
        )
        assert job_fingerprint(serial) == job_fingerprint(degraded)
