"""Tracing is a pure observer: attaching a Tracer/MetricsRegistry must not
perturb virtual time.

The contract (see ``repro.observability.tracing``): events, counters,
output files and recall curves are bit-for-bit identical with and without
observability attached, on every execution backend — and the serial and
process backends emit the *same set* of spans, because in-task span
fragments travel inside the task payloads and are rebased by the engine.

Workloads mirror ``tests/test_executor_parity.py``: a FIG8-scale
progressive run and the Basic baseline on citeseer data.
"""

from __future__ import annotations

import pytest

from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import (
    Cluster,
    FaultPlan,
    ParallelExecutor,
    RetryPolicy,
)
from repro.observability import MetricsRegistry, Tracer

from test_executor_parity import (
    _LINES,
    WORKERS,
    _wordcount_job,
    job_fingerprint,
    run_fingerprint,
)


def _run(dataset, config, *, backend, tracer=None, metrics=None, machines=10):
    spec = RunSpec(
        dataset,
        config,
        machines=machines,
        backend=backend,
        workers=WORKERS,
        tracer=tracer,
        metrics=metrics,
    )
    return ExperimentRun(spec).run()


class TestTracingDoesNotPerturbVirtualTime:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_progressive_traced_equals_untraced(
        self, citeseer_small, citeseer_cfg, backend
    ):
        plain = _run(citeseer_small, citeseer_cfg, backend=backend)
        traced = _run(
            citeseer_small,
            citeseer_cfg,
            backend=backend,
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )
        assert run_fingerprint(plain) == run_fingerprint(traced)
        assert len(traced.tracer.spans) > 0
        assert len(traced.metrics) > 0

    def test_basic_traced_equals_untraced(self, citeseer_small, basic_cfg):
        plain = _run(citeseer_small, basic_cfg, backend="serial")
        traced = _run(
            citeseer_small,
            basic_cfg,
            backend="serial",
            tracer=Tracer(),
            metrics=MetricsRegistry(),
        )
        assert run_fingerprint(plain) == run_fingerprint(traced)
        assert len(traced.tracer.spans) > 0


class TestCrossBackendTraceParity:
    def test_progressive_span_sets_identical(self, citeseer_small, citeseer_cfg):
        serial = _run(
            citeseer_small, citeseer_cfg, backend="serial", tracer=Tracer()
        )
        process = _run(
            citeseer_small,
            citeseer_cfg,
            backend="process",
            tracer=Tracer(),
        )
        assert serial.tracer.span_set() == process.tracer.span_set()
        assert len(serial.tracer.spans) == len(process.tracer.spans)
        assert set(serial.tracer.instants) == set(process.tracer.instants)

    def test_basic_span_sets_identical(self, citeseer_small, basic_cfg):
        serial = _run(
            citeseer_small, basic_cfg, backend="serial", tracer=Tracer()
        )
        process = _run(
            citeseer_small,
            basic_cfg,
            backend="process",
            tracer=Tracer(),
        )
        assert serial.tracer.span_set() == process.tracer.span_set()


class TestFaultTraceParity:
    """Fault-injected traces obey the same contracts as clean ones: the
    tracer never perturbs virtual time, both backends emit identical span
    sets, and an inert plan's trace is byte-identical to no plan."""

    PLAN = FaultPlan(
        seed=11,
        fault_rate=0.25,
        retry=RetryPolicy(max_attempts=50, backoff_base=0.25),
    )

    def _spans(self, faults, executor=None):
        tracer = Tracer()
        result = Cluster(
            2, tracer=tracer, faults=faults, executor=executor
        ).run_job(_wordcount_job(), _LINES)
        return tracer, result

    def test_fault_span_sets_identical_across_backends(self):
        serial, _ = self._spans(self.PLAN)
        process, _ = self._spans(self.PLAN, ParallelExecutor(WORKERS))
        assert serial.span_set() == process.span_set()
        assert set(serial.instants) == set(process.instants)

    def test_inert_plan_trace_is_byte_identical(self):
        clean, _ = self._spans(None)
        inert, _ = self._spans(FaultPlan(seed=123))
        assert clean.span_set() == inert.span_set()

    def test_tracing_does_not_perturb_faulty_virtual_time(self):
        _, traced = self._spans(self.PLAN)
        untraced = Cluster(2, faults=self.PLAN).run_job(
            _wordcount_job(), _LINES
        )
        assert job_fingerprint(traced) == job_fingerprint(untraced)

    def test_fault_attempt_spans_annotated(self):
        tracer, result = self._spans(self.PLAN)
        attempts = [s for s in tracer.spans if s.category == "attempt"]
        assert attempts, "the pinned plan must produce extra attempts"
        for span in attempts:
            assert span.arg("failed")
        flat = result.counters.as_flat_dict()
        assert len(attempts) == flat.get("fault.map_failed_attempts", 0) + flat.get(
            "fault.reduce_failed_attempts", 0
        )

    def test_retried_winner_flagged_on_task_span(self):
        tracer, result = self._spans(self.PLAN)
        retried_spans = sorted(
            (s.arg("phase"), s.arg("task"), s.arg("attempt"))
            for s in tracer.spans
            if s.category == "task" and s.arg("attempt")
        )
        retried_results = sorted(
            (phase, t.task_id, t.num_failed_attempts)
            for phase, tasks in (("map", result.map_tasks), ("reduce", result.reduce_tasks))
            for t in tasks
            if t.num_failed_attempts
        )
        assert retried_spans == retried_results != []


class TestSpanCoverage:
    """The recorded hierarchy covers both jobs of the progressive pipeline."""

    @pytest.fixture(scope="class")
    def traced(self, citeseer_small, shared_citeseer_matcher):
        from repro.core import citeseer_config

        tracer = Tracer()
        run = _run(
            citeseer_small,
            citeseer_config(matcher=shared_citeseer_matcher),
            backend="serial",
            tracer=tracer,
            machines=3,
        )
        return run, tracer

    def test_both_jobs_present(self, traced):
        _, tracer = traced
        jobs = {job for _, job in tracer.jobs()}
        assert jobs == {"progressive-blocking-statistics", "progressive-resolution"}

    def test_every_clean_run_category_recorded(self, traced):
        _, tracer = traced
        categories = {s.category for s in tracer.spans}
        assert {"job", "phase", "task", "block", "setup"} <= categories

    def test_failed_attempts_get_attempt_spans(self):
        from repro.mapreduce import Cluster, FaultPlan, MapReduceJob, Mapper, Reducer

        class Identity(Mapper):
            def map(self, record, context):
                context.emit(record, 1)

        class Count(Reducer):
            def reduce(self, key, values, context):
                context.charge(1.0)
                context.write((key, len(values)))

        tracer = Tracer()
        # Seed 28 crashes map task 0 twice and no other attempt.
        Cluster(1, tracer=tracer, faults=FaultPlan(seed=28, fault_rate=0.5)).run_job(
            MapReduceJob(Identity, Count, name="retry-job"), ["a", "b"]
        )
        attempts = [s for s in tracer.spans if s.category == "attempt"]
        assert len(attempts) == 2
        assert all(s.arg("failed") for s in attempts)
        # Failed attempts precede the successful task span on the same slot.
        task = next(
            s for s in tracer.spans if s.category == "task" and s.arg("task") == 0
            and s.arg("phase") == "map"
        )
        assert all(a.end <= task.start + 1e-9 for a in attempts)

    def test_schedule_generation_charged_in_map_setup(self, traced):
        run, tracer = traced
        label = run.label
        setups = tracer.spans_of(label, "progressive-resolution", category="setup")
        assert setups, "expected schedule-generation setup spans"
        generation = run.result.schedule.generation_cost
        for span in setups:
            assert span.name == "schedule-generation"
            assert span.duration == pytest.approx(generation)

    def test_block_spans_report_duplicates(self, traced):
        run, tracer = traced
        blocks = tracer.spans_of(run.label, "progressive-resolution", category="block")
        assert blocks
        assert sum(s.arg("duplicates", 0) for s in blocks) == len(run.found_pairs)

    def test_spans_lie_inside_their_job(self, traced):
        run, tracer = traced
        for run_label, job in tracer.jobs():
            spans = tracer.spans_of(run_label, job)
            job_span = next(s for s in spans if s.category == "job")
            for span in spans:
                assert span.start >= job_span.start - 1e-9
                assert span.end <= job_span.end + 1e-9
