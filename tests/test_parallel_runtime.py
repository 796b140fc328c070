"""The parallel runtime's plumbing: wire format, one fork-context
pool per fanned-out phase, the adaptive serial floor, worker failures, and
backend-invariant phase metrics.

Cross-backend *result* parity lives in ``test_executor_parity.py``; these
tests pin the mechanisms around it — the payload encoding must be lossless
and compact, a job must fork one pool per fanned-out phase and leave
neither a child process nor the phase global behind, small phases must
stay in-process, a task that raises or a worker that dies must end in
an error (never a hang) with the executor still usable, and phase
metrics must not depend on the backend beyond what the executor measured,
and importing the package must not load the pool's modules.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager

import pytest

from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import (
    Cluster,
    Counters,
    MapReduceJob,
    Mapper,
    ParallelExecutor,
    Reducer,
)
from repro.mapreduce import executors, wire
from repro.mapreduce.executors import MapTaskPayload, ReduceTaskPayload
from repro.mapreduce.types import Event, OutputFile, SpanFragment
from repro.observability import MetricsRegistry, format_perf_report

from test_executor_parity import job_fingerprint


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def _sample_map_payload() -> MapTaskPayload:
    counters = Counters()
    counters.increment("engine", "map_records", 7)
    return MapTaskPayload(
        task_id=3,
        cost=12.5,
        events=[Event(time=1.0, kind="emit", payload={"key": "a", "n": 1})],
        emitted=[("alpha", 1), ("beta", 2)],
        counters=counters,
        num_records=7,
        spans=[SpanFragment(name="map[3]", category="task", start=0.0, end=12.5, args=(("phase", "map"),))],
    )


def _empty_map_payload(emitted) -> MapTaskPayload:
    """A payload that is all ``emitted``: the vehicle for the blob-level
    (flag byte, compression) behaviour of the encoding."""
    return MapTaskPayload(
        task_id=0, cost=0.0, events=[], emitted=emitted,
        counters=Counters(), num_records=0,
    )


def _sample_reduce_payload() -> ReduceTaskPayload:
    counters = Counters()
    counters.increment("engine", "reduce_groups", 2)
    return ReduceTaskPayload(
        task_id=1,
        cost=9.25,
        events=[Event(time=0.5, kind="group", payload="alpha")],
        written=[("alpha", 3), ("beta", 2)],
        files=[OutputFile(task_id=1, index=0, close_time=9.25, records=(("alpha", 3),))],
        counters=counters,
        num_groups=2,
        num_records=5,
        spans=[],
    )


def _payload_fields(payload) -> tuple:
    return (
        payload.task_id,
        payload.cost,
        [(e.time, e.kind, repr(e.payload)) for e in payload.events],
        payload.counters.as_dict(),
        payload.num_records,
        payload.spans,
    )


class TestWireFormat:
    def test_map_payload_round_trip(self):
        payload = _sample_map_payload()
        decoded = wire.decode_map_payload(wire.encode_map_payload(payload))
        assert _payload_fields(decoded) == _payload_fields(payload)
        assert decoded.emitted == payload.emitted

    def test_reduce_payload_round_trip(self):
        payload = _sample_reduce_payload()
        decoded = wire.decode_reduce_payload(wire.encode_reduce_payload(payload))
        assert _payload_fields(decoded) == _payload_fields(payload)
        assert decoded.written == payload.written
        assert decoded.files == payload.files
        assert decoded.num_groups == payload.num_groups

    def test_zlib_only_when_smaller(self):
        compressible = _empty_map_payload([("k", "v" * 4096)])
        assert wire.encode_map_payload(compressible)[:1] == b"\x01"
        # Random bytes do not compress: the raw pickle is kept.
        noise = _empty_map_payload([("k", os.urandom(1 << 20))])
        blob = wire.encode_map_payload(noise)
        assert blob[:1] == b"\x00"
        assert len(blob) == 1 + len(pickle.dumps(noise, pickle.HIGHEST_PROTOCOL))
        assert wire.decode_map_payload(blob).emitted == noise.emitted

    def test_redundant_payloads_compress(self):
        # ER payloads repeat attribute text constantly; zlib must engage
        # and beat the plain pickle by a wide margin.
        records = [("the same blocking key", "the same attribute value")] * 500
        blob = wire.encode_map_payload(_empty_map_payload(records))
        raw = len(pickle.dumps(tuple(records)))
        assert blob[:1] == b"\x01"
        assert len(blob) * 3 < raw

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError):
            wire.decode_map_payload(b"\x7fgarbage")

    def test_raw_pickle_size_is_plain_pickle(self):
        payload = _sample_map_payload()
        assert wire.raw_pickle_size(payload) == len(pickle.dumps(payload))


# ---------------------------------------------------------------------------
# Pool lifecycle / serial floor / worker failures
# ---------------------------------------------------------------------------


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(0.5 * len(values))
        context.write((key, sum(values)))


_LINES = ["alpha beta gamma delta"] * 64


def _job():
    return MapReduceJob(_WordMapper, _SumReducer, alpha=1.0)


def _driver_totals(snapshots):
    """The executor's ``driver.*`` statistics summed over phase
    ``snapshots``, by bare name."""
    totals = {}
    for snapshot in snapshots:
        for name, value in snapshot.counters:
            if name.startswith("driver."):
                name = name[len("driver."):]
                totals[name] = totals.get(name, 0) + value
    return totals


@pytest.fixture
def fan_out_always(monkeypatch):
    """Every phase with two tasks or more fans out, however cheap."""
    monkeypatch.setattr(executors, "DEFAULT_SERIAL_FLOOR", 0.0)


@pytest.fixture
def fan_out_never(monkeypatch):
    """Every phase stays below the serial floor and runs inline."""
    monkeypatch.setattr(executors, "DEFAULT_SERIAL_FLOOR", 1e9)


def _assert_nothing_left_behind():
    """What every ``run_job`` must leave, returning or raising."""
    assert executors._ACTIVE_PHASE is None
    assert multiprocessing.active_children() == []


class TestPoolLifecycle:
    def test_forced_fan_out_matches_serial(self, fan_out_always):
        serial = Cluster(3).run_job(_job(), _LINES)
        metrics = MetricsRegistry()
        executor = ParallelExecutor(2)
        parallel = Cluster(3, executor=executor, metrics=metrics).run_job(_job(), _LINES)
        assert job_fingerprint(serial) == job_fingerprint(parallel)
        stats = _driver_totals(metrics.snapshots)
        assert stats["pool_forks"] == 2  # map + reduce
        assert stats["tasks_fanned"] > 0
        assert stats.get("tasks_inline", 0) == 0
        assert stats["ipc_bytes"] > 0
        assert stats.get("worker_idle_ms", 0) >= 0
        _assert_nothing_left_behind()

    def test_one_fork_per_fanned_out_phase(self, fan_out_always):
        metrics = MetricsRegistry()
        executor = ParallelExecutor(2)
        cluster = Cluster(3, executor=executor, metrics=metrics)
        jobs = 3
        for _ in range(jobs):
            cluster.run_job(_job(), _LINES)
        assert _driver_totals(metrics.snapshots)["pool_forks"] == 2 * jobs
        # A phase with a single task stays inline and forks nothing.
        cluster.run_job(_job(), _LINES, num_reduce_tasks=1)
        assert _driver_totals(metrics.snapshots)["pool_forks"] == 2 * jobs + 1
        _assert_nothing_left_behind()

    def test_serial_floor_keeps_small_phases_inline(self, fan_out_never):
        metrics = MetricsRegistry()
        executor = ParallelExecutor(2)
        serial = Cluster(3).run_job(_job(), _LINES)
        inline = Cluster(3, executor=executor, metrics=metrics).run_job(_job(), _LINES)
        assert job_fingerprint(serial) == job_fingerprint(inline)
        stats = _driver_totals(metrics.snapshots)
        assert stats.get("pool_forks", 0) == 0
        assert stats.get("tasks_fanned", 0) == 0
        assert stats["tasks_inline"] > 0

    def test_below_floor_job_never_forks(self, fan_out_never):
        metrics = MetricsRegistry()
        executor = ParallelExecutor(2)
        Cluster(2, executor=executor, metrics=metrics).run_job(_job(), _LINES[:4])
        assert _driver_totals(metrics.snapshots).get("pool_forks", 0) == 0

    def test_drain_stats_resets_phase_window(self, fan_out_always):
        metrics = MetricsRegistry()
        executor = ParallelExecutor(2)
        Cluster(3, executor=executor, metrics=metrics).run_job(_job(), _LINES)
        # The engine drained every phase into the registry.
        assert executor.drain_stats() == {}
        assert _driver_totals(metrics.snapshots)["pool_forks"] == 2

    def test_import_loads_no_pool_machinery(self):
        # The pool's modules are imported on the first fan-out, so
        # ``import repro`` (and every serial run) loads neither.
        probe = (
            "import sys, repro\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, env=env, timeout=60,
        )
        assert done.stdout == "[]\n"


_DRIVER_PID = os.getpid()


class _FailingReducer(_SumReducer):
    """Fails on the key ``gamma``: dies by SIGKILL, or raises."""

    kill = False

    def reduce(self, key, values, context):
        if key == "gamma":
            # A SIGKILL must never reach the process running pytest.
            assert os.getpid() != _DRIVER_PID, "reduce task ran in the driver"
            if self.kill:
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError("boom on gamma")
        super().reduce(key, values, context)


class _KilledReducer(_FailingReducer):
    kill = True


@contextmanager
def _deadline(seconds: int):
    """Turn a hang into a failure: ``TimeoutError`` after ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _shm_listing():
    return sorted(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else []


class TestWorkerFailures:
    def test_killed_worker_is_an_error_not_a_hang(self, fan_out_always):
        serial = Cluster(3).run_job(_job(), _LINES)
        executor = ParallelExecutor(2)
        cluster = Cluster(3, executor=executor)
        shm_before = _shm_listing()
        with _deadline(10):
            with pytest.raises(RuntimeError, match="parallel worker.* failed") as caught:
                cluster.run_job(MapReduceJob(_WordMapper, _KilledReducer, alpha=1.0), _LINES)
        assert isinstance(caught.value.__cause__, BrokenProcessPool)
        _assert_nothing_left_behind()
        assert _shm_listing() == shm_before
        # The same executor runs the next job as if nothing had happened.
        with _deadline(10):
            clean = cluster.run_job(_job(), _LINES)
        assert job_fingerprint(clean) == job_fingerprint(serial)
        _assert_nothing_left_behind()

    def test_worker_death_during_submission_is_the_same_error(
        self, fan_out_always, monkeypatch
    ):
        # A worker can die while tasks are still being submitted; the pool
        # then refuses the next submit instead of failing a future.
        from concurrent.futures import ProcessPoolExecutor

        submit = ProcessPoolExecutor.submit
        calls = []

        def breaking(pool, *args):
            calls.append(args)
            if len(calls) == 2:
                raise BrokenProcessPool("a child process terminated abruptly")
            return submit(pool, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking)
        cluster = Cluster(3, executor=ParallelExecutor(2))
        with _deadline(10):
            with pytest.raises(RuntimeError, match="parallel worker.* failed") as caught:
                cluster.run_job(_job(), _LINES)
        assert isinstance(caught.value.__cause__, BrokenProcessPool)
        _assert_nothing_left_behind()

    def test_task_exception_names_task_and_carries_worker_traceback(self, fan_out_always):
        serial = Cluster(3).run_job(_job(), _LINES)
        task_id = next(
            t.task_id for t in serial.reduce_tasks
            if any(key == "gamma" for key, _ in t.output)
        )
        cluster = Cluster(3, executor=ParallelExecutor(2))
        with _deadline(10):
            with pytest.raises(RuntimeError) as caught:
                cluster.run_job(
                    MapReduceJob(_WordMapper, _FailingReducer, alpha=1.0), _LINES
                )
        message = str(caught.value)
        assert re.search(rf"parallel worker.* failed on task {task_id}:", message)
        assert "Traceback (most recent call last)" in message
        assert "in reduce" in message and "ValueError: boom on gamma" in message
        assert isinstance(caught.value.__cause__, ValueError)
        _assert_nothing_left_behind()
        with _deadline(10):
            clean = cluster.run_job(_job(), _LINES)
        assert job_fingerprint(clean) == job_fingerprint(serial)
        _assert_nothing_left_behind()


# ---------------------------------------------------------------------------
# Driver metrics
# ---------------------------------------------------------------------------


class TestDriverMetrics:
    def test_phase_metrics_are_backend_invariant(self, fan_out_always, citeseer_small):
        # Tasks share no process state, so apart from what the executor
        # itself measured (its `driver.*` wall-clock/IPC statistics) every
        # phase snapshot is a pure function of the run.  A fresh (uncached)
        # matcher per run keeps a pair cache from spanning the two.
        def snapshots(backend):
            metrics = MetricsRegistry()
            ExperimentRun(
                RunSpec(
                    citeseer_small, citeseer_config(), machines=4,
                    backend=backend, workers=2, metrics=metrics,
                )
            ).run()
            return metrics.snapshots

        serial = snapshots("serial")
        parallel = snapshots("process")
        totals = _driver_totals(parallel)
        assert totals["pool_forks"] > 0
        measured = {f"driver.{name}" for name in totals}

        def observed(snaps):
            return [
                (s.scope, {k: v for k, v in s.counters if k not in measured})
                for s in snaps
            ]

        assert [s.scope for s in serial if s.scope.endswith("/reduce")]
        assert observed(parallel) == observed(serial)

    def test_phase_snapshots_carry_driver_counters_and_wall(self, fan_out_always):
        metrics = MetricsRegistry()
        executor = ParallelExecutor(2)
        cluster = Cluster(3, executor=executor, metrics=metrics)
        cluster.run_job(_job(), _LINES)
        by_scope = {s.scope: s for s in metrics.snapshots}
        map_snap = by_scope["job/map"]
        reduce_snap = by_scope["job/reduce"]
        assert map_snap.get("driver.tasks_fanned") > 0
        assert map_snap.get("driver.pool_forks") == 1
        assert reduce_snap.get("driver.ipc_bytes") > 0
        for snap in (map_snap, reduce_snap):
            extra = dict(snap.extra)
            assert extra["backend"] == "process"
            assert extra["wall_seconds"] >= 0.0

    def test_perf_report_renders_phase_table(self, fan_out_always):
        metrics = MetricsRegistry()
        executor = ParallelExecutor(2)
        Cluster(3, executor=executor, metrics=metrics).run_job(_job(), _LINES)
        report = format_perf_report(metrics)
        header = report.splitlines()[0].split()
        assert header == ["phase", "backend", "tasks", "wall", "s", "fanned", "inline", "wire"]
        assert "pool forks: 2" in report
        assert "job/map" in report

    def test_perf_report_without_snapshots(self):
        assert "no phase snapshots" in format_perf_report(MetricsRegistry())
