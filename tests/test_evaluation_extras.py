"""Tests for remaining evaluation paths: io helpers, RunResult, sampling."""

import pytest

from repro.data import Dataset, Entity
from repro.evaluation import RunResult, recall_curve, sample_times
from repro.mapreduce import (
    Cluster,
    MapReduceJob,
    Mapper,
    Reducer,
    results_available_at,
)
from repro.mapreduce.types import Event


class _Identity(Mapper):
    def map(self, record, context):
        context.emit(record % 2, record)


class _Writer(Reducer):
    def reduce(self, key, values, context):
        for value in values:
            context.charge(1.0)
            context.write(value)


def _timeline(job):
    """Output files in the order they became readable."""
    return sorted(job.output_files, key=lambda f: (f.close_time, f.task_id, f.index))


@pytest.fixture()
def flushing_job():
    job = MapReduceJob(_Identity, _Writer, alpha=3.0)
    return Cluster(1).run_job(job, list(range(12)), num_reduce_tasks=2)


class TestIoHelpers:
    def test_file_timeline_sorted(self, flushing_job):
        """Merged output lists records file by file, in close order."""
        files = _timeline(flushing_job)
        assert len(files) > 2
        merged = results_available_at(flushing_job, flushing_job.end_time)
        assert merged == [record for f in files for record in f.records]

    def test_nothing_available_before_first_close(self, flushing_job):
        first_close = _timeline(flushing_job)[0].close_time
        assert results_available_at(flushing_job, first_close - 1e-6) == []

    def test_everything_available_at_end(self, flushing_job):
        available = results_available_at(flushing_job, flushing_job.end_time)
        assert sorted(available) == list(range(12))

    def test_availability_strictly_after_write_time(self, flushing_job):
        """A record is not visible until its file closes — the consumer
        semantics of Section III-B."""
        files = _timeline(flushing_job)
        total = 0
        for f in files:
            visible = results_available_at(flushing_job, f.close_time)
            total += len(f.records)
            assert len(visible) >= total - len(f.records)


class TestCurveRun:
    def _run(self):
        ds = Dataset(
            entities=[Entity(id=i, attrs={}) for i in range(4)],
            clusters={0: 0, 1: 0, 2: 1, 3: 1},
        )
        events = [Event(time=5.0, kind="duplicate", payload=(0, 1))]
        curve = recall_curve(events, ds, end_time=20.0)
        return RunResult(label="x", curve=curve, result="raw")

    def test_properties_delegate_to_curve(self):
        run = self._run()
        assert run.final_recall == pytest.approx(0.5)
        assert run.total_time == 20.0
        assert run.result == "raw"


class TestSampleTimes:
    def test_last_point_is_end(self):
        assert sample_times(50.0, points=5)[-1] == 50.0

    def test_points_are_increasing(self):
        times = sample_times(123.0, points=7)
        assert times == sorted(times)
        assert all(t > 0 for t in times)
