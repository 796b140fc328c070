"""Unit tests for ASCII charts and task timelines."""

import pytest

from repro.data import Dataset, Entity
from repro.evaluation import (
    RunResult,
    ascii_chart,
    ascii_gantt,
    job_spans,
    load_imbalance,
    recall_curve,
    reduce_utilization,
)
from repro.mapreduce import Cluster, MapReduceJob, Mapper, Reducer
from repro.mapreduce.types import Event


def _curve_run(label, times):
    entities = [Entity(id=i, attrs={}) for i in range(4)]
    ds = Dataset(entities=entities, clusters={0: 0, 1: 0, 2: 1, 3: 1})
    pairs = [(0, 1), (2, 3)]
    events = [
        Event(time=t, kind="duplicate", payload=p) for t, p in zip(times, pairs)
    ]
    curve = recall_curve(events, ds, end_time=100.0)
    return RunResult(label=label, curve=curve, result=None)


class TestAsciiChart:
    def test_contains_legend_and_axes(self):
        run = _curve_run("fast", [10.0, 20.0])
        chart = ascii_chart([run], width=40, height=8, title="t")
        assert "t" in chart.splitlines()[0]
        assert "o=fast" in chart
        assert "1.00 |" in chart

    def test_two_curves_use_distinct_symbols(self):
        fast = _curve_run("fast", [5.0, 10.0])
        slow = _curve_run("slow", [50.0, 90.0])
        chart = ascii_chart([fast, slow], width=40, height=8)
        assert "o=fast" in chart and "*=slow" in chart
        assert "o" in chart and "*" in chart

    def test_validation(self):
        run = _curve_run("x", [1.0])
        with pytest.raises(ValueError):
            ascii_chart([])
        with pytest.raises(ValueError):
            ascii_chart([run], width=5)
        with pytest.raises(ValueError):
            ascii_chart([run] * 9)

    def test_higher_curve_renders_higher(self):
        fast = _curve_run("fast", [1.0, 2.0])  # reaches 1.0 immediately
        chart = ascii_chart([fast], width=20, height=6)
        top_row = chart.splitlines()[0 if "|" in chart.splitlines()[0] else 1]
        assert "o" in top_row  # the curve sits on the top recall row


class _IdentityMapper(Mapper):
    def map(self, record, context):
        context.emit(record % 3, record)


class _CostlyReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(10.0 * (key + 1))
        context.write(key)


@pytest.fixture()
def sample_job():
    job = MapReduceJob(_IdentityMapper, _CostlyReducer)
    return Cluster(2).run_job(job, list(range(12)), num_reduce_tasks=3)


class TestTimeline:
    def test_spans_cover_all_tasks(self, sample_job):
        spans = job_spans(sample_job)
        assert sum(1 for s in spans if s.phase == "map") == len(sample_job.map_tasks)
        assert sum(1 for s in spans if s.phase == "reduce") == 3
        for span in spans:
            assert span.end >= span.start
            assert span.duration == span.end - span.start

    def test_utilization_bounds(self, sample_job):
        u = reduce_utilization(sample_job)
        assert 0.0 < u <= 1.0

    def test_imbalance_at_least_one(self, sample_job):
        assert load_imbalance(sample_job) >= 1.0

    def test_unbalanced_job_reports_high_imbalance(self, sample_job):
        # Reducer cost grows with key index: key 2 does 3x key 0's work.
        assert load_imbalance(sample_job) > 1.2

    def test_gantt_renders(self, sample_job):
        text = ascii_gantt(sample_job, width=32)
        assert "map[" in text and "reduce[" in text
        assert "utilization=" in text

    def test_gantt_width_validation(self, sample_job):
        with pytest.raises(ValueError):
            ascii_gantt(sample_job, width=4)
