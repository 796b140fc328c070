"""Unit tests for the ASCII recall chart."""

import pytest

from repro.data import Dataset, Entity
from repro.evaluation import RunResult, ascii_chart, recall_curve
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
