"""Unit tests for evaluation metrics: recall curves, Qty (Equation 1),
speedup, and precision."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Dataset, Entity
from repro.evaluation.metrics import (
    RecallCurve,
    quality,
    recall_curve,
    recall_speedup,
)
from repro.mapreduce.types import Event


def _dataset():
    entities = [Entity(id=i, attrs={}) for i in range(6)]
    clusters = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}  # pairs: (0,1),(2,3),(4,5)
    return Dataset(entities=entities, clusters=clusters)


def _event(time, pair):
    return Event(time=time, kind="duplicate", payload=pair)


class TestRecallCurve:
    def test_step_function(self):
        ds = _dataset()
        events = [_event(10.0, (0, 1)), _event(20.0, (2, 3))]
        curve = recall_curve(events, ds, end_time=30.0)
        assert curve.recall_at(5.0) == 0.0
        assert curve.recall_at(10.0) == pytest.approx(1 / 3)
        assert curve.recall_at(15.0) == pytest.approx(1 / 3)
        assert curve.recall_at(25.0) == pytest.approx(2 / 3)
        assert curve.final_recall == pytest.approx(2 / 3)

    def test_false_positives_ignored(self):
        ds = _dataset()
        events = [_event(1.0, (0, 2)), _event(2.0, (0, 1))]  # (0,2) is not true
        curve = recall_curve(events, ds)
        assert curve.final_recall == pytest.approx(1 / 3)

    def test_repeated_pairs_counted_once(self):
        ds = _dataset()
        events = [_event(1.0, (0, 1)), _event(2.0, (0, 1))]
        curve = recall_curve(events, ds)
        assert curve.final_recall == pytest.approx(1 / 3)

    def test_time_to(self):
        ds = _dataset()
        events = [_event(10.0, (0, 1)), _event(20.0, (2, 3))]
        curve = recall_curve(events, ds)
        assert curve.time_to(0.3) == 10.0
        assert curve.time_to(0.5) == 20.0
        assert curve.time_to(0.9) is None

    def test_requires_ground_truth(self):
        ds = Dataset(entities=[Entity(id=0, attrs={})])
        with pytest.raises(ValueError):
            recall_curve([], ds)

    def test_sample(self):
        ds = _dataset()
        curve = recall_curve([_event(10.0, (0, 1))], ds, end_time=20.0)
        assert curve.sample([5.0, 15.0]) == [(5.0, 0.0), (15.0, pytest.approx(1 / 3))]

    def test_area_under_increases_with_earlier_discovery(self):
        ds = _dataset()
        early = recall_curve([_event(1.0, (0, 1))], ds, end_time=10.0)
        late = recall_curve([_event(9.0, (0, 1))], ds, end_time=10.0)
        assert early.area_under() > late.area_under()

    def test_area_under_bounds(self):
        ds = _dataset()
        curve = recall_curve(
            [_event(0.0, (0, 1)), _event(0.0, (2, 3)), _event(0.0, (4, 5))],
            ds,
            end_time=10.0,
        )
        assert curve.area_under() == pytest.approx(1.0)

    @given(st.lists(st.floats(0.1, 100.0), min_size=0, max_size=3, unique=True))
    @settings(max_examples=40)
    def test_recalls_monotone(self, times):
        ds = _dataset()
        pairs = [(0, 1), (2, 3), (4, 5)]
        events = [_event(t, p) for t, p in zip(sorted(times), pairs)]
        curve = recall_curve(events, ds, end_time=200.0)
        assert curve.recalls == sorted(curve.recalls)


class TestQuality:
    def test_equation_one_hand_computed(self):
        ds = _dataset()  # N = 3
        events = [_event(5.0, (0, 1)), _event(15.0, (2, 3)), _event(50.0, (4, 5))]
        cost_samples = [10.0, 20.0, 30.0]
        # Intervals: (0,10] -> 1 pair, (10,20] -> 1 pair, (20,30] -> 0; the
        # 50.0 event falls outside every sample.
        weighting = lambda i, k: 1.0 - i / k  # 1.0, 2/3, 1/3
        expected = (1.0 * 1 + (2 / 3) * 1 + (1 / 3) * 0) / 3
        assert quality(events, ds, cost_samples, weighting) == pytest.approx(expected)

    def test_earlier_results_score_higher(self):
        ds = _dataset()
        cost_samples = [10.0, 20.0, 30.0]
        weighting = lambda i, k: (k - i) / k
        early = quality([_event(5.0, (0, 1))], ds, cost_samples, weighting)
        late = quality([_event(25.0, (0, 1))], ds, cost_samples, weighting)
        assert early > late

    def test_unsorted_cost_samples_rejected(self):
        ds = _dataset()
        with pytest.raises(ValueError):
            quality([], ds, [20.0, 10.0], lambda i, k: 1.0)

    def test_perfect_early_result_scores_one(self):
        ds = _dataset()
        events = [_event(1.0, p) for p in [(0, 1), (2, 3), (4, 5)]]
        score = quality(events, ds, [10.0], lambda i, k: 1.0)
        assert score == pytest.approx(1.0)

    def test_no_ground_truth_returns_zero(self):
        ds = Dataset(entities=[Entity(id=0, attrs={})])
        assert quality([], ds, [1.0], lambda i, k: 1.0) == 0.0


class TestSpeedup:
    def _curve(self, times):
        ds = _dataset()
        pairs = [(0, 1), (2, 3), (4, 5)]
        events = [_event(t, p) for t, p in zip(times, pairs)]
        return recall_curve(events, ds, end_time=max(times) + 1)

    def test_speedup_ratio(self):
        slow = self._curve([10.0, 20.0, 30.0])
        fast = self._curve([5.0, 10.0, 15.0])
        assert recall_speedup(slow, fast, 0.3) == pytest.approx(2.0)
        assert recall_speedup(slow, fast, 0.9) == pytest.approx(2.0)

    def test_unreachable_recall_gives_none(self):
        slow = self._curve([10.0])
        fast = self._curve([5.0, 6.0])
        assert recall_speedup(slow, fast, 0.5) is None
