"""Property-based tests: engine invariants over random workloads."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce import Cluster, FaultPlan, MapReduceJob, Mapper, Reducer

records_strategy = st.lists(
    st.text(alphabet="abc ", min_size=0, max_size=12), min_size=0, max_size=40
)


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(0.5 * len(values))
        context.write((key, sum(values)))


def _job():
    return MapReduceJob(_WordMapper, _SumReducer)


class TestEngineProperties:
    @given(records_strategy, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_wordcount_correct_for_any_input_and_cluster(self, lines, machines):
        result = Cluster(machines).run_job(_job(), lines)
        expected = Counter(word for line in lines for word in line.split())
        assert dict(result.output) == dict(expected)

    @given(records_strategy, st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_reduce_task_count_does_not_change_results(self, lines, machines, n_red):
        a = Cluster(machines).run_job(_job(), lines, num_reduce_tasks=n_red)
        b = Cluster(machines).run_job(_job(), lines, num_reduce_tasks=n_red + 2)
        assert sorted(a.output) == sorted(b.output)

    @given(records_strategy, st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_phase_barrier_invariant(self, lines, machines):
        result = Cluster(machines).run_job(_job(), lines)
        for task in result.map_tasks:
            assert task.end_time <= result.map_phase_end + 1e-9
        for task in result.reduce_tasks:
            assert task.start_time >= result.map_phase_end - 1e-9
            assert task.end_time <= result.end_time + 1e-9

    @given(records_strategy, st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_task_windows_contain_their_cost(self, lines, machines):
        result = Cluster(machines).run_job(_job(), lines)
        for task in result.map_tasks + result.reduce_tasks:
            assert task.end_time - task.start_time == pytest.approx(task.cost)

    @given(records_strategy)
    @settings(max_examples=25, deadline=None)
    def test_failures_never_change_output(self, lines):
        clean = Cluster(2).run_job(_job(), lines)
        # Seed 2 crashes attempt 0 of map task 0 and of reduce task 0.
        failed = Cluster(2, faults=FaultPlan(seed=2, fault_rate=0.3)).run_job(
            _job(), lines
        )
        assert failed.counters.get("fault", "map_failed_attempts") >= 1
        assert failed.counters.get("fault", "reduce_failed_attempts") >= 1
        assert sorted(clean.output) == sorted(failed.output)
        assert failed.end_time >= clean.end_time - 1e-9

    @given(records_strategy, st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_determinism(self, lines, machines):
        a = Cluster(machines).run_job(_job(), lines)
        b = Cluster(machines).run_job(_job(), lines)
        assert a.end_time == b.end_time
        assert a.output == b.output
