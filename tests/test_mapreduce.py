"""Unit tests for the MapReduce simulator: clock, counters, jobs, engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import inert_placements
from repro.mapreduce import (
    Cluster,
    CostModel,
    Counters,
    MapReduceJob,
    Mapper,
    Partitioner,
    Reducer,
    TaskContext,
    VirtualClock,
    results_available_at,
    split_input,
    stable_hash,
)


class TestVirtualClock:
    def test_charges_accumulate(self):
        clock = VirtualClock()
        clock.charge(2.0)
        clock.charge(3.5)
        assert clock.now == pytest.approx(5.5)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().charge(-1.0)

    @pytest.mark.parametrize("units", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_charge_rejected(self, units):
        clock = VirtualClock()
        clock.charge(1.5)
        with pytest.raises(ValueError):
            clock.charge(units)
        with pytest.raises(ValueError):
            clock.charge_each([2.0, units, 3.0])
        assert clock.now == 1.5

    def test_charge_each_rejects_a_negative_entry_before_moving(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.charge_each([5.0, -1.0])
        assert clock.now == 0.0

    @given(st.lists(st.floats(0.0, 1e6), max_size=30))
    def test_charge_each_is_one_charge_per_entry(self, units):
        one_by_one = VirtualClock(now=0.1)
        times = [one_by_one.charge(u) for u in units]
        bulk = VirtualClock(now=0.1)
        assert bulk.charge_each(units) == times
        assert bulk.now == one_by_one.now


class TestTaskContextChargeEach:
    @settings(max_examples=200)
    @given(
        chunks=st.lists(
            st.lists(st.floats(0.0, 50.0), max_size=12), max_size=8
        ),
        alpha=st.one_of(st.none(), st.floats(0.5, 40.0)),
    )
    def test_bulk_charges_equal_single_charges(self, chunks, alpha):
        """Clock and every α-flush file (its close time and the records
        written before it) end as after one ``charge`` per entry."""
        def run(bulk):
            context = TaskContext(0, CostModel(), alpha=alpha)
            for number, chunk in enumerate(chunks):
                if bulk:
                    context.charge_each(chunk)
                else:
                    for units in chunk:
                        context.charge(units)
                context.write(number)
            files = context.finalize_files()
            return (
                context.clock.now,
                [(f.index, f.close_time, f.records) for f in files],
            )

        assert run(True) == run(False)


class TestCostModel:
    def test_sort_cost_zero_for_tiny_inputs(self):
        cm = CostModel()
        assert cm.sort_cost(0) == 0.0
        assert cm.sort_cost(1) == 0.0

    def test_sort_cost_nloglog_shape(self):
        cm = CostModel(sort_item=1.0)
        assert cm.sort_cost(8) == pytest.approx(8 * 3)

    @given(st.integers(2, 10_000))
    def test_sort_cost_monotone(self, n):
        cm = CostModel()
        assert cm.sort_cost(n + 1) > cm.sort_cost(n)


class TestCounters:
    def test_increment_and_get(self):
        c = Counters()
        c.increment("g", "n")
        c.increment("g", "n", 4)
        assert c.get("g", "n") == 5
        assert c.get("g", "other") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "n", 2)
        b.increment("g", "n", 3)
        b.increment("h", "m")
        a.merge(b)
        assert a.get("g", "n") == 5
        assert a.get("h", "m") == 1

    def test_len_and_dict(self):
        c = Counters()
        c.increment("g", "n")
        assert len(c) == 1
        assert c.as_dict() == {("g", "n"): 1}

    def test_as_flat_dict_sorted_group_dot_name(self):
        c = Counters()
        c.increment("engine", "map_emitted", 3)
        c.increment("driver", "duplicates", 2)
        c.increment("engine", "map_records", 1)
        assert c.as_flat_dict() == {
            "driver.duplicates": 2,
            "engine.map_emitted": 3,
            "engine.map_records": 1,
        }
        assert list(c.as_flat_dict()) == sorted(c.as_flat_dict())

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["engine", "driver", "matcher"]),
                st.sampled_from(["a", "b", "c"]),
                st.integers(-5, 5),
            ),
            max_size=12,
        ),
        st.integers(0, 11),
        st.integers(0, 11),
    )
    def test_merge_is_associative_and_commutative(self, entries, cut1, cut2):
        """Task counters can be folded in any grouping/order — the engine
        relies on this when it aggregates per-task payloads."""
        lo, hi = sorted((cut1 % (len(entries) + 1), cut2 % (len(entries) + 1)))
        parts = [entries[:lo], entries[lo:hi], entries[hi:]]

        def counters_from(items):
            c = Counters()
            for group, name, amount in items:
                c.increment(group, name, amount)
            return c

        a, b, c = (counters_from(p) for p in parts)
        left = counters_from([])  # (a + b) + c
        left.merge(a)
        left.merge(b)
        left.merge(c)
        right = counters_from([])  # a + (b + c)
        bc = counters_from(parts[1])
        bc.merge(c)
        right.merge(bc)
        right.merge(a)
        assert left.as_dict() == right.as_dict()
        assert left.as_dict() == counters_from(entries).as_dict()


class TestSplitInput:
    def test_even_split(self):
        assert split_input(list(range(6)), 3) == [[0, 1], [2, 3], [4, 5]]

    def test_uneven_split_sizes_differ_by_at_most_one(self):
        splits = split_input(list(range(10)), 4)
        sizes = [len(s) for s in splits]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_more_splits_than_records(self):
        splits = split_input([1, 2], 5)
        assert len(splits) == 5
        assert sum(len(s) for s in splits) == 2

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            split_input([1], 0)

    @given(st.lists(st.integers(), max_size=50), st.integers(1, 10))
    def test_concatenation_preserves_order(self, records, n):
        splits = split_input(records, n)
        flattened = [r for split in splits for r in split]
        assert flattened == records


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(("X", "ab")) == stable_hash(("X", "ab"))

    def test_distinct_keys_usually_differ(self):
        values = {stable_hash(("k", i)) for i in range(100)}
        assert len(values) > 95


class TestSlotPool:
    """Fault-free placement: earliest-free slot, ties by slot index."""

    def test_waves(self):
        # Third task waits for the earliest slot (freed at 5.0).
        assert inert_placements(2, 0.0, [10.0, 5.0, 2.0]) == [
            (0.0, 10.0, 0),
            (0.0, 5.0, 1),
            (5.0, 7.0, 1),
        ]

    def test_ready_time_offset(self):
        assert inert_placements(1, 100.0, [1.0]) == [(100.0, 101.0, 0)]

    def test_needs_a_slot(self):
        with pytest.raises(ValueError):
            inert_placements(0, 0.0, [])


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(0.1 * len(values))
        context.write((key, sum(values)))


def _wordcount_job():
    return MapReduceJob(
        mapper_factory=_WordMapper,
        reducer_factory=_SumReducer,
        name="wordcount",
    )


class TestEngine:
    def test_wordcount_end_to_end(self):
        cluster = Cluster(2)
        lines = ["a b a", "b c", "a"]
        result = cluster.run_job(_wordcount_job(), lines)
        counts = dict(result.output)
        assert counts == {"a": 3, "b": 2, "c": 1}

    def test_phase_barrier(self):
        cluster = Cluster(2)
        result = cluster.run_job(_wordcount_job(), ["a b", "c d"])
        assert result.map_phase_end >= result.start_time
        for task in result.reduce_tasks:
            assert task.start_time >= result.map_phase_end

    def test_start_time_offsets_everything(self):
        cluster = Cluster(1)
        r0 = cluster.run_job(_wordcount_job(), ["a b", "b"], start_time=0.0)
        r1 = cluster.run_job(_wordcount_job(), ["a b", "b"], start_time=500.0)
        assert r1.end_time == pytest.approx(r0.end_time + 500.0)
        assert r1.duration == pytest.approx(r0.duration)

    def test_deterministic(self):
        cluster = Cluster(3)
        lines = [f"w{i % 7} w{i % 3}" for i in range(50)]
        a = cluster.run_job(_wordcount_job(), lines)
        b = cluster.run_job(_wordcount_job(), lines)
        assert sorted(a.output) == sorted(b.output)
        assert a.end_time == b.end_time

    def test_partitioner_routing_respected(self):
        class EvenOdd(Partitioner):
            def partition(self, key, n):
                return 0 if key % 2 == 0 else 1

        class Identity(Mapper):
            def map(self, record, context):
                context.emit(record, record)

        class Collect(Reducer):
            def reduce(self, key, values, context):
                context.write(key)

        job = MapReduceJob(Identity, Collect, partitioner=EvenOdd())
        cluster = Cluster(1)
        result = cluster.run_job(job, list(range(10)), num_reduce_tasks=2)
        evens = set(result.reduce_tasks[0].output)
        odds = set(result.reduce_tasks[1].output)
        assert evens == {0, 2, 4, 6, 8}
        assert odds == {1, 3, 5, 7, 9}

    def test_bad_partitioner_rejected(self):
        class Broken(Partitioner):
            def partition(self, key, n):
                return n  # out of range

        class Identity(Mapper):
            def map(self, record, context):
                context.emit(record, record)

        job = MapReduceJob(Identity, _SumReducer, partitioner=Broken())
        with pytest.raises(ValueError):
            Cluster(1).run_job(job, [1])

    def test_reduce_groups_sorted_by_key(self):
        seen = []

        class Observe(Reducer):
            def reduce(self, key, values, context):
                seen.append(key)

        class Identity(Mapper):
            def map(self, record, context):
                context.emit(record, 1)

        job = MapReduceJob(Identity, Observe)
        Cluster(1).run_job(job, ["c", "a", "b"], num_reduce_tasks=1)
        assert seen == ["a", "b", "c"]

    def test_counters_aggregated(self):
        cluster = Cluster(2)
        result = cluster.run_job(_wordcount_job(), ["a b", "c"])
        assert result.counters.get("engine", "map_records") == 2
        assert result.counters.get("engine", "map_emitted") == 3

    def test_more_machines_never_slower(self):
        lines = [f"word{i % 11} other{i % 5}" for i in range(120)]
        slow = Cluster(1).run_job(_wordcount_job(), lines)
        fast = Cluster(8).run_job(_wordcount_job(), lines)
        assert fast.end_time <= slow.end_time

    def test_events_rebased_to_global_time(self):
        class EventReducer(Reducer):
            def reduce(self, key, values, context):
                context.charge(5.0)
                context.record_event("tick", key)

        class Identity(Mapper):
            def map(self, record, context):
                context.emit(record, 1)

        job = MapReduceJob(Identity, EventReducer)
        result = Cluster(1).run_job(job, ["a", "b"], num_reduce_tasks=1)
        assert all(e.time >= result.map_phase_end for e in result.events)


class TestIncrementalOutput:
    def test_alpha_rotates_files(self):
        class Chunky(Reducer):
            def reduce(self, key, values, context):
                for _ in range(10):
                    context.charge(1.0)
                    context.write(key)

        class Identity(Mapper):
            def map(self, record, context):
                context.emit(record, 1)

        job = MapReduceJob(Identity, Chunky, alpha=4.0)
        result = Cluster(1).run_job(job, ["a"], num_reduce_tasks=1)
        assert len(result.output_files) >= 2
        closes = [f.close_time for f in result.output_files]
        assert closes == sorted(closes)

    def test_results_available_at_is_monotone(self):
        class Chunky(Reducer):
            def reduce(self, key, values, context):
                for i in range(10):
                    context.charge(1.0)
                    context.write((key, i))

        class Identity(Mapper):
            def map(self, record, context):
                context.emit(record, 1)

        job = MapReduceJob(Identity, Chunky, alpha=3.0)
        result = Cluster(1).run_job(job, ["a", "b"], num_reduce_tasks=2)
        previous = -1
        for t in [0, result.end_time / 4, result.end_time / 2, result.end_time]:
            available = len(results_available_at(result, t))
            assert available >= previous
            previous = available
        assert len(results_available_at(result, result.end_time)) == 20
