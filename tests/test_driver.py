"""End-to-end tests for the two-job progressive pipeline."""

from collections import Counter

import pytest

import repro.core.driver as driver_module
from repro.core import ProgressiveER
from repro.data import pair_key
from repro.mapreduce import Cluster
from repro.evaluation import recall_curve
from repro.mapreduce import results_available_at
from repro.mechanisms import base as mechanisms_base


@pytest.fixture(scope="module")
def progressive_run(request):
    dataset = request.getfixturevalue("citeseer_small")
    matcher = request.getfixturevalue("shared_citeseer_matcher")
    from repro.core import citeseer_config

    config = citeseer_config(matcher=matcher)
    result = ProgressiveER(config, Cluster(3)).run(dataset)
    return dataset, result


class TestEndToEnd:
    def test_finds_most_duplicates(self, progressive_run):
        dataset, result = progressive_run
        recall = len(result.found_pairs & dataset.true_pairs) / dataset.num_true_pairs
        assert recall > 0.8

    def test_high_precision(self, progressive_run):
        dataset, result = progressive_run
        found = result.found_pairs
        precision = len(found & dataset.true_pairs) / len(found)
        assert precision > 0.9

    def test_job2_starts_after_job1(self, progressive_run):
        _, result = progressive_run
        assert result.job2.start_time == result.job1.end_time
        assert result.total_time == result.job2.end_time

    def test_events_deduplicated_and_ordered(self, progressive_run):
        _, result = progressive_run
        pairs = [e.payload for e in result.duplicate_events]
        assert len(pairs) == len(set(pairs))
        times = [e.time for e in result.duplicate_events]
        assert times == sorted(times)

    def test_events_within_job2_window(self, progressive_run):
        _, result = progressive_run
        for event in result.duplicate_events:
            assert result.job2.map_phase_end <= event.time <= result.job2.end_time

    def test_output_files_flush_incrementally(self, progressive_run):
        _, result = progressive_run
        assert len(result.job2.output_files) > result.job2.counters.get(
            "engine", "reduce_groups"
        ) * 0 + 1
        half = results_available_at(result.job2, result.total_time / 2)
        full = results_available_at(result.job2, result.total_time)
        assert len(half) <= len(full)
        assert set(full) == result.found_pairs

    def test_map_setup_charges_schedule_generation(self, progressive_run):
        _, result = progressive_run
        generation = result.schedule.generation_cost
        assert all(task.cost >= generation for task in result.job2.map_tasks)

    def test_tree_routing_ships_fewer_records(self, progressive_run):
        """Footnote 5: one emission per tree, not one per block membership
        (the per-block draft would ship every scheduled block's size)."""
        _, result = progressive_run
        emitted = result.job2.counters.get("engine", "map_emitted")
        per_block = sum(block.size for block in result.schedule.blocks.values())
        assert 0 < emitted < per_block


class TestRedundancyFreedom:
    def test_no_pair_resolved_twice_globally(self, citeseer_small, citeseer_cfg):
        """The paper's Section V guarantee: across ALL reduce tasks and ALL
        blocks, each entity pair is resolved at most once."""
        resolved = Counter()
        original = mechanisms_base.resolve_block

        def counting(members, *args, **kwargs):
            inner = kwargs.get("on_resolved")

            def wrapper(lefts, rights, decisions):
                for i, j in zip(lefts, rights):
                    resolved[pair_key(members[i].id, members[j].id)] += 1
                if inner is not None:
                    inner(lefts, rights, decisions)

            kwargs["on_resolved"] = wrapper
            return original(members, *args, **kwargs)

        driver_module.resolve_block = counting
        try:
            result = ProgressiveER(citeseer_cfg, Cluster(3)).run(citeseer_small)
        finally:
            driver_module.resolve_block = original
        assert resolved, "expected at least one resolution"
        over_resolved = {p: c for p, c in resolved.items() if c > 1}
        assert not over_resolved
        # Every reported duplicate corresponds to one real resolution.
        assert set(result.found_pairs) <= set(resolved)


class TestDeterminism:
    def test_same_seed_same_events(self, citeseer_small, citeseer_cfg):
        r1 = ProgressiveER(citeseer_cfg, Cluster(2), seed=5).run(citeseer_small)
        r2 = ProgressiveER(citeseer_cfg, Cluster(2), seed=5).run(citeseer_small)
        assert [(e.time, e.payload) for e in r1.duplicate_events] == [
            (e.time, e.payload) for e in r2.duplicate_events
        ]


class TestEstimatorVariants:
    @pytest.mark.parametrize("kind", ["learned", "oracle", "uniform"])
    def test_all_estimators_run(self, citeseer_small, shared_citeseer_matcher, kind):
        from repro.core import citeseer_config

        config = citeseer_config(matcher=shared_citeseer_matcher, estimator=kind)
        result = ProgressiveER(config, Cluster(2)).run(citeseer_small)
        recall = len(result.found_pairs & citeseer_small.true_pairs)
        assert recall > 0


class TestSchedulerStrategies:
    @pytest.mark.parametrize("strategy", ["ours", "nosplit", "lpt"])
    def test_all_strategies_reach_same_final_recall(
        self, citeseer_small, citeseer_cfg, strategy
    ):
        result = ProgressiveER(
            citeseer_cfg, Cluster(3), strategy=strategy
        ).run(citeseer_small)
        curve = recall_curve(
            result.duplicate_events, citeseer_small, end_time=result.total_time
        )
        # The strategies change WHEN pairs are found, never WHETHER.
        assert curve.final_recall > 0.8
