"""Tests for the multi-pass MR Sorted-Neighborhood baseline."""

import hashlib

import pytest

from repro.baselines import MrsnConfig, MultiPassMRSN
from repro.baselines.mrsn import MrsnReducer
from repro.core import books_config, citeseer_config
from repro.data import make_books, make_citeseer
from repro.mapreduce import Cluster
from repro.evaluation import recall_curve


@pytest.fixture(scope="module")
def mrsn_runs(request):
    dataset = request.getfixturevalue("citeseer_small")
    matcher = request.getfixturevalue("shared_citeseer_matcher")
    config = MrsnConfig(citeseer_config(matcher=matcher), window=15)
    return dataset, {
        machines: MultiPassMRSN(config, Cluster(machines)).run(dataset)
        for machines in (1, 3)
    }


class TestCorrectness:
    def test_results_invariant_to_partitioning(self, mrsn_runs):
        """RepSN's boundary replication: the pair set must not depend on
        how many reduce tasks split the sorted order."""
        _, runs = mrsn_runs
        assert runs[1].found_pairs == runs[3].found_pairs

    def test_finds_most_duplicates(self, mrsn_runs):
        dataset, runs = mrsn_runs
        recall = len(runs[3].found_pairs & dataset.true_pairs) / dataset.num_true_pairs
        assert recall > 0.8

    def test_one_job_per_family(self, mrsn_runs):
        _, runs = mrsn_runs
        assert len(runs[3].jobs) == 3  # X, Y, Z passes

    def test_passes_run_sequentially(self, mrsn_runs):
        _, runs = mrsn_runs
        jobs = runs[3].jobs
        for earlier, later in zip(jobs, jobs[1:]):
            assert later.start_time == earlier.end_time

    def test_events_deduplicated(self, mrsn_runs):
        _, runs = mrsn_runs
        pairs = [e.payload for e in runs[3].duplicate_events]
        assert len(pairs) == len(set(pairs))

    def test_high_precision(self, mrsn_runs):
        dataset, runs = mrsn_runs
        found = runs[3].found_pairs
        assert len(found & dataset.true_pairs) / len(found) > 0.9


def _digest(result):
    """sha256 over the ``(time, pair)`` events and every task's
    ``(cost, start, end)``."""
    sha = hashlib.sha256()
    for event in result.duplicate_events:
        sha.update(repr((event.time, event.payload)).encode())
    for job in result.jobs:
        for task in job.map_tasks + job.reduce_tasks:
            sha.update(repr((task.cost, task.start_time, task.end_time)).encode())
    return sha.hexdigest()


class _TwoReduceTasks(Cluster):
    """Plans one partition per reduce slot, runs them on two tasks."""

    def run_job(self, job, records, **kwargs):
        return super().run_job(job, records, num_reduce_tasks=2, **kwargs)


class TestPinnedTimeline:
    """Values computed before the reducer decided through ``resolve_block``
    (its own charge → ``is_match`` → write loop): handing the window to
    the shared loop must move no charge, event or task boundary."""

    @pytest.mark.parametrize(
        "make, size, config, total_time, pairs, digest",
        [
            (
                make_citeseer, 600, citeseer_config,
                5221.058684301415, 339,
                "9ec58b5bd8681e7514ea2274d2b6f541ebd2f6005500bf31434eca9c2841125d",
            ),
            (
                make_books, 1500, books_config,
                4387.239901581293, 817,
                "a5b905e215cf68ce5b6d14864645e802e1c7d00cbe61e8c87f418fff0880f476",
            ),
        ],
        ids=["citeseer", "books"],
    )
    def test_bit_identical_to_the_private_loop(
        self, make, size, config, total_time, pairs, digest
    ):
        result = MultiPassMRSN(MrsnConfig(config(), window=10), Cluster(3)).run(
            make(size, seed=3)
        )
        assert result.total_time == total_time
        assert len(result.found_pairs) == pairs
        assert _digest(result) == digest

    def test_several_partitions_per_task_meet_their_own_replicas(self, monkeypatch):
        # Six planned partitions on two reduce tasks: task 1 holds
        # partitions 1-5 back to back, so every boundary entity sits within
        # a window of its own replica.
        tasks = []
        cleanup = MrsnReducer.cleanup

        def recording_cleanup(reducer, context):
            tasks.append([entity.id for entity, _ in reducer._ordered])
            cleanup(reducer, context)

        monkeypatch.setattr(MrsnReducer, "cleanup", recording_cleanup)
        dataset = make_citeseer(300, seed=5)
        config = MrsnConfig(citeseer_config(), window=6)
        narrow = MultiPassMRSN(config, _TwoReduceTasks(3)).run(dataset)
        assert any(len(ids) > len(set(ids)) for ids in tasks)
        reference = MultiPassMRSN(config, Cluster(1)).run(dataset)
        assert narrow.found_pairs == reference.found_pairs
        assert all(a != b for a, b in narrow.found_pairs)
        assert narrow.total_time == 7124.149331010931
        assert len(narrow.found_pairs) == 200
        assert _digest(narrow) == (
            "2da73f91ecdef2f14764b0ecbe7ce7123637b1c855f201c2c2e2d67a0dad39be"
        )


class TestScaling:
    def test_more_machines_not_slower(self, citeseer_small, shared_citeseer_matcher):
        config = MrsnConfig(citeseer_config(matcher=shared_citeseer_matcher), window=10)
        slow = MultiPassMRSN(config, Cluster(1)).run(citeseer_small)
        fast = MultiPassMRSN(config, Cluster(6)).run(citeseer_small)
        assert fast.total_time <= slow.total_time

    def test_progressive_approach_beats_mrsn_early(
        self, citeseer_medium, shared_citeseer_matcher
    ):
        """The related-work claim (Section VII): fixed parallel SN has no
        prioritization; our approach finds duplicates at a higher early
        rate even though MRSN's final recall can be competitive."""
        from repro.core import ProgressiveER

        config = MrsnConfig(citeseer_config(matcher=shared_citeseer_matcher), window=15)
        mrsn = MultiPassMRSN(config, Cluster(4)).run(citeseer_medium)
        ours = ProgressiveER(
            citeseer_config(matcher=shared_citeseer_matcher), Cluster(4)
        ).run(citeseer_medium)

        mrsn_curve = recall_curve(
            mrsn.duplicate_events, citeseer_medium, end_time=mrsn.total_time
        )
        ours_curve = recall_curve(
            ours.duplicate_events, citeseer_medium, end_time=ours.total_time
        )
        horizon = min(mrsn.total_time, ours.total_time)
        quarter = horizon * 0.25
        assert ours_curve.recall_at(quarter) > mrsn_curve.recall_at(quarter)
        # ... and in aggregate progressiveness over the common horizon.
        assert ours_curve.area_under(horizon) > mrsn_curve.area_under(horizon)
