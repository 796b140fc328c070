"""Unit and end-to-end tests for the Basic baseline (Section II-C)."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import BasicConfig, BasicER
from repro.baselines.basic import _is_smallest_common_block, smallest_key_veto
from repro.blocking import citeseer_scheme
from repro.mapreduce import Cluster
from repro.evaluation import recall_curve
from repro.mechanisms import SortedNeighborHint


class TestSmallestCommonBlockRule:
    def test_resolved_in_single_common_block(self):
        sig1 = ("ab", None, "xy")
        sig2 = ("ab", "cd", "zz")
        # Only position 0 is common.
        assert _is_smallest_common_block(sig1, sig2, 0)
        assert not _is_smallest_common_block(sig1, sig2, 2)

    def test_smallest_key_wins(self):
        sig = ("zz", "aa", "mm")
        # All three positions common; "aa" (position 1) is smallest.
        assert _is_smallest_common_block(sig, sig, 1)
        assert not _is_smallest_common_block(sig, sig, 0)
        assert not _is_smallest_common_block(sig, sig, 2)

    def test_tie_broken_by_function_position(self):
        sig = ("aa", "aa", "bb")
        assert _is_smallest_common_block(sig, sig, 0)
        assert not _is_smallest_common_block(sig, sig, 1)

    def test_no_common_block(self):
        assert not _is_smallest_common_block(("a", None), ("b", None), 0)

    def test_none_keys_are_not_common(self):
        assert not _is_smallest_common_block((None,), (None,), 0)

    @given(
        keys=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", None]), min_size=3, max_size=3),
            max_size=8,
        ),
        position=st.integers(0, 2),
        block_key=st.sampled_from(["a", "b", "c"]),
    )
    def test_the_run_veto_is_the_rule(self, keys, position, block_key):
        # Every member of a block shares the block's key; over all pairs
        # of the block, the column veto skips exactly where the rule says.
        signatures = [
            tuple(block_key if f == position else key for f, key in enumerate(row))
            for row in keys
        ]
        pairs = list(itertools.permutations(range(len(signatures)), 2))
        lefts, rights = [a for a, _ in pairs], [b for _, b in pairs]
        verdicts = smallest_key_veto(signatures, position, block_key)(lefts, rights)
        assert verdicts == [
            None
            if _is_smallest_common_block(signatures[a], signatures[b], position)
            else "skipped"
            for a, b in pairs
        ]


@pytest.fixture(scope="module")
def basic_runs(request):
    dataset = request.getfixturevalue("citeseer_small")
    matcher = request.getfixturevalue("shared_citeseer_matcher")
    runs = {}
    for threshold in (None, 0.1, 0.01):
        config = BasicConfig(
            scheme=citeseer_scheme(),
            matcher=matcher,
            mechanism=SortedNeighborHint(),
            window=15,
            popcorn_threshold=threshold,
        )
        runs[threshold] = BasicER(config, Cluster(3)).run(dataset)
    return dataset, runs


class TestBasicEndToEnd:
    def test_basic_f_finds_duplicates(self, basic_runs):
        dataset, runs = basic_runs
        recall = len(runs[None].found_pairs & dataset.true_pairs) / dataset.num_true_pairs
        assert recall > 0.6

    def test_popcorn_trades_recall_for_time(self, basic_runs):
        dataset, runs = basic_runs
        # Table III shape: more aggressive threshold => lower final recall
        # AND lower total time.
        recall = {
            t: len(r.found_pairs & dataset.true_pairs) for t, r in runs.items()
        }
        time = {t: r.total_time for t, r in runs.items()}
        assert recall[0.1] <= recall[0.01] <= recall[None]
        assert time[0.1] <= time[0.01] <= time[None]

    def test_no_pair_reported_twice(self, basic_runs):
        _, runs = basic_runs
        events = runs[None].duplicate_events
        pairs = [e.payload for e in events]
        assert len(pairs) == len(set(pairs))

    def test_events_inside_job_window(self, basic_runs):
        _, runs = basic_runs
        result = runs[None]
        for event in result.duplicate_events:
            assert result.job.map_phase_end <= event.time <= result.job.end_time

    def test_high_precision(self, basic_runs):
        dataset, runs = basic_runs
        found = runs[None].found_pairs
        assert len(found & dataset.true_pairs) / len(found) > 0.9

    def test_comparison_charges_are_tagged_for_calibration(self, basic_runs):
        _, runs = basic_runs
        profiles = [dict(task.charge_profile) for task in runs[None].job.reduce_tasks]
        assert any(profile.get("compare", 0.0) > 0.0 for profile in profiles)

    def test_smaller_window_is_cheaper(self, citeseer_small, shared_citeseer_matcher):
        results = {}
        for window in (5, 15):
            config = BasicConfig(
                scheme=citeseer_scheme(),
                matcher=shared_citeseer_matcher,
                mechanism=SortedNeighborHint(),
                window=window,
            )
            results[window] = BasicER(config, Cluster(3)).run(citeseer_small)
        assert results[5].total_time < results[15].total_time
        assert len(results[5].found_pairs) <= len(results[15].found_pairs)
