"""Unit and end-to-end tests for the Basic baseline (Section II-C)."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import BasicConfig, BasicER, MrsnConfig, MultiPassMRSN
from repro.baselines.basic import smallest_key_columns
from repro.core import citeseer_config, linkage_config
from repro.data import make_linkage
from repro.mapreduce import Cluster
from repro.mechanisms.base import column_veto


def _is_smallest_common_block(sig1, sig2, position):
    """[14]'s rule, the definition the skip columns are held to: resolve
    the pair only in the common block whose (key value, function position)
    is smallest."""
    best = None
    for index, (k1, k2) in enumerate(zip(sig1, sig2)):
        if k1 is None or k1 != k2:
            continue
        candidate = (k1, index)
        if best is None or candidate < best:
            best = candidate
    return best is not None and best[1] == position and best[0] == sig1[position]


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
        columns = smallest_key_columns(signatures, position, block_key)
        verdicts = column_veto(signatures, columns)(lefts, rights)
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
            citeseer_config(matcher=matcher), window=15, popcorn_threshold=threshold
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
            (job,) = result.jobs
            assert job.map_phase_end <= event.time <= job.end_time

    def test_high_precision(self, basic_runs):
        dataset, runs = basic_runs
        found = runs[None].found_pairs
        assert len(found & dataset.true_pairs) / len(found) > 0.9

    def test_smaller_window_is_cheaper(self, citeseer_small, shared_citeseer_matcher):
        results = {}
        for window in (5, 15):
            config = BasicConfig(
                citeseer_config(matcher=shared_citeseer_matcher), window=window
            )
            results[window] = BasicER(config, Cluster(3)).run(citeseer_small)
        assert results[5].total_time < results[15].total_time
        assert len(results[5].found_pairs) <= len(results[15].found_pairs)


def _pairs_filtered(baseline, dataset, config):
    """Every job's ``resolve.pairs_filtered`` counter, where one is set."""
    if baseline == "basic":
        driver = BasicER(BasicConfig(config), Cluster(3))
    else:
        driver = MultiPassMRSN(MrsnConfig(config), Cluster(3))
    flats = [job.counters.as_flat_dict() for job in driver.run(dataset).jobs]
    return [flat["resolve.pairs_filtered"] for flat in flats if "resolve.pairs_filtered" in flat]


@pytest.mark.parametrize("baseline", ["basic", "mrsn"])
class TestFilteredCounter:
    """The baselines count the same-source pairs their column veto
    filters under the counter Job 2 uses."""

    def test_linkage_run_counts_filtered_pairs(self, baseline):
        assert sum(_pairs_filtered(baseline, make_linkage(600, seed=1), linkage_config())) > 0

    def test_dirty_run_has_no_filtered_counter(
        self, baseline, citeseer_small, shared_citeseer_matcher
    ):
        config = citeseer_config(matcher=shared_citeseer_matcher)
        assert _pairs_filtered(baseline, citeseer_small, config) == []
