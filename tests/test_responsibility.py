"""Unit tests for responsible trees: Cov / Uncov via inclusion-exclusion.

The key test verifies the paper's IE formula (computed from the Job-1
overlap statistics) against a brute-force per-pair computation on the same
data — they must agree exactly.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    BlockingScheme,
    build_forests,
    citeseer_scheme,
    prefix_function,
)
from repro.data.dataset import Dataset
from repro.data.entity import Entity
from repro.core.responsibility import (
    compute_coverage,
    covered_pairs,
    uncovered_pairs,
)
from repro.core.statistics import run_statistics_job
from repro.data.entity import pairs_count
from repro.mapreduce import Cluster


def _brute_force_uncovered(signatures):
    """Count pairs sharing at least one (non-None) dominating key."""
    count = 0
    for a, b in itertools.combinations(signatures, 2):
        if any(ka is not None and ka == kb for ka, kb in zip(a, b)):
            count += 1
    return count


def _histogram(signatures):
    histogram = {}
    for sig in signatures:
        histogram[sig] = histogram.get(sig, 0) + 1
    return histogram


class TestUncoveredPairs:
    def test_no_dominating_families(self):
        assert uncovered_pairs({(): 10}, 0) == 0

    def test_all_share_one_key(self):
        histogram = {("k",): 5}
        assert uncovered_pairs(histogram, 1) == pairs_count(5)

    def test_disjoint_keys_share_nothing(self):
        histogram = {("a",): 2, ("b",): 3}
        assert uncovered_pairs(histogram, 1) == pairs_count(2) + pairs_count(3)

    def test_none_keys_never_share(self):
        histogram = {(None,): 4}
        assert uncovered_pairs(histogram, 1) == 0

    def test_paper_figure4_example(self):
        # Figure 4: |Y1| = 30, overlapping X-blocks of 10 and 20 entities.
        # Uncov(Y1) = Pairs(10) + Pairs(20) = 45 + 190 = 235.
        histogram = {("x1",): 10, ("x2",): 20}
        assert uncovered_pairs(histogram, 1) == 235

    def test_two_families_inclusion_exclusion(self):
        # Both entities share the X key AND the Y key: the pair must be
        # counted once, not twice.
        histogram = {("x", "y"): 3}
        assert uncovered_pairs(histogram, 2) == pairs_count(3)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, "a", "b", "c"]),
                st.sampled_from([None, "p", "q"]),
            ),
            min_size=0,
            max_size=25,
        )
    )
    @settings(max_examples=120)
    def test_matches_brute_force_two_families(self, signatures):
        assert uncovered_pairs(_histogram(signatures), 2) == _brute_force_uncovered(
            signatures
        )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([None, "a", "b"]),
                st.sampled_from([None, "p", "q"]),
                st.sampled_from([None, "u", "v", "w"]),
            ),
            min_size=0,
            max_size=20,
        )
    )
    @settings(max_examples=80)
    def test_matches_brute_force_three_families(self, signatures):
        assert uncovered_pairs(_histogram(signatures), 3) == _brute_force_uncovered(
            signatures
        )


class TestCoverage:
    def test_covered_plus_uncovered_is_total(self):
        histogram = {("a",): 3, ("b",): 2, (None,): 1}
        size = 6
        cov = covered_pairs(size, histogram, 1)
        unc = uncovered_pairs(histogram, 1)
        assert cov + unc == pairs_count(size)

    def test_coverage_on_real_statistics(self, citeseer_small):
        scheme = citeseer_scheme()
        _, stats, _ = run_statistics_job(Cluster(2), citeseer_small, scheme)
        coverage = compute_coverage(stats)
        dataset = citeseer_small
        mains = {f: scheme.main_function(f) for f in scheme.family_order}
        forests = build_forests(dataset, scheme)
        # Verify a sample of blocks against brute force on memberships.
        rng = random.Random(0)
        blocks = [b for forest in forests.values() for b in forest.blocks()]
        for block in rng.sample(blocks, min(25, len(blocks))):
            dominating = scheme.family_order[: scheme.index_of(block.family) - 1]
            signatures = [
                tuple(mains[f].key_of(dataset.entity(eid)) for f in dominating)
                for eid in block.entity_ids
            ]
            expected = pairs_count(block.size) - _brute_force_uncovered(signatures)
            assert coverage[block.uid] == expected

    def test_coverage_non_negative_and_bounded(self, citeseer_small):
        scheme = citeseer_scheme()
        _, stats, _ = run_statistics_job(Cluster(2), citeseer_small, scheme)
        coverage = compute_coverage(stats)
        for uid, block in stats.blocks.items():
            assert 0 <= coverage[uid] <= pairs_count(block.size)

    def test_most_dominating_family_fully_covered(self, citeseer_small):
        scheme = citeseer_scheme()
        _, stats, _ = run_statistics_job(Cluster(2), citeseer_small, scheme)
        coverage = compute_coverage(stats)
        for uid, block in stats.blocks.items():
            if block.family == "X":
                assert coverage[uid] == pairs_count(block.size)


def _two_family_scheme(order=("X", "Y")):
    """A minimal two-family scheme; ``order`` controls dominance ≻_F."""
    functions = {
        "X": [prefix_function("X", 1, "a", 2)],
        "Y": [prefix_function("Y", 1, "b", 2)],
    }
    return BlockingScheme(families={f: functions[f] for f in order})


def _mini_dataset():
    """Three entities: 0 and 1 co-blocked under both families, 2 only
    under Y — the smallest input where dominance order changes coverage."""
    return Dataset(
        entities=[
            Entity(0, {"a": "xx1", "b": "yy1"}),
            Entity(1, {"a": "xx2", "b": "yy2"}),
            Entity(2, {"a": "qq1", "b": "yy3"}),
        ],
        clusters={0: 0, 1: 0, 2: 1},
        name="mini",
    )


class TestUncovEdgeCases:
    """Backfill: degenerate overlap chains the IE formula must survive."""

    def test_empty_histogram(self):
        for num_dominating in range(4):
            assert uncovered_pairs({}, num_dominating) == 0

    def test_all_none_chain_counts_nothing(self):
        # Entities present in no dominating family at all: every subset
        # projection hits a None and is excluded, so Uncov is exactly 0.
        histogram = {(None, None, None): 7}
        assert uncovered_pairs(histogram, 3) == 0

    def test_partially_empty_chain(self):
        # Two entities sharing only the second dominating family: the
        # singleton {1} contributes Pairs(2); every subset containing
        # family 0 projects onto a None and is excluded.
        histogram = {(None, "p"): 2}
        assert uncovered_pairs(histogram, 2) == pairs_count(2)

    def test_disjoint_chains_do_not_interact(self):
        # Each entity group overlaps a different dominating family; no
        # pair is double-counted, no inclusion-exclusion term survives
        # beyond the singletons.
        histogram = {("a", None): 2, (None, "p"): 3}
        assert uncovered_pairs(histogram, 2) == pairs_count(2) + pairs_count(3)

    def test_covered_with_empty_histogram_is_total(self):
        assert covered_pairs(5, {}, 2) == pairs_count(5)


class TestDominanceOrdering:
    """Backfill: the family order *is* the dominance order ≻_F."""

    def test_single_function_forest_is_fully_covered(self):
        # One family means no dominating families anywhere: every block
        # covers all its pairs.
        scheme = BlockingScheme(families={"X": [prefix_function("X", 1, "a", 2)]})
        _, stats, _ = run_statistics_job(Cluster(2), _mini_dataset(), scheme)
        coverage = compute_coverage(stats)
        assert coverage
        for uid, block in stats.blocks.items():
            assert coverage[uid] == pairs_count(block.size)

    def test_dominating_family_claims_shared_pair(self):
        # X ≻ Y: the (0, 1) pair belongs to X's tree; Y1:yy keeps only
        # the pairs involving entity 2.
        _, stats, _ = run_statistics_job(
            Cluster(2), _mini_dataset(), _two_family_scheme(("X", "Y"))
        )
        coverage = compute_coverage(stats)
        assert coverage["X1:xx"] == pairs_count(2)
        assert coverage["Y1:yy"] == pairs_count(3) - pairs_count(2)

    def test_reversed_order_flips_responsibility(self):
        # Y ≻ X: the same pair now belongs to Y's tree and X1:xx covers
        # nothing — responsibility is asymmetric by construction.
        _, stats, _ = run_statistics_job(
            Cluster(2), _mini_dataset(), _two_family_scheme(("Y", "X"))
        )
        coverage = compute_coverage(stats)
        assert coverage["Y1:yy"] == pairs_count(3)
        assert coverage["X1:xx"] == 0

    def test_every_pair_claimed_exactly_once(self):
        # Summing Cov over all blocks counts each co-blocked pair once
        # regardless of dominance direction (here blocks within a family
        # are disjoint, so no within-family double counting either).
        expected = 3  # the distinct co-blocked pairs (0,1), (0,2), (1,2)
        for order in (("X", "Y"), ("Y", "X")):
            _, stats, _ = run_statistics_job(
                Cluster(2), _mini_dataset(), _two_family_scheme(order)
            )
            coverage = compute_coverage(stats)
            assert sum(coverage.values()) == expected
