"""Unit tests for the hierarchical-partitioning hint mechanism."""

import pytest

from conftest import flatten_runs
from repro.data import Entity
from repro.mapreduce import CostModel
from repro.mechanisms import PSNM, HierarchyHint, window_pairs_count


def _entities(count):
    return [Entity(id=i, attrs={"v": f"v{i:03d}"}) for i in range(count)]


def _sort_key(e):
    return e.get("v")


def _pairs(mechanism, entities, window):
    members, runs = mechanism.pair_stream(
        entities, window, _sort_key, lambda c: None, CostModel()
    )
    return [
        (min(a.id, b.id), max(a.id, b.id)) for a, b in flatten_runs(members, runs)
    ]


class TestHierarchyHint:
    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchyHint(leaf_size=1)
        with pytest.raises(ValueError):
            HierarchyHint(branching=1)

    def test_same_pair_set_as_psnm(self):
        entities = _entities(30)
        hier = set(_pairs(HierarchyHint(leaf_size=4), entities, window=6))
        psnm = set(_pairs(PSNM(), entities, window=6))
        assert hier == psnm

    def test_pair_count_matches_window_formula(self):
        entities = _entities(25)
        pairs = _pairs(HierarchyHint(leaf_size=4), entities, window=5)
        assert len(pairs) == window_pairs_count(25, 5)
        assert len(set(pairs)) == len(pairs)  # no duplicates in the stream

    def test_leaf_pairs_stream_before_cross_partition_pairs(self):
        entities = _entities(16)
        mechanism = HierarchyHint(leaf_size=4, branching=2)
        pairs = _pairs(mechanism, entities, window=8)
        # First pair must be inside one leaf partition (ranks 0-3, 4-7, ...).
        a, b = pairs[0]
        assert a // 4 == b // 4
        # Pairs crossing the top-level midpoint (rank 7 | 8) come last-ish:
        # find first crossing pair and assert all leaf-local pairs precede it.
        def level(p):
            i, j = p
            size = 4
            lvl = 0
            while i // size != j // size:
                size *= 2
                lvl += 1
            return lvl

        levels = [level(p) for p in pairs]
        assert levels == sorted(levels)

    def test_small_block(self):
        entities = _entities(2)
        pairs = _pairs(HierarchyHint(), entities, window=5)
        assert pairs == [(0, 1)]

    def test_empty_and_singleton(self):
        assert _pairs(HierarchyHint(), [], window=5) == []
        assert _pairs(HierarchyHint(), _entities(1), window=5) == []

    def test_additional_cost_includes_hint(self):
        cm = CostModel()
        hier = HierarchyHint().additional_cost(50, 10, cm)
        psnm = PSNM().additional_cost(50, 10, cm)
        assert hier > psnm

    def test_usable_as_mechanism_m_end_to_end(self, citeseer_small, shared_citeseer_matcher):
        from repro.core import ProgressiveER, citeseer_config
        from repro.mapreduce import Cluster

        config = citeseer_config(
            matcher=shared_citeseer_matcher, mechanism=HierarchyHint()
        )
        result = ProgressiveER(config, Cluster(2)).run(citeseer_small)
        recall = len(result.found_pairs & citeseer_small.true_pairs)
        assert recall / citeseer_small.num_true_pairs > 0.7
