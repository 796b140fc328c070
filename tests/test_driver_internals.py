"""White-box tests of Job-2 driver internals: tree chains with splits,
event deduplication, and cost-factor sampling."""

import pytest

from repro.core.driver import ProgressiveER, ResolutionMapper, first_discoveries
from repro.core import books_config, citeseer_config
from repro.core.config import linkage_config
from repro.core.estimation import EstimationModel, UniformEstimator
from repro.core.schedule import generate_schedule
from repro.core.statistics import run_statistics_job
from repro.data.linkage import make_linkage
from repro.mapreduce import Cluster, CostModel
from repro.mapreduce.types import Event


class TestFirstDiscoveries:
    def test_keeps_earliest_per_pair(self):
        events = [
            Event(time=5.0, kind="duplicate", payload=(1, 2)),
            Event(time=2.0, kind="duplicate", payload=(1, 2)),
            Event(time=3.0, kind="duplicate", payload=(3, 4)),
            Event(time=9.0, kind="other", payload=(5, 6)),
        ]
        kept = first_discoveries(events)
        assert [(e.time, e.payload) for e in kept] == [(2.0, (1, 2)), (3.0, (3, 4))]

    def test_empty(self):
        assert first_discoveries([]) == []


class TestCostFactorSampling:
    def test_reasonable_range(self, citeseer_small, citeseer_cfg):
        er = ProgressiveER(citeseer_cfg, Cluster(1))
        factor = er._average_cost_factor(citeseer_small)
        assert 0.2 <= factor <= 10.0

    def test_deterministic_per_seed(self, citeseer_small, citeseer_cfg):
        a = ProgressiveER(citeseer_cfg, Cluster(1), seed=3)
        b = ProgressiveER(citeseer_cfg, Cluster(1), seed=3)
        assert a._average_cost_factor(citeseer_small) == b._average_cost_factor(
            citeseer_small
        )

    def test_tiny_dataset_falls_back(self, citeseer_cfg):
        from repro.data import Dataset, Entity

        er = ProgressiveER(citeseer_cfg, Cluster(1))
        ds = Dataset(entities=[Entity(id=0, attrs={})])
        assert er._average_cost_factor(ds) == 1.0


class TestSplitTreeRouting:
    def test_entities_routed_to_split_trees(
        self, citeseer_medium, shared_citeseer_matcher
    ):
        """When the schedule splits a sub-tree off, the mapper must emit
        the sub-tree's entities to it (with the (n+1)-st dominance entry
        on the parent-tree emission)."""
        config = citeseer_config(matcher=shared_citeseer_matcher)
        result = ProgressiveER(config, Cluster(10)).run(citeseer_medium)
        schedule = result.schedule
        split_trees = [
            uid for family in schedule.split_roots.values() for _, _, uid in family
        ]
        if not split_trees:
            pytest.skip("no tree was split at this scale")
        # Every split tree must have received routed entities: its blocks
        # were resolved, so its root block appears in some task's order and
        # produced comparisons or at least got members.
        n = config.scheme.num_families
        routed_to_split = set()
        long_lists = 0
        for task in result.job2.map_tasks:
            for key, (entity, dom_list) in task.output:
                if key in split_trees:
                    routed_to_split.add(key)
                if len(dom_list) > n:
                    long_lists += 1
        assert routed_to_split == set(split_trees)
        assert long_lists > 0, "parent-tree emissions must carry split entries"

    def test_split_entries_reference_real_trees(
        self, citeseer_medium, shared_citeseer_matcher
    ):
        config = citeseer_config(matcher=shared_citeseer_matcher)
        result = ProgressiveER(config, Cluster(10)).run(citeseer_medium)
        schedule = result.schedule
        doms = set(schedule.dominance.values())
        n = config.scheme.num_families
        for task in result.job2.map_tasks:
            for _, (entity, dom_list) in task.output:
                if len(dom_list) > n:
                    assert dom_list[n] in doms


def _rescanned_chain(schedule, scheme, entity, family, main_key):
    """The loop ``_tree_chain`` replaced: every split root of the family
    tested against the entity's key at that root's level."""
    chain = []
    main_uid = schedule.main_tree.get((family, main_key))
    if main_uid is not None:
        chain.append(main_uid)
    functions = scheme.families[family]
    for level, key, uid in schedule.split_roots.get(family, ()):
        if functions[level - 1].key_of(entity) == key:
            chain.append(uid)
    return chain


def _annotated_and_schedule(dataset, config):
    """Job 1 plus schedule generation, without resolving anything."""
    cluster = Cluster(3)
    annotated, stats, _ = run_statistics_job(cluster, dataset, config.scheme)
    model = EstimationModel(config, CostModel(), UniformEstimator(0.05), len(dataset))
    schedule = generate_schedule(
        stats, model, cluster.num_reduce_tasks, strategy="ours"
    )
    return annotated, schedule


class TestTreeChainIndex:
    """The mapper's level -> key -> uids index yields the chain the
    per-entity rescan of ``split_roots`` did: same uids, same order."""

    @pytest.mark.parametrize("family_name", ["books", "citeseer", "linkage"])
    def test_chain_equals_the_rescan_for_every_entity(
        self, family_name, books_small, citeseer_small
    ):
        dataset, config = {
            "books": (books_small, books_config()),
            "citeseer": (citeseer_small, citeseer_config()),
            "linkage": (make_linkage(600, seed=13), linkage_config()),
        }[family_name]
        annotated, schedule = _annotated_and_schedule(dataset, config)
        mapper = ResolutionMapper(schedule, config.scheme)
        levels = {level for roots in schedule.split_roots.values() for level, _, _ in roots}
        assert len(levels) > 1, "need split roots on several levels"
        split_hits = 0
        for entity, main_keys in annotated:
            for family in config.scheme.family_order:
                key = main_keys.get(family)
                if key is None:
                    continue
                chain = mapper._tree_chain(entity, family, key)
                assert chain == _rescanned_chain(
                    schedule, config.scheme, entity, family, key
                )
                split_hits += len(chain) > 1
        assert split_hits > 0

    def test_roots_sharing_a_level_and_key_keep_uid_order(self, books_small):
        config = books_config()
        annotated, schedule = _annotated_and_schedule(books_small, config)
        family, roots = next(iter(schedule.split_roots.items()))
        level, key, uid = roots[0]
        # A second root under the same (level, key), sorting after the first.
        schedule.split_roots[family] = sorted(roots + [(level, key, uid + "~twin")])
        mapper = ResolutionMapper(schedule, config.scheme)
        checked = 0
        for entity, main_keys in annotated:
            main_key = main_keys.get(family)
            if main_key is None:
                continue
            chain = mapper._tree_chain(entity, family, main_key)
            assert chain == _rescanned_chain(
                schedule, config.scheme, entity, family, main_key
            )
            if uid in chain:
                assert chain[chain.index(uid) + 1] == uid + "~twin"
                checked += 1
        assert checked > 0
