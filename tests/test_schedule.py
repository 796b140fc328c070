"""Unit tests for progressive schedule generation (Figure 6)."""

import pytest

from repro.blocking import citeseer_scheme
from repro.core.config import citeseer_config
from repro.core.estimation import EstimationModel, UniformEstimator
from repro.core.schedule import ProgressiveSchedule, generate_schedule
from repro.core.statistics import run_statistics_job
from repro.mapreduce import Cluster, CostModel


@pytest.fixture(scope="module")
def schedule_bundle(request):
    dataset = request.getfixturevalue("citeseer_small")
    scheme = citeseer_scheme()
    _, stats, _ = run_statistics_job(Cluster(2), dataset, scheme)
    return dataset, scheme, stats


def _make_schedule(dataset, stats, num_tasks=6, strategy="ours", probability=0.1):
    config = citeseer_config()
    model = EstimationModel(
        config, CostModel(), UniformEstimator(probability), len(dataset)
    )
    return generate_schedule(stats, model, num_tasks, strategy=strategy)


@pytest.fixture(scope="module")
def ours_schedule(schedule_bundle):
    dataset, _, stats = schedule_bundle
    return _make_schedule(dataset, stats)


class TestScheduleInvariants:
    def test_every_tree_assigned_exactly_once(self, ours_schedule):
        sched = ours_schedule
        assert set(sched.assignment) == set(sched.trees)
        assert all(0 <= t < sched.num_tasks for t in sched.assignment.values())

    def test_every_block_scheduled_exactly_once(self, ours_schedule):
        sched = ours_schedule
        scheduled = [uid for order in sched.block_order for uid in order]
        assert len(scheduled) == len(set(scheduled))
        assert set(scheduled) == set(sched.tree_of_block)

    def test_blocks_scheduled_on_their_trees_task(self, ours_schedule):
        sched = ours_schedule
        for task, order in enumerate(sched.block_order):
            for uid in order:
                tree = sched.tree_of_block[uid]
                assert sched.assignment[tree] == task

    def test_children_before_parents(self, ours_schedule):
        sched = ours_schedule
        for order in sched.block_order:
            position = {uid: i for i, uid in enumerate(order)}
            for uid in order:
                block = sched.blocks[uid]
                for child in block.children:
                    assert position[child.uid] < position[uid]

    def test_dominance_values_unique(self, ours_schedule):
        sched = ours_schedule
        values = list(sched.dominance.values())
        assert len(values) == len(set(values))
        assert all(v >= 0 for v in values)

    def test_main_tree_mapping_covers_level1_roots(self, ours_schedule):
        sched = ours_schedule
        level1 = [uid for uid, root in sched.trees.items() if root.level == 1]
        assert len(sched.main_tree) == len(level1)

    def test_split_roots_are_full(self, ours_schedule):
        sched = ours_schedule
        for family, entries in sched.split_roots.items():
            for level, key, uid in entries:
                assert level > 1
                assert sched.trees[uid].is_root
                assert sched.estimates[uid].full

    def test_roots_marked_full_nonroots_not(self, ours_schedule):
        sched = ours_schedule
        for uid, root in sched.trees.items():
            assert sched.estimates[uid].full
            for block in root.descendants():
                assert not sched.estimates[block.uid].full

    def test_generation_cost_positive(self, ours_schedule):
        assert ours_schedule.generation_cost > 0

    def test_cost_vector_increasing(self, ours_schedule):
        vector = ours_schedule.cost_vector
        assert vector == sorted(vector)
        assert all(c > 0 for c in vector)

    def test_weights_non_increasing(self, ours_schedule):
        weights = ours_schedule.weights
        assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))


class TestStrategies:
    def test_nosplit_never_splits(self, schedule_bundle):
        dataset, _, stats = schedule_bundle
        sched = _make_schedule(dataset, stats, strategy="nosplit")
        assert all(root.level == 1 for root in sched.trees.values())

    def test_ours_splits_overflowed_trees(self, schedule_bundle):
        dataset, _, stats = schedule_bundle
        # Many tasks + a high duplicate probability force tight buckets so
        # at least the giant title tree must be split.
        sched = _make_schedule(dataset, stats, num_tasks=12, strategy="ours")
        nosplit = _make_schedule(dataset, stats, num_tasks=12, strategy="nosplit")
        assert len(sched.trees) >= len(nosplit.trees)

    def test_lpt_balances_total_cost(self, schedule_bundle):
        dataset, _, stats = schedule_bundle
        sched = _make_schedule(dataset, stats, num_tasks=4, strategy="lpt")
        loads = [0.0] * 4
        for uid, task in sched.assignment.items():
            loads[task] += sum(
                sched.estimates[b.uid].cost for b in sched.trees[uid].subtree()
            )
        biggest_tree = max(
            sum(sched.estimates[b.uid].cost for b in root.subtree())
            for root in sched.trees.values()
        )
        # LPT guarantee-flavored sanity: makespan <= mean + largest item.
        assert max(loads) <= sum(loads) / 4 + biggest_tree + 1e-6

    def test_unknown_strategy_rejected(self, schedule_bundle):
        dataset, _, stats = schedule_bundle
        with pytest.raises(ValueError):
            _make_schedule(dataset, stats, strategy="bogus")

    def test_needs_at_least_one_task(self, schedule_bundle):
        dataset, _, stats = schedule_bundle
        with pytest.raises(ValueError):
            _make_schedule(dataset, stats, num_tasks=0)


class TestBlockElimination:
    def test_zero_probability_prunes_non_roots(self, schedule_bundle):
        dataset, _, stats = schedule_bundle
        # With no expected duplicates anywhere, every non-root block is
        # pure overhead and must be eliminated.
        sched = _make_schedule(dataset, stats, probability=0.0)
        for uid, root in sched.trees.items():
            assert not root.children

    def test_elimination_keeps_roots(self, schedule_bundle):
        dataset, _, stats = schedule_bundle
        sched = _make_schedule(dataset, stats, probability=0.0)
        level1 = [r for r in sched.trees.values() if r.level == 1]
        assert len(level1) == sum(len(r) for r in stats.roots.values())


class TestUtilityOrdering:
    def test_block_order_prefers_high_utility(self, ours_schedule):
        """Modulo the child-before-parent constraint, earlier blocks should
        not have drastically lower utility than later ones; verify the
        leading block of each task is its utility maximum among roots-free
        candidates."""
        sched = ours_schedule
        for order in sched.block_order:
            if len(order) < 2:
                continue
            utils = [sched.estimates[uid].util for uid in order]
            # The first scheduled block either has the max utility or is a
            # child of the max-utility block (resolved first by necessity).
            best = max(range(len(order)), key=lambda i: utils[i])
            best_block = sched.blocks[order[best]]
            first_block = sched.blocks[order[0]]
            ancestors = set()
            node = first_block
            while node is not None:
                ancestors.add(node.uid)
                node = node.parent
            assert best == 0 or best_block.uid in ancestors
