"""Property-based tests: load-balancing invariants over random workloads.

The splitter and placer are pure functions of the schedule's estimates, so
their invariants are checked directly on synthetic inputs:

* shard bounds always partition the pair space ``[0, total_pairs)``
  exactly — no pair lost, none compared twice;
* LPT placement is deterministic, insensitive to the order its work
  units are presented in, and breaks load ties by the lowest task index;
* the global ``pairrange`` cuts tile each split block's pair space and
  keep every task within one unit of the mean load.

Seeds are pinned (``@seed``) so CI failures replay locally; the profile
machinery in ``conftest.py`` additionally derandomizes under
``HYPOTHESIS_PROFILE=ci``.
"""

import copy
import random

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.blocking.blocks import Block
from repro.core.balance import (
    BALANCE_STRATEGIES,
    apply_balance,
    shard_bounds,
    skew_report,
)
from repro.core.estimation import BlockEstimate
from repro.core.schedule import ProgressiveSchedule, build_block_orders, place_units
from repro.mechanisms.base import window_pairs_count

_WINDOW = 10


# ---------------------------------------------------------------------------
# shard_bounds: exact partition of the pair space
# ---------------------------------------------------------------------------


@seed(20260807)
@given(
    total_pairs=st.integers(min_value=0, max_value=100_000),
    num_shards=st.integers(min_value=1, max_value=64),
)
def test_shard_bounds_partition_pair_space(total_pairs, num_shards):
    bounds = shard_bounds(total_pairs, num_shards)
    assert len(bounds) == num_shards + 1
    assert bounds[0] == 0
    assert bounds[-1] == total_pairs
    assert bounds == sorted(bounds)
    # Consecutive [start, stop) ranges tile [0, total_pairs) with no gap
    # and no overlap, and shard widths are balanced to within one pair.
    widths = [bounds[i + 1] - bounds[i] for i in range(num_shards)]
    assert sum(widths) == total_pairs
    assert all(w >= 0 for w in widths)
    if total_pairs >= num_shards:
        assert max(widths) - min(widths) <= 1


# ---------------------------------------------------------------------------
# place_units: deterministic, order-insensitive LPT
# ---------------------------------------------------------------------------


@st.composite
def work_units(draw):
    n = draw(st.integers(1, 40))
    costs = draw(
        st.lists(
            st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return [(f"unit{i:03d}", cost) for i, cost in enumerate(costs)]


@seed(20260807)
@given(
    units=work_units(),
    num_tasks=st.integers(1, 12),
    shuffle_seed=st.integers(0, 2**16),
)
def test_place_units_is_order_insensitive(units, num_tasks, shuffle_seed):
    baseline = place_units(units, num_tasks)
    shuffled = list(units)
    random.Random(shuffle_seed).shuffle(shuffled)
    assert place_units(shuffled, num_tasks) == baseline
    assert set(baseline) == {key for key, _ in units}
    assert all(0 <= task < num_tasks for task in baseline.values())


@seed(20260807)
@given(units=work_units(), num_tasks=st.integers(1, 12))
def test_place_units_respects_lpt_bound(units, num_tasks):
    """LPT's classic guarantee: makespan <= mean + heaviest unit."""
    assignment = place_units(units, num_tasks)
    loads = [0.0] * num_tasks
    for key, cost in units:
        loads[assignment[key]] += cost
    total = sum(cost for _, cost in units)
    heaviest = max((cost for _, cost in units), default=0.0)
    assert max(loads) <= total / num_tasks + heaviest + 1e-6


@seed(20260807)
@given(
    keys=st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=12, unique=True),
    cost=st.floats(1e-3, 1e4, allow_nan=False, allow_infinity=False),
    shuffle_seed=st.integers(0, 2**16),
)
def test_place_units_breaks_load_ties_by_lowest_task(keys, cost, shuffle_seed):
    """k equal units onto k empty tasks: unit i in key order lands on task i."""
    units = [(key, cost) for key in keys]
    random.Random(shuffle_seed).shuffle(units)
    assignment = place_units(units, len(keys))
    assert [assignment[key] for key in sorted(keys)] == list(range(len(keys)))


# ---------------------------------------------------------------------------
# Toy schedules of childless root blocks
# ---------------------------------------------------------------------------


def _toy_schedule(sizes, num_tasks):
    """A schedule of childless root blocks, one per size, LPT-assigned.

    Costs equal the mechanism pair count (``cost_a = 0``), the worst case
    for skew: all virtual time is comparisons.
    """
    trees = {}
    estimates = {}
    for i, n in enumerate(sizes):
        block = Block(
            family="X", level=1, key=f"b{i:03d}", entity_ids=(), size_override=n
        )
        pairs = window_pairs_count(n, _WINDOW)
        cost = float(max(pairs, 1))
        trees[block.uid] = block
        estimates[block.uid] = BlockEstimate(
            cov=0,
            d=0.5,
            frac=1.0,
            th=n,
            window=_WINDOW,
            dup=1.0,
            cost_p=cost,
            cost=cost,
            util=1.0 / cost,
            full=True,
        )
    assignment = place_units(
        [(uid, estimates[uid].cost) for uid in trees], num_tasks
    )
    return ProgressiveSchedule(
        num_tasks=num_tasks,
        trees=trees,
        estimates=estimates,
        assignment=assignment,
        block_order=build_block_orders(trees, estimates, assignment, num_tasks),
        dominance={uid: i for i, uid in enumerate(sorted(trees))},
        tree_of_block={uid: uid for uid in trees},
        main_tree={},
        split_roots={},
        cost_vector=[1.0],
        weights=[1.0],
        generation_cost=0.0,
        blocks=dict(trees),
    )


# ---------------------------------------------------------------------------
# global pairrange: cuts tile the pair space, loads stay within one unit
# ---------------------------------------------------------------------------


@seed(20260807)
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 40), min_size=1, max_size=16),
    num_tasks=st.integers(2, 8),
)
def test_global_pairrange_cuts_tile_pair_space(sizes, num_tasks):
    """Every block the global cuts split is tiled exactly by its shards."""
    schedule = _toy_schedule(sizes, num_tasks)
    plan = apply_balance(schedule, strategy="pairrange")

    by_block = {}
    for shard in plan.shards:
        by_block.setdefault(shard.block_uid, []).append(shard)
    assert set(by_block) == set(plan.split_blocks)
    for uid, shards in by_block.items():
        shards.sort(key=lambda s: s.index)
        total = window_pairs_count(
            schedule.trees[uid].size, schedule.estimates[uid].window
        )
        assert shards[0].start == 0
        assert shards[-1].stop == total
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start
        assert all(s.stop > s.start for s in shards)
    # The rewritten schedule stays well-formed: no order entry is
    # duplicated, every split root is replaced by all of its shards, and
    # the skew report matches the block orders.
    entries = [e for order in schedule.block_order for e in order]
    assert len(entries) == len(set(entries))
    known = set(schedule.tree_of_block) | set(schedule.shards)
    assert set(entries) == known - set(by_block)
    assert skew_report(schedule) == plan.after


@seed(20260807)
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 60), min_size=1, max_size=16),
    num_tasks=st.integers(2, 8),
)
def test_global_pairrange_load_bound(sizes, num_tasks):
    """Max planned load <= mean + the largest placed unit's cost.

    Work units are disjoint contiguous intervals of the global cost axis
    and each lands on the equal-width task range containing its midpoint,
    so a task's load can exceed its range width (the mean) by at most half
    of its first unit plus half of its last — bounded by one whole unit.
    (Toy blocks have ``cost_a = 0``, so a unit's cost equals its axis
    width exactly and the geometric bound is tight.)
    """
    schedule = _toy_schedule(sizes, num_tasks)
    plan = apply_balance(schedule, strategy="pairrange")

    split = set(plan.split_blocks)
    unit_costs = [
        schedule.estimates[uid].cost
        for uid in schedule.trees
        if uid not in split
    ]
    unit_costs.extend(shard.cost for shard in plan.shards)
    total = sum(unit_costs)
    assert abs(total - plan.after.total) <= 1e-6 * max(total, 1.0)
    assert plan.after.max <= total / num_tasks + max(unit_costs) + 1e-6


@seed(20260807)
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 30), min_size=1, max_size=20),
    num_tasks=st.integers(1, 8),
)
def test_apply_balance_is_deterministic(sizes, num_tasks):
    for strategy in BALANCE_STRATEGIES:
        first = _toy_schedule(sizes, num_tasks)
        second = copy.deepcopy(first)
        plan_a = apply_balance(first, strategy=strategy)
        plan_b = apply_balance(second, strategy=strategy)
        assert plan_a == plan_b
        assert first.assignment == second.assignment
        assert first.block_order == second.block_order
        assert first.shards == second.shards
