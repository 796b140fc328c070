"""Skew-aware load balancing for the resolution job.

The schedule generator places responsible trees on reduce tasks by maximum
weighted slack (Figure 6), but a single oversized block can still dominate
one task and flatten the progressive curve — the data-skew failure mode
analyzed by Kolb, Thor & Rahm in *Load Balancing for MapReduce-based Entity
Resolution*.  This module adds a post-pass over a generated
:class:`~repro.core.schedule.ProgressiveSchedule`:

* **skew detection** — per-task planned virtual loads from the Job-1
  estimates, summarized by Gini coefficient and max-over-mean ratio and
  surfaced as ``balance.*`` counters;
* **``pairrange``** — Kolb's *global* PairRange enumeration: the estimated
  pair stream of every full root block is laid out on one cumulative cost
  axis (canonical uid order), the axis is cut into ``num_tasks`` equal
  contiguous ranges, and any block a cut lands inside is split there into
  :class:`BlockShard` slices — so per-task loads are near-uniform no
  matter how skewed individual blocks are, with no oversize threshold.
  Only roots are ever sharded: a root is resolved to stream exhaustion
  (``full=True``), so its output is independent of where the stream is
  cut, while a non-root's :class:`~repro.mechanisms.base.DistinctBudget`
  stop condition depends on stream order and must never be sharded;
* **``slack``** — the paper baseline: the schedule is left untouched and
  only the skew report is computed.

Everything is derived from the schedule's deterministic estimates — no
wall-clock input and no randomness — so a balanced schedule is
bit-identical across execution backends and under fault injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..mechanisms.base import window_pairs_count
from .schedule import ProgressiveSchedule, build_block_orders, tree_costs

#: Recognised placement strategies (CLI ``--balance`` / ``RunSpec.balance``).
BALANCE_STRATEGIES = ("slack", "pairrange")

#: Separator inside shard routing keys; never appears in block uids.
SHARD_SEP = "\x1f"

_EPS = 1e-9


@dataclass(frozen=True)
class BlockShard:
    """One contiguous pair-range slice of a root block's pair stream.

    ``start``/``stop`` index positions of the mechanism's *raw* pair
    stream (before any SHOULD-RESOLVE veto), which is a deterministic
    enumeration — both SN-hint and PSNM yield pairs in (rank distance,
    position) order with exactly ``window_pairs_count(n, w)`` entries — so
    every shard resolves the same pairs no matter which task, backend or
    faulty timeline executes it.

    Only roots are sharded, so ``block_uid`` is also the shard's tree.
    Shard 0 stays on the tree's home reduce task (it reuses the tree's
    normal routing and the home task's per-tree resolved-pair skip);
    shards 1.. are routed under :attr:`key` to wherever placement put them.
    """

    key: str
    block_uid: str
    index: int
    start: int
    stop: int
    cost: float


@dataclass(frozen=True)
class SkewReport:
    """Planned per-task virtual loads and their skew statistics."""

    loads: Tuple[float, ...]

    @property
    def total(self) -> float:
        return sum(self.loads)

    @property
    def mean(self) -> float:
        return self.total / len(self.loads) if self.loads else 0.0

    @property
    def max(self) -> float:
        return max(self.loads) if self.loads else 0.0

    @property
    def max_over_mean(self) -> float:
        """Skew ratio: 1.0 is perfectly balanced."""
        mean = self.mean
        return self.max / mean if mean > 0 else 0.0

    @property
    def gini(self) -> float:
        """Gini coefficient of the load distribution (0 = equal)."""
        n = len(self.loads)
        total = self.total
        if n == 0 or total <= 0:
            return 0.0
        ordered = sorted(self.loads)
        weighted = sum((2 * i - n + 1) * x for i, x in enumerate(ordered))
        return weighted / (n * total)


@dataclass(frozen=True)
class BalancePlan:
    """The outcome of one :func:`apply_balance` pass (observational)."""

    strategy: str
    num_tasks: int
    before: SkewReport
    after: SkewReport
    shards: Tuple[BlockShard, ...]
    split_blocks: Tuple[str, ...]
    moved_trees: int
    top_blocks: Tuple[Tuple[str, float], ...]

    def counter_items(self) -> Dict[str, int]:
        """Integer ``balance.*`` counter values (ratios in milli-units).

        Derived purely from the deterministic plan, so they are safe to
        merge into the backend-identical job counters.
        """
        return {
            "shards": len(self.shards),
            "split_blocks": len(self.split_blocks),
            "moved_trees": self.moved_trees,
            "gini_before_milli": _milli(self.before.gini),
            "gini_after_milli": _milli(self.after.gini),
            "max_over_mean_before_milli": _milli(self.before.max_over_mean),
            "max_over_mean_after_milli": _milli(self.after.max_over_mean),
            "planned_makespan_before_milli": _milli(self.before.max),
            "planned_makespan_after_milli": _milli(self.after.max),
        }


def _milli(value: float) -> int:
    return int(round(value * 1000))


def shard_key(block_uid: str, index: int) -> str:
    """Routing key of one shard (distinct from every tree uid)."""
    return f"{block_uid}{SHARD_SEP}shard{index}"


def shard_bounds(total_pairs: int, num_shards: int) -> List[int]:
    """Equal-width position boundaries: ``num_shards + 1`` non-decreasing
    values from 0 to ``total_pairs`` whose consecutive ranges partition
    ``[0, total_pairs)`` exactly."""
    if total_pairs < 0:
        raise ValueError(f"total_pairs must be >= 0, got {total_pairs}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    return [total_pairs * i // num_shards for i in range(num_shards + 1)]


def planned_loads(schedule: ProgressiveSchedule) -> List[float]:
    """Per-task planned virtual cost under the schedule's block orders.

    Shard entries contribute their pair-range share; plain block entries
    contribute the block's estimated cost.
    """
    loads = [0.0] * schedule.num_tasks
    for task, order in enumerate(schedule.block_order):
        for entry in order:
            shard = schedule.shards.get(entry)
            if shard is not None:
                loads[task] += shard.cost
            else:
                loads[task] += schedule.estimates[entry].cost
    return loads


def skew_report(schedule: ProgressiveSchedule) -> SkewReport:
    """The schedule's current planned-load skew."""
    return SkewReport(loads=tuple(planned_loads(schedule)))


def apply_balance(
    schedule: ProgressiveSchedule, *, strategy: str = "slack"
) -> BalancePlan:
    """Rebalance ``schedule`` in place and return the observational plan.

    ``slack`` leaves the schedule byte-identical to the generator's output
    (only the skew report is computed), so the default path costs nothing
    and stays pinned by the existing golden fixtures.
    """
    if strategy not in BALANCE_STRATEGIES:
        raise ValueError(
            f"unknown balance strategy {strategy!r}; "
            f"expected one of {BALANCE_STRATEGIES}"
        )
    before = skew_report(schedule)
    top = _top_blocks(schedule)
    shards: Tuple[BlockShard, ...] = ()
    split_blocks: Tuple[str, ...] = ()
    moved = 0
    if strategy == "pairrange":
        shards, split_blocks, moved = _apply_pairrange(schedule)
    after = skew_report(schedule)
    return BalancePlan(
        strategy=strategy,
        num_tasks=schedule.num_tasks,
        before=before,
        after=after,
        shards=shards,
        split_blocks=split_blocks,
        moved_trees=moved,
        top_blocks=top,
    )


def _top_blocks(
    schedule: ProgressiveSchedule, limit: int = 5
) -> Tuple[Tuple[str, float], ...]:
    """The heaviest blocks by estimated cost (for reports)."""
    ranked = sorted(
        ((uid, schedule.estimates[uid].cost) for uid in schedule.tree_of_block),
        key=lambda item: (-item[1], item[0]),
    )
    return tuple(ranked[:limit])


# ---------------------------------------------------------------------------
# pairrange: global enumeration of the pair stream, cut into equal ranges
# ---------------------------------------------------------------------------


def _apply_pairrange(
    schedule: ProgressiveSchedule,
) -> Tuple[Tuple[BlockShard, ...], Tuple[str, ...], int]:
    """Faithful global PairRange (Kolb, Thor & Rahm).

    The estimated pair stream of *all* full root blocks is enumerated on
    one cumulative cost axis in canonical uid order: each tree contributes
    its non-splittable lump (children plus the root's setup cost) followed
    by the root's comparison span spread uniformly over its raw pair
    stream.  The axis is cut at ``t * total / num_tasks``; a cut that
    lands inside a block's span splits the block there into contiguous
    :class:`BlockShard` slices — no oversize threshold gates the split,
    any block a cut crosses is split, exactly as in the paper's PairRange.
    Every work unit then lands on the task whose range contains its
    midpoint, so per-task loads are near-uniform regardless of skew (max
    load exceeds the mean by at most one unit's residual cost).

    Shard 0 rides home with the tree's lump — children memberships are
    derived from the home task's buffered entities — so the home unit is
    the contiguous axis interval ``[tree start, end of shard 0)``.
    """
    num_tasks = schedule.num_tasks
    costs = tree_costs(schedule.trees, schedule.estimates)
    total = sum(costs.values())
    if total <= 0 or num_tasks < 1:
        return (), (), 0
    cuts = [total * t / num_tasks for t in range(1, num_tasks)]

    def task_of(midpoint: float) -> int:
        return min(num_tasks - 1, int(midpoint * num_tasks / total))

    home_tasks: Dict[str, int] = {}
    shards_of_tree: Dict[str, List[BlockShard]] = {}
    shard_tasks: Dict[str, int] = {}
    all_shards: List[BlockShard] = []
    axis = 0.0
    for uid in sorted(schedule.trees):
        root = schedule.trees[uid]
        estimate = schedule.estimates[uid]
        tree_start = axis
        axis += costs[uid]
        span = max(0.0, estimate.cost - estimate.cost_a)
        total_pairs = window_pairs_count(root.size, estimate.window)
        # Only full=True roots may be cut: their output is independent of
        # where the stream splits (resolved to exhaustion), while a
        # DistinctBudget stop depends on stream order.
        if not (estimate.full and total_pairs >= 2 and span > 0.0):
            home_tasks[uid] = task_of(tree_start + costs[uid] / 2.0)
            continue
        span_start = axis - span
        per_pair = span / total_pairs
        interior = sorted({
            min(total_pairs - 1,
                max(1, int(round((cut - span_start) / per_pair))))
            for cut in cuts
            if span_start + _EPS < cut < axis - _EPS
        })
        if not interior:
            home_tasks[uid] = task_of(tree_start + costs[uid] / 2.0)
            continue
        bounds = [0, *interior, total_pairs]
        shards = [
            BlockShard(
                key=shard_key(uid, index),
                block_uid=uid,
                index=index,
                start=start,
                stop=stop,
                cost=estimate.cost_a + per_pair * (stop - start),
            )
            for index, (start, stop) in enumerate(zip(bounds, bounds[1:]))
        ]
        shards_of_tree[uid] = shards
        all_shards.extend(shards)
        home_end = span_start + per_pair * bounds[1]
        home_tasks[uid] = task_of((tree_start + home_end) / 2.0)
        for index in range(1, len(shards)):
            mid = span_start + per_pair * (bounds[index] + bounds[index + 1]) / 2.0
            shard_tasks[shards[index].key] = task_of(mid)

    moved = _install_placement(
        schedule, home_tasks, shards_of_tree, shard_tasks, all_shards
    )
    return tuple(all_shards), tuple(sorted(shards_of_tree)), moved


def _install_placement(
    schedule: ProgressiveSchedule,
    home_tasks: Dict[str, int],
    shards_of_tree: Dict[str, List[BlockShard]],
    shard_tasks: Dict[str, int],
    all_shards: List[BlockShard],
) -> int:
    """Write a ``pairrange`` placement back into the schedule: assignment,
    shard table, per-task block orders with shard 0 spliced into the tree's
    home order and remote shards leading their task.  Returns how many
    trees changed home task."""
    num_tasks = schedule.num_tasks
    moved = 0
    new_assignment: Dict[str, int] = {}
    for uid in schedule.trees:
        new_assignment[uid] = home_tasks[uid]
        if home_tasks[uid] != schedule.assignment[uid]:
            moved += 1
    for shards in shards_of_tree.values():
        for shard in shards[1:]:
            new_assignment[shard.key] = shard_tasks[shard.key]
    schedule.assignment = new_assignment
    schedule.shards = {shard.key: shard for shard in all_shards}

    orders = build_block_orders(
        schedule.trees, schedule.estimates, home_tasks, num_tasks,
    )
    for uid, shards in shards_of_tree.items():
        home = home_tasks[uid]
        orders[home] = [
            shards[0].key if entry == uid else entry for entry in orders[home]
        ]
    # Remote shards carry the split blocks' comparison mass, so they lead
    # their task's order: starting the critical path first minimizes the
    # task's finish time without touching output sets.
    extra: Dict[int, List[BlockShard]] = {}
    for shards in shards_of_tree.values():
        for shard in shards[1:]:
            extra.setdefault(shard_tasks[shard.key], []).append(shard)
    for task, shard_list in extra.items():
        shard_list.sort(key=lambda s: (-s.cost, s.key))
        orders[task] = [shard.key for shard in shard_list] + orders[task]
    schedule.block_order = orders
    return moved


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def format_balance_summary(plan: BalancePlan) -> str:
    """A terminal table of the plan: skew before/after, shards, top blocks."""
    lines = [
        f"load balance — strategy {plan.strategy!r} over {plan.num_tasks} reduce tasks",
        f"  {'':14s}{'before':>12s}{'after':>12s}",
    ]
    rows = [
        ("makespan", plan.before.max, plan.after.max),
        ("mean load", plan.before.mean, plan.after.mean),
        ("max/mean", plan.before.max_over_mean, plan.after.max_over_mean),
        ("gini", plan.before.gini, plan.after.gini),
    ]
    for name, b, a in rows:
        lines.append(f"  {name:14s}{b:12.2f}{a:12.2f}")
    lines.append(
        f"  split blocks: {len(plan.split_blocks)}  shards: {len(plan.shards)}"
        f"  moved trees: {plan.moved_trees}"
    )
    if plan.top_blocks:
        lines.append("  heaviest blocks (estimated cost):")
        for uid, cost in plan.top_blocks:
            marker = " [split]" if uid in plan.split_blocks else ""
            lines.append(f"    {uid:24s}{cost:12.2f}{marker}")
    return "\n".join(lines)


__all__ = [
    "BALANCE_STRATEGIES",
    "BlockShard",
    "SkewReport",
    "BalancePlan",
    "apply_balance",
    "planned_loads",
    "skew_report",
    "shard_bounds",
    "shard_key",
    "format_balance_summary",
]
