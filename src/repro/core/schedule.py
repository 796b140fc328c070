"""Progressive schedule generation (paper Section IV-C, Figure 6).

Produces a :class:`ProgressiveSchedule` from the Job-1 statistics and the
estimation model:

1. **Block elimination** ([17]): non-root blocks whose expected duplicate
   yield is non-positive are spliced out of their trees (their children
   re-attach to the grandparent) — resolving them would be pure overhead.
2. **Identify/split overflowed trees**: blocks are sorted into the utility
   list ``SL`` and bucketed by the cost vector ``C`` (scaled by the number
   of reduce tasks ``r``); a tree whose per-bucket cost ``VC`` exceeds a
   bucket's width cannot be load-balanced, so up to ``b`` such trees are
   split per iteration with the greedy ``SPLIT-TREE`` (children kept in
   utility order, split off only when keeping them would still overflow).
3. **Partition trees** over the reduce tasks greedily by maximum weighted
   slack ``SK(R)`` (ours / NoSplit) or by the classic LPT rule (baseline).
4. **Block schedules**: each task's blocks sorted by utility, with a
   child-before-parent fix (a parent must not be resolved before its
   children, or their work could not be skipped).

Strategies ``"ours"``, ``"nosplit"`` and ``"lpt"`` correspond to the three
tree schedulers compared in Section VI-B2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Set, Tuple

from ..blocking.blocks import Block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (balance imports us)
    from .balance import BlockShard
from ..mapreduce.clock import CostModel
from .config import linear_weights
from .estimation import BlockEstimate, EstimationModel
from .responsibility import compute_coverage
from .statistics import DatasetStatistics

_EPS = 1e-9
#: ``|C|``: the number of equal cost intervals the per-task share of the
#: estimated total cost is cut into.
NUM_INTERVALS = 10
#: ``b``: overflowed trees split per iteration of the Figure-6 loop.
SPLIT_BATCH = 4
_MAX_SPLIT_ITERATIONS = 100
_MAX_ELIMINATION_PASSES = 10


@dataclass
class ProgressiveSchedule:
    """The complete output of schedule generation.

    Attributes:
        num_tasks: number of reduce tasks ``r``.
        trees: tree-root uid -> root block (structure after elimination and
            splits).
        estimates: block uid -> final :class:`BlockEstimate`.
        assignment: tree uid -> reduce-task index (the *tree schedule*).
        block_order: per task, the ordered block uids (the *block
            schedules*).
        dominance: tree uid -> unique dominance value ``Dom(T)``.
        tree_of_block: block uid -> owning tree uid.
        main_tree: (family, main key) -> tree uid for level-1 roots.
        split_roots: family -> [(level, key, tree uid)] for split-off
            trees, sorted by level.
        cost_vector: the cost vector ``C`` actually used (possibly
            auto-extended).
        weights: ``W(c_i)`` per interval.
        generation_cost: virtual cost charged per Job-2 map task for
            generating this schedule.
        shards: routing key -> :class:`~repro.core.balance.BlockShard` for
            pair-range shards of root blocks; empty unless the
            ``pairrange`` balance strategy split something (see
            :func:`repro.core.balance.apply_balance`).
    """

    num_tasks: int
    trees: Dict[str, Block]
    estimates: Dict[str, BlockEstimate]
    assignment: Dict[str, int]
    block_order: List[List[str]]
    dominance: Dict[str, int]
    tree_of_block: Dict[str, str]
    main_tree: Dict[Tuple[str, str], str]
    split_roots: Dict[str, List[Tuple[int, str, str]]]
    cost_vector: List[float]
    weights: List[float]
    generation_cost: float
    blocks: Dict[str, Block] = field(default_factory=dict)
    shards: Dict[str, "BlockShard"] = field(default_factory=dict)

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    @property
    def num_blocks(self) -> int:
        return len(self.tree_of_block)


class _CostTracker:
    """Accumulates the virtual cost of generating the schedule (charged in
    every Job-2 map task's setup, Section III-B)."""

    def __init__(self, cost_model: CostModel) -> None:
        self._cost_model = cost_model
        self.total = 0.0

    def blocks_processed(self, count: int) -> None:
        self.total += self._cost_model.schedule_block * count

    def sorted_items(self, count: int) -> None:
        self.total += self._cost_model.sort_cost(count)


def generate_schedule(
    stats: DatasetStatistics,
    model: EstimationModel,
    num_tasks: int,
    *,
    strategy: str = "ours",
) -> ProgressiveSchedule:
    """Run the full Figure-6 pipeline and return the schedule.

    ``strategy``: ``"ours"`` (split + slack partition), ``"nosplit"``
    (slack partition without splits), ``"lpt"`` (longest-processing-time
    partition without splits).
    """
    if num_tasks < 1:
        raise ValueError(f"need at least one reduce task, got {num_tasks}")
    if strategy not in ("ours", "nosplit", "lpt"):
        raise ValueError(f"unknown strategy {strategy!r}")

    tracker = _CostTracker(model.cost_model)
    coverage = compute_coverage(stats)
    roots: List[Block] = []
    for family in stats.scheme.family_order:
        roots.extend(stats.roots.get(family, []))
    for root in roots:
        model.estimate_tree(root, coverage)
        tracker.blocks_processed(sum(1 for _ in root.subtree()))

    _eliminate_blocks(roots, model, coverage, tracker)

    trees: Dict[str, Block] = {root.uid: root for root in roots}
    cost_vector, weights = _derive_cost_vector(trees, model, num_tasks)

    if strategy == "ours":
        cost_vector, weights = _split_overflowed_trees(
            trees, model, num_tasks, cost_vector, weights, tracker
        )

    blocks = _all_blocks(trees)
    sl = _utility_sorted(blocks, model.estimates)
    tracker.sorted_items(len(sl))
    buckets, cost_vector, weights = _bucketize(
        sl, model, cost_vector, weights, num_tasks
    )
    widths = _bucket_widths(cost_vector)
    vc = {
        uid: _subtree_vc(root, buckets, model, len(cost_vector))
        for uid, root in trees.items()
    }

    if strategy == "lpt":
        assignment = place_units(
            tree_costs(trees, model.estimates).items(), num_tasks
        )
    else:
        assignment = _partition_by_slack(trees, vc, weights, widths, num_tasks)
    tracker.sorted_items(len(trees))

    block_order = build_block_orders(trees, model.estimates, assignment, num_tasks)
    for order in block_order:
        tracker.sorted_items(len(order))

    return _assemble_schedule(
        trees=trees,
        model=model,
        assignment=assignment,
        block_order=block_order,
        num_tasks=num_tasks,
        cost_vector=cost_vector,
        weights=weights,
        generation_cost=tracker.total,
    )


# ---------------------------------------------------------------------------
# Block elimination
# ---------------------------------------------------------------------------


def _eliminate_blocks(
    roots: Sequence[Block],
    model: EstimationModel,
    coverage: Dict[str, int],
    tracker: _CostTracker,
    *,
    threshold: float = _EPS,
) -> None:
    """Splice out non-root blocks with non-positive expected duplicates.

    A block with ``Dup <= 0`` is pure overhead: the mechanism is expected
    to find nothing its children will not already have found.  Children of
    an eliminated block re-attach to its parent, and the tree is
    re-estimated (level roles — leaf/mid — may have changed).
    """
    for root in roots:
        for _ in range(_MAX_ELIMINATION_PASSES):
            victim = next(
                (
                    block
                    for block in root.descendants()
                    if model.estimates[block.uid].dup <= threshold
                ),
                None,
            )
            if victim is None:
                break
            parent = victim.parent
            assert parent is not None  # descendants are never roots
            parent.detach_child(victim)
            for child in list(victim.children):
                victim.detach_child(child)
                parent.add_child(child)
            model.estimate_tree(root, coverage)
            tracker.blocks_processed(sum(1 for _ in root.subtree()))


# ---------------------------------------------------------------------------
# SL, buckets and cost vectors
# ---------------------------------------------------------------------------


def _all_blocks(trees: Dict[str, Block]) -> List[Block]:
    """All blocks of all trees."""
    blocks: List[Block] = []
    for root in trees.values():
        blocks.extend(root.subtree())
    return blocks


def _utility_sorted(
    blocks: Sequence[Block], estimates: Dict[str, BlockEstimate]
) -> List[Block]:
    """``SL``: blocks by non-increasing utility (uid tie-break)."""
    return sorted(
        blocks, key=lambda b: (-estimates[b.uid].util, b.uid)
    )


def _derive_cost_vector(
    trees: Dict[str, Block],
    model: EstimationModel,
    num_tasks: int,
) -> Tuple[List[float], List[float]]:
    """The cost vector ``C`` (per reduce task) and its weights ``W``
    (:func:`~repro.core.config.linear_weights`): :data:`NUM_INTERVALS`
    equal intervals spanning the estimated per-task share of the total
    cost.
    """
    total = sum(model.estimates[b.uid].cost for b in _all_blocks(trees))
    per_task = max(total / num_tasks, 1.0)
    vector = [per_task * (i + 1) / NUM_INTERVALS for i in range(NUM_INTERVALS)]
    weights = [linear_weights(i, len(vector)) for i in range(len(vector))]
    return vector, weights


def _bucketize(
    sl: Sequence[Block],
    model: EstimationModel,
    cost_vector: List[float],
    weights: List[float],
    num_tasks: int,
) -> Tuple[Dict[str, int], List[float], List[float]]:
    """Assign every block in ``SL`` to its cost bucket.

    The ``i``-th bucket holds the blocks resolvable during the
    ``(c_{i-1} * r, c_i * r]`` units of cumulative cost.  The vector is
    auto-extended (constant step, minimum weight) when the total cost
    exceeds ``c_|C| * r`` — e.g. after splits increased total cost.
    """
    vector = list(cost_vector)
    wts = list(weights)
    step = vector[-1] - vector[-2] if len(vector) > 1 else vector[-1]
    buckets: Dict[str, int] = {}
    cumulative = 0.0
    index = 0
    for block in sl:
        cumulative += model.estimates[block.uid].cost
        while cumulative > vector[index] * num_tasks + _EPS:
            if index + 1 == len(vector):
                vector.append(vector[-1] + step)
                wts.append(wts[-1])  # weights stay non-increasing
            index += 1
        buckets[block.uid] = index
    return buckets, vector, wts


def _bucket_widths(cost_vector: Sequence[float]) -> List[float]:
    """``c_i - c_{i-1}`` per interval (``c_0 = 0``)."""
    widths = [cost_vector[0]]
    for i in range(1, len(cost_vector)):
        widths.append(cost_vector[i] - cost_vector[i - 1])
    return widths


def _subtree_vc(
    block: Block,
    buckets: Dict[str, int],
    model: EstimationModel,
    num_buckets: int,
) -> List[float]:
    """``VC``: per-bucket total cost of a (sub-)tree's blocks."""
    vc = [0.0] * num_buckets
    for node in block.subtree():
        vc[buckets[node.uid]] += model.estimates[node.uid].cost
    return vc


# ---------------------------------------------------------------------------
# Identify / split overflowed trees
# ---------------------------------------------------------------------------


def _split_overflowed_trees(
    trees: Dict[str, Block],
    model: EstimationModel,
    num_tasks: int,
    cost_vector: List[float],
    weights: List[float],
    tracker: _CostTracker,
) -> Tuple[List[float], List[float]]:
    """The GENERATE-SCHEDULE loop of Figure 6 (lines 2-7).

    Trees that cannot be fixed (childless roots, or splits that make no
    progress) are excluded from further identification so the loop always
    terminates.
    """
    unsplittable: Set[str] = set()
    for _ in range(_MAX_SPLIT_ITERATIONS):
        blocks = _all_blocks(trees)
        sl = _utility_sorted(blocks, model.estimates)
        tracker.sorted_items(len(sl))
        buckets, cost_vector, weights = _bucketize(
            sl, model, cost_vector, weights, num_tasks
        )
        widths = _bucket_widths(cost_vector)
        overflowed = _identify_trees(trees, buckets, model, widths, unsplittable)
        if not overflowed:
            break
        for tree_uid in overflowed[:SPLIT_BATCH]:
            split_any = _split_tree(
                trees[tree_uid], trees, model, buckets, widths, len(cost_vector)
            )
            if not split_any:
                unsplittable.add(tree_uid)
    return cost_vector, weights


def _identify_trees(
    trees: Dict[str, Block],
    buckets: Dict[str, int],
    model: EstimationModel,
    widths: Sequence[float],
    unsplittable: Set[str],
) -> List[str]:
    """IDENTIFY-TREES: overflowed tree uids, worst excess first."""
    overflowed: List[Tuple[float, str]] = []
    for uid, root in trees.items():
        if uid in unsplittable or not root.children:
            continue
        vc = _subtree_vc(root, buckets, model, len(widths))
        excess = max(
            (vc[h] - widths[h] for h in range(len(widths))), default=0.0
        )
        if excess > _EPS:
            overflowed.append((excess, uid))
    overflowed.sort(key=lambda item: (-item[0], item[1]))
    return [uid for _, uid in overflowed]


def _split_tree(
    root: Block,
    trees: Dict[str, Block],
    model: EstimationModel,
    buckets: Dict[str, int],
    widths: Sequence[float],
    num_buckets: int,
) -> bool:
    """SPLIT-TREE (Figure 6): greedily keep high-utility children, split
    off the children whose retention would still overflow a bucket.

    Returns whether at least one child was split off.
    """
    kept: List[Block] = []
    children = sorted(
        root.children, key=lambda b: (-model.estimates[b.uid].util, b.uid)
    )
    split_any = False
    for child in children:
        if _should_split(child, root, kept, trees, model, buckets, widths, num_buckets):
            model.apply_split(root, child)
            trees[child.uid] = child
            split_any = True
        else:
            kept.append(child)
    return split_any


def _should_split(
    child: Block,
    root: Block,
    kept: List[Block],
    trees: Dict[str, Block],
    model: EstimationModel,
    buckets: Dict[str, int],
    widths: Sequence[float],
    num_buckets: int,
) -> bool:
    """SHOULD-SPLIT: would keeping ``child`` (next to the already-kept
    children) leave some bucket of this tree overflowed?

    ``V*`` is the root's re-estimated cost placed in the root's current SL
    bucket (its position in SL is deliberately not updated, as in the
    paper, to avoid re-sorting per child).
    """
    candidate_set = kept + [child]
    new_root_cost = model.split_cost_preview(root, candidate_set)
    root_bucket = buckets[root.uid]
    for h in range(num_buckets):
        total = new_root_cost if h == root_bucket else 0.0
        for kept_child in candidate_set:
            total += _subtree_vc(kept_child, buckets, model, num_buckets)[h]
        if total > widths[h] + _EPS:
            return True
    return False


# ---------------------------------------------------------------------------
# Partitioning trees over reduce tasks
# ---------------------------------------------------------------------------


def _partition_by_slack(
    trees: Dict[str, Block],
    vc: Dict[str, List[float]],
    weights: Sequence[float],
    widths: Sequence[float],
    num_tasks: int,
) -> Dict[str, int]:
    """PARTITION-TREES: weighted-cost order, maximum-slack greedy."""

    def weighted_cost(uid: str) -> float:
        return sum(w * c for w, c in zip(weights, vc[uid]))

    order = sorted(trees, key=lambda uid: (-weighted_cost(uid), uid))
    assigned_vc = [[0.0] * len(widths) for _ in range(num_tasks)]
    weighted_load = [0.0] * num_tasks
    assignment: Dict[str, int] = {}
    for uid in order:
        tree_vc = vc[uid]
        tree_weighted = sum(w * c for w, c in zip(weights, tree_vc))

        def slack(task: int) -> float:
            total = 0.0
            for h in range(len(widths)):
                if tree_vc[h] > 0.0:
                    total += weights[h] * (widths[h] - assigned_vc[task][h])
            return total

        # Maximum slack first; ties fall back to the least *weighted* load.
        # The weighting is what distinguishes this from LPT: a tree whose
        # cost sits in late (low-weight) buckets barely counts, so cold
        # giants may stack on one task — its early capacity stays free for
        # beneficial blocks — while LPT would waste a whole task per giant.
        best = max(
            range(num_tasks), key=lambda t: (slack(t), -weighted_load[t], -t)
        )
        assignment[uid] = best
        weighted_load[best] += tree_weighted
        for h in range(len(widths)):
            assigned_vc[best][h] += tree_vc[h]
    return assignment


def tree_costs(
    trees: Dict[str, Block], estimates: Dict[str, BlockEstimate]
) -> Dict[str, float]:
    """Total estimated cost per tree."""
    return {
        uid: sum(estimates[b.uid].cost for b in root.subtree())
        for uid, root in trees.items()
    }


def place_units(
    units: Iterable[Tuple[str, float]], num_tasks: int
) -> Dict[str, int]:
    """Longest Processing Time: ``(key, cost)`` units by non-increasing
    cost (key tie-break), each onto the least-loaded task, the lowest
    index on a tie.

    Serves the Section VI-B2 baseline scheduler and the delta planner.
    Insensitive to the order of ``units``; the returned dict lists the
    keys in placement order.
    """
    if num_tasks < 1:
        raise ValueError(f"need at least one task, got {num_tasks}")
    loads = [0.0] * num_tasks
    assignment: Dict[str, int] = {}
    for key, cost in sorted(units, key=lambda u: (-u[1], u[0])):
        best = loads.index(min(loads))
        assignment[key] = best
        loads[best] += cost
    return assignment


# ---------------------------------------------------------------------------
# Block schedules and final assembly
# ---------------------------------------------------------------------------


def build_block_orders(
    trees: Dict[str, Block],
    estimates: Dict[str, BlockEstimate],
    assignment: Dict[str, int],
    num_tasks: int,
) -> List[List[str]]:
    """SORT-BLOCKS per task: utility order with a child-before-parent fix.

    When a parent's turn comes before some of its children, the children
    are emitted immediately before it (highest utility first) — without
    this the parent could not skip the work its children were scheduled to
    do ([17]'s guarantee).

    Public so the balance strategies can rebuild orders after reassigning
    trees (they hold only the estimates dict, not the estimation model).
    """
    orders: List[List[str]] = [[] for _ in range(num_tasks)]
    for task in range(num_tasks):
        task_blocks: List[Block] = []
        for uid, root in trees.items():
            if assignment[uid] == task:
                task_blocks.extend(root.subtree())
        ranked = _utility_sorted(task_blocks, estimates)
        emitted: Set[str] = set()
        order: List[str] = []

        def emit(block: Block) -> None:
            for child in sorted(
                block.children, key=lambda b: (-estimates[b.uid].util, b.uid)
            ):
                if child.uid not in emitted:
                    emit(child)
            emitted.add(block.uid)
            order.append(block.uid)

        for block in ranked:
            if block.uid not in emitted:
                emit(block)
        orders[task] = order
    return orders


def _assemble_schedule(
    *,
    trees: Dict[str, Block],
    model: EstimationModel,
    assignment: Dict[str, int],
    block_order: List[List[str]],
    num_tasks: int,
    cost_vector: List[float],
    weights: List[float],
    generation_cost: float,
) -> ProgressiveSchedule:
    """Assign dominance values and build the final object."""
    dominance = {uid: dom for dom, uid in enumerate(sorted(trees))}
    tree_of_block: Dict[str, str] = {}
    blocks: Dict[str, Block] = {}
    main_tree: Dict[Tuple[str, str], str] = {}
    split_roots: Dict[str, List[Tuple[int, str, str]]] = {}
    for uid, root in trees.items():
        for block in root.subtree():
            tree_of_block[block.uid] = uid
            blocks[block.uid] = block
        if root.level == 1:
            main_tree[(root.family, root.key)] = uid
        else:
            split_roots.setdefault(root.family, []).append(
                (root.level, root.key, uid)
            )
    for family in split_roots:
        split_roots[family].sort()

    return ProgressiveSchedule(
        num_tasks=num_tasks,
        trees=trees,
        estimates=model.estimates,
        assignment=assignment,
        block_order=block_order,
        dominance=dominance,
        tree_of_block=tree_of_block,
        main_tree=main_tree,
        split_roots=split_roots,
        cost_vector=cost_vector,
        weights=weights,
        generation_cost=generation_cost,
        blocks=blocks,
    )


__all__ = [
    "ProgressiveSchedule",
    "generate_schedule",
    "build_block_orders",
    "place_units",
    "tree_costs",
]
