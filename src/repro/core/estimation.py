"""Duplicate and cost estimation (paper Sections IV-B and VI-A4).

For every block the schedule generator needs:

* ``Dup(X^i_j)`` — duplicates the mechanism is expected to find when the
  block is resolved partially (Equation 2), built on a per-function
  estimate ``d(.)`` of the block's covered duplicate pairs;
* ``Cost(X^i_j)`` — Equation 3 for non-roots (``CostA + CostP``) and
  Equation 5 for roots (full resolution minus work already done in
  descendants), with ``Dis`` and ``Remain`` from Equation 4;
* ``Util = Dup / Cost`` — the block-priority measure.

``d(.)`` follows Section VI-A4: ``d = Prob(|X|) · Pairs(|X|)`` where
``Prob`` is learned from a training dataset as a function of the block's
size *fraction* of the dataset, binned into variable-size sub-ranges
(smaller blocks have higher duplicate density).  Oracle and uniform
estimators are provided as ablation hooks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..blocking.blocker import build_forests
from ..blocking.blocks import Block
from ..blocking.functions import BlockingScheme
from ..data.dataset import Dataset
from ..data.entity import pair_key
from ..mapreduce.clock import CostModel
from ..mechanisms.base import window_pairs_count
from .config import ApproachConfig

#: Upper bounds of the size-fraction sub-ranges used by the learned model.
FRACTION_BINS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,
)


class DuplicateEstimator(ABC):
    """``d(.)``: estimated covered duplicate pairs of a block."""

    @abstractmethod
    def estimate(self, block: Block, cov: int, dataset_size: int) -> float:
        """Estimate the covered duplicates of ``block`` (clamped to ``cov``)."""


class LearnedEstimator(DuplicateEstimator):
    """The paper's learned size-fraction probability model.

    ``fit`` builds the training dataset's forests, measures the true
    *covered*-duplicate probability of each block — a pair counts only if
    its entities share no main block of a dominating family, since those
    pairs are another tree's responsibility and resolving this block will
    never surface them — and aggregates it per ``(family, level)`` and
    fraction bin.  Lookup falls back from ``(family, level)`` to ``family``
    to the global bin when a bin has no training mass, and finally to the
    global covered-duplicate density.
    """

    def __init__(self) -> None:
        self._probs: Dict[Tuple[str, int, int], Tuple[float, float]] = {}
        self._global_density = 0.0
        self._fitted = False

    def fit(self, training: Dataset, scheme: BlockingScheme) -> "LearnedEstimator":
        """Learn bin probabilities from a labeled training dataset."""
        if not training.has_ground_truth:
            raise ValueError("the training dataset needs ground-truth clusters")
        forests = build_forests(training, scheme)
        true_pairs = training.true_pairs
        size = len(training)
        total_dups = 0.0
        total_pairs = 0.0
        for family, signatures in _main_key_signatures(training, scheme):
            for block in forests[family].blocks():
                dups, pairs = _covered_counts(block, true_pairs, signatures)
                if pairs == 0:
                    continue
                bin_index = _fraction_bin(block.size / size)
                for key in (
                    (family, block.level, bin_index),
                    (family, -1, bin_index),
                    ("*", -1, bin_index),
                ):
                    dup_acc, pair_acc = self._probs.get(key, (0.0, 0.0))
                    self._probs[key] = (dup_acc + dups, pair_acc + pairs)
                total_dups += dups
                total_pairs += pairs
        self._global_density = total_dups / total_pairs if total_pairs else 0.0
        self._fitted = True
        return self

    def probability(self, family: str, level: int, fraction: float) -> float:
        """``Prob(|X|)``: covered-duplicate probability for a block of the
        given family/level/size fraction."""
        if not self._fitted:
            raise RuntimeError("LearnedEstimator.fit was never called")
        bin_index = _fraction_bin(fraction)
        for key in ((family, level, bin_index), (family, -1, bin_index), ("*", -1, bin_index)):
            dups, pairs = self._probs.get(key, (0.0, 0.0))
            if pairs > 0:
                return dups / pairs
        return self._global_density

    def estimate(self, block: Block, cov: int, dataset_size: int) -> float:
        prob = self.probability(block.family, block.level, block.size / dataset_size)
        return prob * cov


class OracleEstimator(DuplicateEstimator):
    """Ablation: exact per-block *covered*-duplicate counts from the
    ground truth (the quantity ``d(.)`` is defined to estimate)."""

    def __init__(self) -> None:
        self._dups: Dict[str, int] = {}

    def fit(self, dataset: Dataset, scheme: BlockingScheme) -> "OracleEstimator":
        """Count the covered true duplicate pairs of every block."""
        forests = build_forests(dataset, scheme)
        true_pairs = dataset.true_pairs
        for family, signatures in _main_key_signatures(dataset, scheme):
            for block in forests[family].blocks():
                dups, _ = _covered_counts(block, true_pairs, signatures)
                self._dups[block.uid] = dups
        return self

    def estimate(self, block: Block, cov: int, dataset_size: int) -> float:
        return min(float(cov), float(self._dups.get(block.uid, 0)))


class UniformEstimator(DuplicateEstimator):
    """Ablation: a single duplicate probability for every block, erasing
    the size-dependence the learned model captures."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.probability = probability

    def estimate(self, block: Block, cov: int, dataset_size: int) -> float:
        return self.probability * cov


def _main_key_signatures(dataset: Dataset, scheme: BlockingScheme):
    """Yield, per family in dominance order, ``(family, entity id -> tuple
    of main keys under the dominating families)``; every entity's keys
    are computed once."""
    keys = {e.id: tuple(scheme.main_keys(e).values()) for e in dataset.entities}
    for rank, family in enumerate(scheme.family_order):
        yield family, {eid: row[:rank] for eid, row in keys.items()}


def _covered_counts(block: Block, true_pairs, signatures) -> Tuple[int, int]:
    """(covered duplicate pairs, covered pairs) of a block.

    A pair is *covered* by this block's family when its entities share no
    main block of a dominating family (Section IV-A).
    """
    ids = block.entity_ids
    dups = 0
    pairs = 0
    for i in range(len(ids)):
        sig_i = signatures[ids[i]]
        for j in range(i + 1, len(ids)):
            sig_j = signatures[ids[j]]
            if any(a is not None and a == b for a, b in zip(sig_i, sig_j)):
                continue  # another family's responsibility
            pairs += 1
            if pair_key(ids[i], ids[j]) in true_pairs:
                dups += 1
    return dups, pairs


def _fraction_bin(fraction: float) -> int:
    """Index of the size-fraction sub-range containing ``fraction``."""
    return min(bisect_left(FRACTION_BINS, fraction), len(FRACTION_BINS) - 1)


# ---------------------------------------------------------------------------


@dataclass
class BlockEstimate:
    """All per-block values the schedule generator works with.

    ``full`` marks blocks resolved to stream exhaustion (roots — including
    roots created by tree splits).
    """

    cov: float
    d: float
    frac: float
    th: int
    window: int
    dup: float = 0.0
    dis: float = 0.0
    cost_a: float = 0.0
    cost_p: float = 0.0
    cost: float = 1.0
    util: float = 0.0
    full: bool = False

    def refresh_util(self) -> None:
        """Recompute ``Util = Dup / Cost``."""
        self.util = self.dup / self.cost if self.cost > 0 else 0.0


class EstimationModel:
    """Computes and maintains :class:`BlockEstimate` values for all blocks.

    The model is *mutable with respect to tree splits*: when the schedule
    generator detaches a sub-tree it calls :meth:`apply_split`, which
    updates the estimates of the split root and its former parent exactly
    as Section IV-C2 prescribes.
    """

    def __init__(
        self,
        config: ApproachConfig,
        cost_model: CostModel,
        estimator: DuplicateEstimator,
        dataset_size: int,
        *,
        avg_cost_factor: float = 1.0,
        pair_scales: Optional[Dict[str, float]] = None,
    ) -> None:
        self.config = config
        self.cost_model = cost_model
        self.estimator = estimator
        self.dataset_size = dataset_size
        self.pair_cost = cost_model.compare * avg_cost_factor
        #: Per-block fraction of raw pairs that are actual candidates —
        #: the cross-source fraction in clean-clean linkage and/or the
        #: meta-blocking keep ratio.  Scaling ``cov`` by it propagates
        #: through Equations 2-5 (``d``, ``Remain``, ``CostP``) and —
        #: since ``CostF`` multiplies the reachable pairs by
        #: ``cov / total`` — shrinks full-resolution costs to the pairs
        #: the mechanism will really charge, keeping PairRange's
        #: uniform-per-position load model accurate.
        self.pair_scales = pair_scales or {}
        self.estimates: Dict[str, BlockEstimate] = {}

    # -- initial bottom-up pass -----------------------------------------

    def estimate_tree(self, root: Block, coverage: Dict[str, int]) -> None:
        """Estimate every block of ``root``'s tree, children before parents."""
        for block in root.subtree_bottom_up():
            self._estimate_block(block, float(coverage[block.uid]))

    def _estimate_block(self, block: Block, cov: float) -> None:
        cov *= self.pair_scales.get(block.uid, 1.0)
        levels = self.config.levels
        estimate = BlockEstimate(
            cov=cov,
            d=self.estimator.estimate(block, int(cov), self.dataset_size),
            frac=levels.frac_of(block),
            th=levels.threshold_of(block),
            window=levels.window_of(block),
            full=block.is_root,
        )
        self.estimates[block.uid] = estimate
        self._recompute(block)

    # -- recomputation (shared by the initial pass and splits) -----------

    def _recompute(self, block: Block) -> None:
        """Recompute Dup/Dis/Cost/Util of ``block`` from its current
        children's estimates (Equations 2-5)."""
        est = self.estimates[block.uid]
        children = [self.estimates[c.uid] for c in block.children]
        descendants = [self.estimates[d.uid] for d in block.descendants()]

        est.dup = max(0.0, est.frac * est.d - sum(c.frac * c.d for c in children))
        est.cost_a = self.config.mechanism.additional_cost(
            block.size, est.window, self.cost_model
        )
        if est.full:
            est.dis = 0.0
            est.cost_p = 0.0
            cost_f = self._full_resolution_cost(block, est)
            est.cost = max(
                est.cost_a,
                est.cost_a + cost_f - sum(d.cost_p for d in descendants),
            )
        else:
            remain = max(
                0.0, est.cov - est.d - sum(d.dis for d in descendants)
            )
            est.dis = min(float(est.th), remain)
            est.cost_p = (est.dup + est.dis) * self.pair_cost
            est.cost = est.cost_a + est.cost_p
        est.refresh_util()

    def _full_resolution_cost(self, block: Block, est: BlockEstimate) -> float:
        """``CostF``: resolving the block to exhaustion (covered pairs only
        — uncovered shared pairs are skipped by SHOULD-RESOLVE at ~zero
        cost, so they are excluded, as Section IV-A prescribes)."""
        total = block.total_pairs
        covered_ratio = est.cov / total if total > 0 else 0.0
        reachable = window_pairs_count(block.size, est.window)
        return reachable * covered_ratio * self.pair_cost

    # -- tree splits -------------------------------------------------------

    def apply_split(self, parent: Block, child: Block) -> None:
        """Detach ``child``'s sub-tree and update both estimates
        (Section IV-C2's split strategy).

        The child becomes a root resolved fully: ``Frac`` becomes 1, its
        cost switches to Equation 5.  The parent loses the child's covered
        pairs and the *increase* of the child's duplicate estimate.
        """
        child_est = self.estimates[child.uid]
        parent_est = self.estimates[parent.uid]
        old_child_dup = child_est.dup

        parent.detach_child(child)

        levels = self.config.levels
        child_est.frac = 1.0
        child_est.full = True
        child_est.window = levels.root_window
        self._recompute(child)

        parent_est.cov = max(0.0, parent_est.cov - child_est.cov)
        dup_increase = max(0.0, child_est.dup - old_child_dup)
        # Recompute the parent from Equation 5 with the reduced descendant
        # set and coverage, then apply the paper's duplicate adjustment.
        old_parent_dup = parent_est.dup
        self._recompute(parent)
        parent_est.dup = max(0.0, old_parent_dup - dup_increase)
        parent_est.refresh_util()

    def split_cost_preview(self, parent: Block, kept_children: Sequence[Block]) -> float:
        """``SHOULD-SPLIT`` support: the parent's cost if its child set were
        reduced to ``kept_children`` (everything else split off), without
        mutating any state."""
        est = self.estimates[parent.uid]
        kept = {c.uid for c in kept_children}
        removed_cov = sum(
            self.estimates[c.uid].cov for c in parent.children if c.uid not in kept
        )
        cov = max(0.0, est.cov - removed_cov)
        descendants_cost_p = 0.0
        for child in parent.children:
            if child.uid not in kept:
                continue
            for node in child.subtree():
                descendants_cost_p += self.estimates[node.uid].cost_p
        total = parent.total_pairs
        covered_ratio = cov / total if total > 0 else 0.0
        reachable = window_pairs_count(parent.size, est.window)
        cost_f = reachable * covered_ratio * self.pair_cost
        return max(est.cost_a, est.cost_a + cost_f - descendants_cost_p)


__all__ = [
    "DuplicateEstimator",
    "LearnedEstimator",
    "OracleEstimator",
    "UniformEstimator",
    "BlockEstimate",
    "EstimationModel",
    "FRACTION_BINS",
]
