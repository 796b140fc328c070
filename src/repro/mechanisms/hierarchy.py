"""Hierarchical-partitioning hint (mechanism 3, extension).

Section III-A notes that progressive blocking was inspired by the
*hierarchical partitioning hint* of [Whang et al. '13] and that "our
approach can use the hierarchical partitioning hint along with an
appropriate ER algorithm as a mechanism M for resolving the blocks."
This module provides exactly that mechanism.

The block's sorted order is carved into leaf partitions of
``leaf_size`` entities; ``branching`` adjacent partitions form each parent
partition, recursively.  A pair's priority is the *smallest* partition
containing both entities — pairs co-located in a leaf are likeliest to be
duplicates and stream first, then pairs whose lowest common partition is
one level up, and so on.  Within a level, pairs stream by rank distance,
and the stream is truncated at rank distance < ``window`` so the
mechanism's work matches the SN family's.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.clock import CostModel
from .base import ChargeFn, Mechanism, Run, SortKey


class HierarchyHint(Mechanism):
    """Hierarchy-of-partitions pair prioritization [Whang'13]."""

    name = "hierarchy-hint"

    def __init__(self, leaf_size: int = 8, branching: int = 2) -> None:
        if leaf_size < 2:
            raise ValueError(f"leaf_size must be at least 2, got {leaf_size}")
        if branching < 2:
            raise ValueError(f"branching must be at least 2, got {branching}")
        self.leaf_size = leaf_size
        self.branching = branching

    def pair_stream(
        self,
        entities: Sequence[Entity],
        window: int,
        sort_key: SortKey,
        charge: ChargeFn,
        cost_model: CostModel,
    ) -> Tuple[List[Entity], Iterator[Run]]:
        """Window-bounded pairs by lowest-common-partition level: one run
        per (level, rank distance)."""
        charge(self.additional_cost(len(entities), window, cost_model))
        ordered = sorted(entities, key=lambda e: (sort_key(e), e.id))
        n = len(ordered)
        levels = self._levels(n) if n >= 2 else []
        # level -> distance -> left ranks, ascending.
        buckets: List[Dict[int, List[int]]] = [{} for _ in levels]
        for i in range(n):
            for j in range(i + 1, min(n, i + window)):
                level = self._common_level(i, j, levels)
                buckets[level].setdefault(j - i, []).append(i)
        runs: List[Run] = [
            (lefts, [i + distance for i in lefts])
            for bucket in buckets
            for distance, lefts in sorted(bucket.items())
        ]
        return ordered, iter(runs)

    def additional_cost(self, n: int, window: int, cost_model: CostModel) -> float:
        """``CostA``: entity sort plus building/ordering the hint."""
        from .base import window_pairs_count

        pairs = window_pairs_count(n, window)
        return (
            cost_model.hint_setup
            + cost_model.sort_cost(n)
            + cost_model.sort_cost(pairs)
        )

    # ------------------------------------------------------------------

    def _levels(self, n: int) -> List[int]:
        """Partition sizes per level: leaf_size, leaf_size*branching, ..."""
        sizes = [self.leaf_size]
        while sizes[-1] < n:
            sizes.append(sizes[-1] * self.branching)
        return sizes

    def _common_level(self, i: int, j: int, levels: Sequence[int]) -> int:
        """Index of the smallest partition level containing both ranks."""
        for index, size in enumerate(levels):
            if i // size == j // size:
                return index
        return len(levels) - 1


__all__ = ["HierarchyHint"]
