"""Exhaustive (all-pairs) resolution.

Not one of the paper's progressive mechanisms, but the traditional
similarity-computation baseline: every pair in the block, in arbitrary
(id) order.  Useful as a worst-case comparator in examples and ablations,
and as the semantics reference in tests (any window-limited mechanism finds
a subset of what this one finds).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.clock import CostModel
from .base import ChargeFn, Mechanism, Run, SortKey


class FullResolution(Mechanism):
    """Compare all pairs of the block; ``window`` is ignored."""

    name = "full"

    def pair_stream(
        self,
        entities: Sequence[Entity],
        window: int,
        sort_key: SortKey,
        charge: ChargeFn,
        cost_model: CostModel,
    ) -> Tuple[List[Entity], Iterator[Run]]:
        """Every pair in id order: one run per left member."""
        charge(self.additional_cost(len(entities), window, cost_model))
        ordered = sorted(entities, key=lambda e: e.id)
        n = len(ordered)
        runs = (([i] * (n - 1 - i), range(i + 1, n)) for i in range(n - 1))
        return ordered, runs

    def additional_cost(self, n: int, window: int, cost_model: CostModel) -> float:
        """``CostA``: reading the block members (no sort, no hint)."""
        return cost_model.read_record * n


__all__ = ["FullResolution"]
