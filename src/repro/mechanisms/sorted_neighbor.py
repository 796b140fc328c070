"""Sorted Neighbor with the pay-as-you-go hint (mechanism 1).

The paper's first mechanism (used for CiteSeerX): the Sorted Neighbor
algorithm [Hernández & Stolfo '95] combined with the *sorted-pairs hint* of
[Whang et al. '13].  The block's entities are sorted on the blocking
attribute; the hint materializes every pair at rank distance < w and orders
the pairs by non-decreasing distance, so the most-likely duplicates (closest
neighbours) are resolved first.

Cost profile (``CostA``): sorting the entities **plus** generating and
sorting the explicit pair list — the hint is what makes this mechanism more
expensive per block than PSNM (Section VI-A3 / [17]).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.clock import CostModel
from .base import ChargeFn, Mechanism, Run, SortKey, window_pairs_count


class SortedNeighborHint(Mechanism):
    """SN + sorted-pairs hint: materialized, distance-ordered pair list."""

    name = "sn-hint"

    def pair_stream(
        self,
        entities: Sequence[Entity],
        window: int,
        sort_key: SortKey,
        charge: ChargeFn,
        cost_model: CostModel,
    ) -> Tuple[List[Entity], Iterator[Run]]:
        """Sort the block and build the hint: one run per rank distance."""
        charge(self.additional_cost(len(entities), window, cost_model))
        ordered = sorted(entities, key=lambda e: (sort_key(e), e.id))
        # The hint: all pairs with distance < window, ordered by distance
        # (ties broken by position for determinism).  Materialized up front,
        # exactly like the sorted-list-of-pairs hint in the paper.
        n = len(ordered)
        hint: List[Run] = [
            (range(n - distance), range(distance, n))
            for distance in range(1, min(window, n))
        ]
        return ordered, iter(hint)

    def additional_cost(self, n: int, window: int, cost_model: CostModel) -> float:
        """``CostA``: entity sort + hint generation/sort over window pairs."""
        pairs = window_pairs_count(n, window)
        return (
            cost_model.hint_setup
            + cost_model.sort_cost(n)
            + cost_model.sort_cost(pairs)
        )


__all__ = ["SortedNeighborHint"]
