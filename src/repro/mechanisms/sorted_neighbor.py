"""Sorted Neighbor with the pay-as-you-go hint (mechanism 1).

The paper's first mechanism (used for CiteSeerX): the Sorted Neighbor
algorithm [Hernández & Stolfo '95] combined with the *sorted-pairs hint* of
[Whang et al. '13].  The block's entities are sorted on the blocking
attribute; the hint materializes every pair at rank distance < w and orders
the pairs by non-decreasing distance, so the most-likely duplicates (closest
neighbours) are resolved first.

That is exactly the order :class:`~repro.mechanisms.psnm.PSNM` walks, so
the pair stream is PSNM's; only the cost profile differs.  ``CostA`` is
sorting the entities **plus** generating and sorting the explicit pair
list — the hint is what makes this mechanism more expensive per block than
PSNM (Section VI-A3 / [17]).
"""

from __future__ import annotations

from ..mapreduce.clock import CostModel
from .base import window_pairs_count
from .psnm import PSNM


class SortedNeighborHint(PSNM):
    """SN + sorted-pairs hint: PSNM's distance-ordered pairs, charged as a
    materialized, sorted pair list."""

    name = "sn-hint"

    def additional_cost(self, n: int, window: int, cost_model: CostModel) -> float:
        """``CostA``: entity sort + hint generation/sort over window pairs."""
        pairs = window_pairs_count(n, window)
        return (
            cost_model.hint_setup
            + cost_model.sort_cost(n)
            + cost_model.sort_cost(pairs)
        )


__all__ = ["SortedNeighborHint"]
