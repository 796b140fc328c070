"""Progressive Sorted Neighborhood Method (mechanism 2).

The paper's second mechanism (used for OL-Books): PSNM from
[Papenbrock, Heise & Naumann, TKDE '15].  Like SN it sorts the block on the
blocking attribute, but instead of materializing a pair hint it *iterates*
the window: first all rank-distance-1 neighbours across the whole sorted
list, then distance 2, and so on up to ``w - 1`` — progressively widening
the neighbourhood.  This is the SN hint's pair order too, and
:class:`~repro.mechanisms.sorted_neighbor.SortedNeighborHint` reuses this
stream; the difference is the cost profile: no pair list is built or
sorted, so ``CostA`` is just the entity sort.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.clock import CostModel
from .base import ChargeFn, Mechanism, Run, SortKey


class PSNM(Mechanism):
    """Progressive Sorted Neighborhood: lazy, rank-distance-iterated pairs."""

    name = "psnm"

    def pair_stream(
        self,
        entities: Sequence[Entity],
        window: int,
        sort_key: SortKey,
        charge: ChargeFn,
        cost_model: CostModel,
    ) -> Tuple[List[Entity], Iterator[Run]]:
        """Sort the block, then lazily yield one run per rank distance."""
        charge(self.additional_cost(len(entities), window, cost_model))
        ordered = sorted(entities, key=lambda e: (sort_key(e), e.id))
        n = len(ordered)
        runs = (
            (range(n - distance), range(distance, n))
            for distance in range(1, min(window, n))
        )
        return ordered, runs

    def additional_cost(self, n: int, window: int, cost_model: CostModel) -> float:
        """``CostA``: entity sort only (no materialized hint)."""
        return cost_model.hint_setup + cost_model.sort_cost(n)


__all__ = ["PSNM"]
