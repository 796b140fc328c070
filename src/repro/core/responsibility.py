"""Responsible trees and covered-pair computation (paper Section IV-A).

A pair that exists in blocks of several main blocking functions is resolved
by the tree of the most *dominating* function containing it (total order
``≻_F``, given by the family order of the blocking scheme).  A block's
*covered* pairs are those it is responsible for:

    ``Cov(X^i_j) = Pairs(|X^i_j|) - Uncov(X^i_j)``

where ``Uncov`` counts the pairs already claimed by a dominating family —
evaluated with the paper's inclusion–exclusion formula over the ``OLP``
overlap statistics.  Here the Job-1 statistics store, per block, a
histogram of its entities over dominating-family main-key tuples, from
which every ``OLP({X^i_j} ∪ H)`` term is a marginal.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Tuple

from ..data.entity import pairs_count
from .statistics import DatasetStatistics, OverlapHistogram


def uncovered_pairs(histogram: OverlapHistogram, num_dominating: int) -> int:
    """``Uncov(X^i_j)``: pairs of this block sharing a main block of at
    least one dominating family.

    Inclusion–exclusion over the non-empty subsets ``S`` of dominating
    families: for each ``S``, entities are grouped by their key tuple
    restricted to ``S`` (entities missing any key in ``S`` share no block
    there and are excluded); each group of ``c`` entities contributes
    ``Pairs(c)`` co-blocked pairs.
    """
    if num_dominating == 0:
        return 0
    total = 0
    for subset_size in range(1, num_dominating + 1):
        sign = 1 if subset_size % 2 == 1 else -1
        for subset in combinations(range(num_dominating), subset_size):
            groups: Dict[Tuple[str, ...], int] = {}
            for signature, count in histogram.items():
                projected = tuple(signature[i] for i in subset)
                if any(k is None for k in projected):
                    continue
                groups[projected] = groups.get(projected, 0) + count
            total += sign * sum(pairs_count(c) for c in groups.values())
    return total


def covered_pairs(size: int, histogram: OverlapHistogram, num_dominating: int) -> int:
    """``Cov(X^i_j) = Pairs(|X^i_j|) - Uncov(X^i_j)``."""
    return pairs_count(size) - uncovered_pairs(histogram, num_dominating)


def compute_coverage(stats: DatasetStatistics) -> Dict[str, int]:
    """``Cov`` for every block in the statistics, keyed by block uid."""
    coverage: Dict[str, int] = {}
    for uid, block in stats.blocks.items():
        num_dominating = stats.scheme.index_of(block.family) - 1
        histogram = stats.overlaps.get(uid, {})
        coverage[uid] = covered_pairs(block.size, histogram, num_dominating)
    return coverage


__all__ = [
    "uncovered_pairs",
    "covered_pairs",
    "compute_coverage",
]
