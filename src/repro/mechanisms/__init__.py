"""Progressive mechanisms M: SN + hint, PSNM, popcorn stopping."""

from .base import (
    BATCH_PAIRS,
    DistinctBudget,
    block_sort_key,
    Mechanism,
    NeverStop,
    ResolveStats,
    StopCondition,
    resolve_block,
    window_pairs_count,
)
from .popcorn import PopcornCondition
from .psnm import PSNM
from .sorted_neighbor import SortedNeighborHint

__all__ = [
    "Mechanism",
    "ResolveStats",
    "StopCondition",
    "NeverStop",
    "DistinctBudget",
    "block_sort_key",
    "resolve_block",
    "window_pairs_count",
    "SortedNeighborHint",
    "PSNM",
    "PopcornCondition",
    "BATCH_PAIRS",
]
