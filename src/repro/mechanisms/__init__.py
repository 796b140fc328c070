"""Progressive mechanisms M: SN + hint, PSNM, popcorn stopping, exhaustive."""

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
from .full import FullResolution
from .hierarchy import HierarchyHint
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
    "FullResolution",
    "HierarchyHint",
    "PopcornCondition",
    "BATCH_PAIRS",
]
