"""Similarity kernels and the weighted-sum resolve/match function."""

from .batch import BatchMatcher, batch_kernel_counters
from .edit_distance import (
    dp_cell_counters,
    edit_similarity,
    levenshtein,
    reset_dp_cell_counters,
)
from .matchers import (
    AttributeRule,
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
    linkage_matcher,
    people_matcher,
)

__all__ = [
    "levenshtein",
    "edit_similarity",
    "AttributeRule",
    "WeightedMatcher",
    "citeseer_matcher",
    "books_matcher",
    "people_matcher",
    "linkage_matcher",
    "dp_cell_counters",
    "reset_dp_cell_counters",
    "BatchMatcher",
    "batch_kernel_counters",
]
