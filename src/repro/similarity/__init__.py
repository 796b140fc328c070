"""Similarity kernels and the weighted-sum resolve/match function."""

from .batch import BatchMatcher, batch_kernel_counters
from .edit_distance import (
    dp_cell_counters,
    edit_similarity,
    levenshtein,
    reset_dp_cell_counters,
)
from .jaro import jaro, jaro_winkler
from .matchers import (
    AttributeRule,
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
    linkage_matcher,
    people_matcher,
)
from .tokens import jaccard, qgram_jaccard, qgrams, token_jaccard, word_tokens

__all__ = [
    "levenshtein",
    "edit_similarity",
    "jaro",
    "jaro_winkler",
    "AttributeRule",
    "WeightedMatcher",
    "citeseer_matcher",
    "books_matcher",
    "people_matcher",
    "linkage_matcher",
    "word_tokens",
    "qgrams",
    "jaccard",
    "token_jaccard",
    "qgram_jaccard",
    "dp_cell_counters",
    "reset_dp_cell_counters",
    "BatchMatcher",
    "batch_kernel_counters",
]
