"""Blocking: functions, schemes, blocks, trees, forests, and the
progressive blocker (paper Sections II-A and III-A)."""

from .blocker import build_forest, build_forests, group_by_key
from .blocks import Block, Forest
from .functions import (
    BlockingFunction,
    BlockingScheme,
    books_scheme,
    citeseer_scheme,
    linkage_scheme,
    people_scheme,
    prefix_function,
)

__all__ = [
    "Block",
    "Forest",
    "BlockingFunction",
    "BlockingScheme",
    "prefix_function",
    "citeseer_scheme",
    "books_scheme",
    "people_scheme",
    "linkage_scheme",
    "group_by_key",
    "build_forest",
    "build_forests",
]
