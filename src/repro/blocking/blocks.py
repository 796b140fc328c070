"""Blocks, block trees and forests (paper Section III-A).

Applying a main blocking function and its sub-blocking functions organizes
the blocks of one family as a forest: each main block is the root of a tree
whose children are the sub-blocks produced by the next-level function.
Trees are mutable because schedule generation *splits* sub-trees off
overflowed trees (Section IV-C2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..data.entity import pairs_count


@dataclass(eq=False)
class Block:
    """One block: a set of entities sharing a blocking key at some level.

    Structural fields are filled by the blocker; the mutable ``parent`` /
    ``children`` links define the tree and are edited by tree splits.

    Attributes:
        family: blocking-function family (``"X"``).
        level: function level that produced this block (1 = main block).
        key: the blocking key value of this block.
        entity_ids: sorted ids of the entities in the block.  *Structural*
            blocks (built from Job-1 statistics, which do not ship entity
            memberships) leave this empty and set ``size_override`` instead.
        size_override: explicit cardinality for structural blocks.
    """

    family: str
    level: int
    key: str
    entity_ids: Tuple[int, ...]
    parent: Optional["Block"] = field(default=None, repr=False)
    children: List["Block"] = field(default_factory=list, repr=False)
    size_override: Optional[int] = None

    def __post_init__(self) -> None:
        ids = tuple(self.entity_ids)
        if list(ids) != sorted(set(ids)):
            raise ValueError("entity_ids must be sorted and unique")
        self.entity_ids = ids
        if self.size_override is not None and self.size_override < 0:
            raise ValueError("size_override cannot be negative")

    # -- identity ----------------------------------------------------------

    @property
    def uid(self) -> str:
        """Unique block id, e.g. ``"X2:the "``."""
        return f"{self.family}{self.level}:{self.key}"

    @property
    def size(self) -> int:
        """Block cardinality ``|X^i_j|``."""
        if self.size_override is not None:
            return self.size_override
        return len(self.entity_ids)

    @property
    def total_pairs(self) -> int:
        """``Pairs(|X^i_j|)``."""
        return pairs_count(self.size)

    # -- tree structure ------------------------------------------------------

    @property
    def is_root(self) -> bool:
        """Whether this block is the root of its (possibly split-off) tree."""
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        """Whether this block has no child blocks."""
        return not self.children

    @property
    def root(self) -> "Block":
        """The root of the tree this block currently belongs to."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def descendants(self) -> Iterator["Block"]:
        """All strict descendants, depth-first."""
        for child in self.children:
            yield child
            yield from child.descendants()

    def subtree(self) -> Iterator["Block"]:
        """This block and all descendants, depth-first pre-order."""
        yield self
        yield from self.descendants()

    def subtree_bottom_up(self) -> Iterator["Block"]:
        """This block and all descendants, children before parents."""
        for child in self.children:
            yield from child.subtree_bottom_up()
        yield self

    def add_child(self, child: "Block") -> None:
        """Attach ``child`` under this block."""
        if child.parent is not None:
            raise ValueError(f"block {child.uid} already has a parent")
        child.parent = self
        self.children.append(child)

    def detach_child(self, child: "Block") -> "Block":
        """Remove the edge to ``child``, making it the root of its own tree.

        This is the paper's tree split: the detached sub-tree must then be
        resolved fully (its new root loses the "parent will finish the
        remainder" guarantee).
        """
        if child not in self.children:
            raise ValueError(f"{child.uid} is not a child of {self.uid}")
        self.children.remove(child)
        child.parent = None
        return child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block({self.uid}, size={self.size}, children={len(self.children)})"


@dataclass
class Forest:
    """All trees produced by one main blocking function (Section III-A)."""

    family: str
    roots: List[Block]

    def blocks(self) -> Iterator[Block]:
        """All blocks in the forest, tree by tree, depth-first."""
        for root in self.roots:
            yield from root.subtree()

    @property
    def num_blocks(self) -> int:
        """Total number of blocks across all trees."""
        return sum(1 for _ in self.blocks())

    def __iter__(self) -> Iterator[Block]:
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)


__all__ = ["Block", "Forest"]
