"""Transitive closure of duplicate pairs into entity clusters.

The paper's ER model applies "a clustering technique such as transitive
closure" after similarity computation to group duplicates into disjoint
clusters.  Implemented as a classic union-find with path compression and
union by size, each root holding its set's member list.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..data.entity import Pair


class UnionFind:
    """Disjoint-set forest over arbitrary hashable items; each root keeps
    its set's members, the smaller list moving into the larger on union."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._members: Dict[int, List[int]] = {}

    def find(self, item: int) -> int:
        """Representative of ``item``'s set (item is added if unseen)."""
        if item not in self._parent:
            self._parent[item] = item
            self._members[item] = [item]
            return item
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; True if they were separate."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._members[ra].extend(self._members.pop(rb))
        return True

    def members(self, item: int) -> List[int]:
        """Every member of ``item``'s set, sorted (item is added if unseen)."""
        return sorted(self._members[self.find(item)])

    def groups(self) -> List[List[int]]:
        """All sets with at least two members, sorted for determinism."""
        return sorted(sorted(group) for group in self._members.values() if len(group) > 1)


def transitive_closure(pairs: Iterable[Pair]) -> List[List[int]]:
    """Cluster entity ids by the transitive closure of duplicate pairs."""
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    return uf.groups()


__all__ = ["UnionFind", "transitive_closure"]
