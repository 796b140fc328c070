"""Transitive closure of duplicate pairs into entity clusters.

The paper's ER model applies "a clustering technique such as transitive
closure" after similarity computation to group duplicates into disjoint
clusters.  Implemented as a classic union-find with path compression and
union by size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..data.entity import Pair


class UnionFind:
    """Disjoint-set forest over arbitrary hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[int, int] = {}
        self._size: Dict[int, int] = {}

    def find(self, item: int) -> int:
        """Representative of ``item``'s set (item is added if unseen)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1
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
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> List[List[int]]:
        """All sets with at least two members, sorted for determinism."""
        members: Dict[int, List[int]] = {}
        for item in self._parent:
            members.setdefault(self.find(item), []).append(item)
        result = [sorted(group) for group in members.values() if len(group) > 1]
        result.sort()
        return result


def transitive_closure(pairs: Iterable[Pair]) -> List[List[int]]:
    """Cluster entity ids by the transitive closure of duplicate pairs."""
    uf = UnionFind()
    for a, b in pairs:
        uf.union(a, b)
    return uf.groups()


__all__ = ["UnionFind", "transitive_closure"]
