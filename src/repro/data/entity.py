"""The entity model.

An entity (paper Section II-A) is a record with an identifier and a flat set
of string-valued attributes.  Entities are hashable by id so they can live
in sets and dictionaries throughout the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple


@dataclass(frozen=True)
class Entity:
    """One dataset record.

    Attributes:
        id: unique integer identifier within its dataset.
        attrs: attribute name -> string value; missing attributes are
            simply absent (or empty strings).
        source: origin tag for multi-source scenarios (clean-clean
            linkage tags records ``"a"`` / ``"b"``); ``None`` for the
            ordinary single-source dirty setting.
    """

    id: int
    attrs: Dict[str, str] = field(hash=False, compare=False, default_factory=dict)
    source: Optional[str] = field(hash=False, compare=False, default=None)

    def get(self, attribute: str, default: str = "") -> str:
        """Value of ``attribute`` (empty string when missing)."""
        return self.attrs.get(attribute, default)

    def __hash__(self) -> int:
        return hash(self.id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Entity):
            return NotImplemented
        return self.id == other.id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shown = ", ".join(f"{k}={v!r}" for k, v in list(self.attrs.items())[:3])
        return f"Entity({self.id}, {shown})"


Pair = Tuple[int, int]


def pair_key(a: int, b: int) -> Pair:
    """Canonical (sorted) form of an entity-id pair.

    All modules exchange pairs in this form so that ``(3, 7)`` and ``(7, 3)``
    are the same pair everywhere (sets, ground truth, events).
    """
    if a == b:
        raise ValueError(f"a pair needs two distinct entities, got ({a}, {b})")
    return (a, b) if a < b else (b, a)


def same_source(a: Entity, b: Entity) -> bool:
    """Whether two entities come from one source: linkage mode never
    compares such a pair (two ``None`` sources are one source too)."""
    return a.source == b.source


def pairs_count(n: int) -> int:
    """``Pairs(n) = n * (n - 1) / 2`` — number of unordered pairs (paper IV-A)."""
    if n < 0:
        raise ValueError(f"block size cannot be negative: {n}")
    return n * (n - 1) // 2


def cross_pairs_count(counts: Iterable[int]) -> int:
    """Unordered pairs spanning *different* groups of the given sizes.

    In clean-clean linkage a block with per-source sizes ``(n_a, n_b)``
    yields ``n_a * n_b`` comparable pairs; same-source pairs can never be
    duplicates and are vetoed at zero cost.
    """
    sizes = list(counts)
    return pairs_count(sum(sizes)) - sum(pairs_count(n) for n in sizes)


__all__ = [
    "Entity",
    "Pair",
    "pair_key",
    "same_source",
    "pairs_count",
    "cross_pairs_count",
]
