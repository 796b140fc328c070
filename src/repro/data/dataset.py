"""Dataset container with ground truth.

A :class:`Dataset` bundles the entities with the ground-truth clustering
used by the evaluation (duplicate recall needs the true duplicate-pair set
``N`` from Equation 1).  On disk a dataset is JSONL entity rows
(:mod:`repro.data.rows`), each row's ``cluster`` its ground truth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from .entity import Entity, Pair, pair_key


@dataclass
class Dataset:
    """A collection of entities plus optional ground truth.

    Attributes:
        entities: all records, in stable order.
        clusters: ground-truth mapping entity id -> cluster id.  Entities
            sharing a cluster id refer to the same real-world object.
        name: human-readable label used in reports.
    """

    entities: List[Entity]
    clusters: Dict[int, int] = field(default_factory=dict)
    name: str = "dataset"

    def __post_init__(self) -> None:
        ids = [e.id for e in self.entities]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate entity ids in dataset")
        self._by_id: Dict[int, Entity] = {e.id: e for e in self.entities}
        self._true_pairs: Optional[FrozenSet[Pair]] = None

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities)

    def entity(self, entity_id: int) -> Entity:
        """Look an entity up by id."""
        return self._by_id[entity_id]

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self._by_id

    # -- ground truth ----------------------------------------------------

    @property
    def has_ground_truth(self) -> bool:
        """Whether ground-truth clusters were provided."""
        return bool(self.clusters)

    @property
    def true_pairs(self) -> FrozenSet[Pair]:
        """The set of all ground-truth duplicate pairs (computed lazily).

        This is ``N`` in Equation 1: every unordered pair of entities
        belonging to the same ground-truth cluster.
        """
        if self._true_pairs is None:
            members: Dict[int, List[int]] = {}
            for eid, cid in self.clusters.items():
                members.setdefault(cid, []).append(eid)
            pairs: Set[Pair] = set()
            for group in members.values():
                group.sort()
                for a, b in itertools.combinations(group, 2):
                    pairs.add(pair_key(a, b))
            self._true_pairs = frozenset(pairs)
        return self._true_pairs

    @property
    def num_true_pairs(self) -> int:
        """``N``: total number of ground-truth duplicate pairs."""
        return len(self.true_pairs)

    def is_true_pair(self, pair: Pair) -> bool:
        """Whether ``pair`` is a ground-truth duplicate."""
        return pair in self.true_pairs

    def attributes(self) -> List[str]:
        """Union of attribute names across entities, in first-seen order."""
        seen: Dict[str, None] = {}
        for e in self.entities:
            for name in e.attrs:
                seen.setdefault(name)
        return list(seen)

    def sample(self, fraction: float, *, seed: int = 0) -> "Dataset":
        """A reproducible random subsample, keeping ground truth consistent.

        Used to build the training dataset for the duplicate-probability
        model (Section VI-A4).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        import random

        rng = random.Random(seed)
        count = max(1, int(round(len(self.entities) * fraction)))
        chosen = rng.sample(self.entities, count)
        chosen.sort(key=lambda e: e.id)
        ids = {e.id for e in chosen}
        clusters = {eid: cid for eid, cid in self.clusters.items() if eid in ids}
        return Dataset(entities=chosen, clusters=clusters, name=f"{self.name}-sample")


__all__ = ["Dataset"]
