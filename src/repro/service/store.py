"""Persistent entity store with an agreement index over the level-1 forest.

The store is the service's long-lived state: every entity ever submitted,
plus an inverted index from *agreement keys* to the ids filed under them.
An entity's agreement keys are the ``min_family_matches``-subsets of its
level-1 routes, each taken in dominance order
(:meth:`EntityStore.agreement_keys`); two entities share one exactly when
their keys agree in at least that many families, the service's candidate
rule.  An entity's level-1 keys are computed once, before admission
(:meth:`~repro.blocking.functions.BlockingScheme.main_keys`), and live on
only in the index.  Submitting a batch asks the store one question per new
entity — *who shares one of its agreement keys?* — answered by a handful
of lookups, without re-scanning the corpus or counting the members of its
blocks, which keeps the delta path proportional to the candidates a batch
has rather than to the blocks it touches or the store size.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..data.entity import Entity

#: Separator between family and key in a block route.  Unit-separator keeps
#: routes printable-ish while never colliding with real blocking keys.
ROUTE_SEP = "\x1f"

#: ``(family, key)`` — identifies one level-1 block of the forest.
BlockRoute = Tuple[str, str]

#: ``min_family_matches`` routes of one entity, in dominance order.
AgreementKey = Tuple[BlockRoute, ...]


def route_label(route: BlockRoute) -> str:
    """Flat string form of a route, used as the MapReduce shuffle key."""
    return f"{route[0]}{ROUTE_SEP}{route[1]}"


class StoredEntity:
    """One entity at rest: the record and the batch that admitted it."""

    __slots__ = ("entity", "batch")

    def __init__(self, entity: Entity, batch: int):
        self.entity = entity
        self.batch = batch


class EntityStore:
    """All admitted entities plus the agreement index over their keys.

    Args:
        family_order: the scheme's families in dominance order.
        min_family_matches: how many families two entities' keys must
            agree in to be a candidate pair (at least 1).
    """

    def __init__(self, family_order: Sequence[str], min_family_matches: int) -> None:
        if min_family_matches < 1:
            raise ValueError(f"min_family_matches must be >= 1, got {min_family_matches}")
        self._family_order = tuple(family_order)
        self._agreement_size = min_family_matches
        self._entities: Dict[int, StoredEntity] = {}
        self._index: Dict[AgreementKey, List[int]] = {}
        # Every block route filed so far, each to itself: the index's keys
        # share one tuple per route rather than keeping one per entity.
        self._blocks: Dict[BlockRoute, BlockRoute] = {}

    def __len__(self) -> int:
        return len(self._entities)

    def __contains__(self, entity_id: int) -> bool:
        return entity_id in self._entities

    def get(self, entity_id: int) -> StoredEntity:
        return self._entities[entity_id]

    def entity_ids(self) -> List[int]:
        return list(self._entities)

    def stored(self) -> Iterable[StoredEntity]:
        return self._entities.values()

    def _routes(self, keys: Dict[str, Optional[str]]) -> List[BlockRoute]:
        """The level-1 routes of a keyed entity, in dominance order."""
        return [
            (family, keys[family]) for family in self._family_order
            if keys.get(family) is not None
        ]

    def agreement_keys(self, keys: Dict[str, Optional[str]]) -> List[AgreementKey]:
        """A keyed entity's agreement keys, in lexicographic dominance
        order: the first one two entities share starts with the first
        family they agree in."""
        known = self._blocks.get
        routes = [known(route, route) for route in self._routes(keys)]
        return list(combinations(routes, self._agreement_size))

    def agreeing(self, agreement: AgreementKey) -> Sequence[int]:
        """Ids filed under ``agreement`` (admission order): the index's
        own list, not a copy."""
        return self._index.get(agreement, ())

    def num_blocks(self) -> int:
        """Distinct level-1 blocks the stored entities occupy."""
        return len(self._blocks)

    def admit(self, annotated: Sequence[Tuple[Entity, Dict[str, Optional[str]]]],
              batch: int) -> None:
        """File a batch of pre-annotated entities into the index.

        All or nothing: an id already stored or repeated within the batch
        raises ``ValueError`` before anything is filed.  Callers reject
        both beforehand; the store checks again because a corrupted index
        is unrecoverable.
        """
        ids: Set[int] = set()
        for entity, _ in annotated:
            if entity.id in self._entities:
                raise ValueError(f"entity id {entity.id} already admitted")
            if entity.id in ids:
                raise ValueError(f"entity id {entity.id} appears twice in the batch")
            ids.add(entity.id)
        for entity, keys in annotated:
            self._entities[entity.id] = StoredEntity(entity, batch)
            for route in self._routes(keys):
                self._blocks.setdefault(route, route)
            for agreement in self.agreement_keys(keys):
                self._index.setdefault(agreement, []).append(entity.id)


__all__ = [
    "ROUTE_SEP",
    "BlockRoute",
    "AgreementKey",
    "route_label",
    "StoredEntity",
    "EntityStore",
]
