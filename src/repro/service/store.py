"""Persistent entity store with a blocking-key forest index.

The store is the service's long-lived state: every entity ever submitted,
plus an inverted index from ``(family, key)`` routes to the member ids of
that block.  An entity's level-1 keys are computed once, before admission
(:meth:`~repro.blocking.functions.BlockingScheme.main_keys`), and live on
only as its routes in the index.  Submitting a batch asks the store one
question per new entity — *who already lives in its blocks?* — answered
from the index without re-scanning the corpus, which is what keeps the
delta path proportional to the blocks the batch touches rather than the
store size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..data.entity import Entity

#: Separator between family and key in a block route.  Unit-separator keeps
#: routes printable-ish while never colliding with real blocking keys.
ROUTE_SEP = "\x1f"

#: ``(family, key)`` — identifies one level-1 block of the forest.
BlockRoute = Tuple[str, str]


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
    """All admitted entities plus the level-1 blocking forest over them."""

    def __init__(self) -> None:
        self._entities: Dict[int, StoredEntity] = {}
        self._blocks: Dict[BlockRoute, List[int]] = {}

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

    def routes_of(self, keys: Dict[str, Optional[str]]) -> List[BlockRoute]:
        """The block routes a keyed entity belongs to."""
        return [
            (family, key) for family, key in keys.items() if key is not None
        ]

    def members(self, route: BlockRoute) -> Sequence[int]:
        """Ids currently filed under ``route`` (admission order): the
        index's own list, not a copy."""
        return self._blocks.get(route, ())

    def num_blocks(self) -> int:
        return len(self._blocks)

    def admit(self, annotated: Sequence[Tuple[Entity, Dict[str, Optional[str]]]],
              batch: int) -> None:
        """File a batch of pre-annotated entities into the forest.

        Callers must have rejected duplicate ids beforehand; the store
        enforces it again because a corrupted forest is unrecoverable.
        """
        for entity, keys in annotated:
            if entity.id in self._entities:
                raise ValueError(f"entity id {entity.id} already admitted")
            self._entities[entity.id] = StoredEntity(entity, batch)
            for route in self.routes_of(keys):
                self._blocks.setdefault(route, []).append(entity.id)


__all__ = ["ROUTE_SEP", "BlockRoute", "route_label", "StoredEntity", "EntityStore"]
