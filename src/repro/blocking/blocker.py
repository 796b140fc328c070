"""Progressive blocking: building the forests (paper Section III-A).

The blocker applies each family's main function to partition the dataset
into main blocks, then recursively subdivides every block with the next
sub-blocking function, producing one tree per main block.

Pruning rules:

* blocks with fewer than two entities generate no pairs and are dropped
  (a singleton child simply stays covered by its parent's full resolution);
* a child block identical to its parent (the sub-key did not subdivide
  anything) is dropped — resolving it would duplicate the parent's work
  with zero information gain.  This is the structural half of the paper's
  block-elimination technique.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Sequence, Tuple, TypeVar

from ..data.dataset import Dataset
from ..data.entity import Entity
from .blocks import Block, Forest
from .functions import BlockingFunction, BlockingScheme

M = TypeVar("M")


def group_by_key(
    entities: Sequence[Entity], function: BlockingFunction
) -> Dict[str, List[int]]:
    """Group entity ids by the function's blocking key (``None`` keys are
    excluded from the family)."""
    groups: Dict[str, List[int]] = {}
    for entity in entities:
        key = function.key_of(entity)
        if key is None:
            continue
        groups.setdefault(key, []).append(entity.id)
    return groups


def build_forest(dataset: Dataset, scheme: BlockingScheme, family: str) -> Forest:
    """Build the forest of one family over ``dataset``."""
    functions = scheme.families[family]
    main = functions[0]
    groups = group_by_key(dataset.entities, main)
    roots: List[Block] = []
    for key in sorted(groups):
        ids = sorted(groups[key])
        if len(ids) < 2:
            continue
        root = Block(family=family, level=1, key=key, entity_ids=tuple(ids))
        _subdivide(root, dataset, functions)
        roots.append(root)
    return Forest(family=family, roots=roots)


def sub_blocks(
    members: Sequence[M],
    functions: Sequence[BlockingFunction],
    level: int,
    entity_of: Callable[[M], Entity] = lambda member: member,
) -> Iterator[Tuple[int, str, List[M]]]:
    """Yield ``(level, key, members)`` for each child of a level-``level``
    block holding ``members``, in key order.

    The next sub-function groups the members by key (``None`` keys drop
    out) and singleton groups are dropped.  A level whose key keeps every
    member together is skipped, so deeper functions still get a chance to
    split the block.  ``entity_of`` maps a member to the entity the
    functions key on.
    """
    for function in functions[level:]:  # functions[level].level == level + 1
        groups: Dict[str, List[M]] = {}
        for member in members:
            key = function.key_of(entity_of(member))
            if key is not None:
                groups.setdefault(key, []).append(member)
        if any(len(group) == len(members) for group in groups.values()):
            continue
        for key in sorted(groups):
            if len(groups[key]) >= 2:
                yield function.level, key, groups[key]
        return


def _subdivide(
    parent: Block, dataset: Dataset, functions: Sequence[BlockingFunction]
) -> None:
    """Recursively attach the parent's child blocks."""
    members = [dataset.entity(eid) for eid in parent.entity_ids]
    for level, key, group in sub_blocks(members, functions, parent.level):
        child = Block(
            family=parent.family,
            level=level,
            key=key,
            entity_ids=tuple(sorted(entity.id for entity in group)),
        )
        parent.add_child(child)
        _subdivide(child, dataset, functions)


def build_forests(dataset: Dataset, scheme: BlockingScheme) -> Dict[str, Forest]:
    """Build every family's forest, in dominance order."""
    return {family: build_forest(dataset, scheme, family) for family in scheme.family_order}


__all__ = ["group_by_key", "sub_blocks", "build_forest", "build_forests"]
