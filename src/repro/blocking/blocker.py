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

from typing import Dict, List, Sequence

from ..data.dataset import Dataset
from ..data.entity import Entity
from .blocks import Block, Forest
from .functions import BlockingFunction, BlockingScheme


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
        _subdivide(root, dataset, functions, level_index=1)
        roots.append(root)
    return Forest(family=family, roots=roots)


def _subdivide(
    parent: Block,
    dataset: Dataset,
    functions: Sequence[BlockingFunction],
    level_index: int,
) -> None:
    """Recursively attach child blocks produced by the next sub-function."""
    if level_index >= len(functions):
        return
    function = functions[level_index]
    members = [dataset.entity(eid) for eid in parent.entity_ids]
    groups = group_by_key(members, function)
    for key in sorted(groups):
        ids = sorted(groups[key])
        if len(ids) < 2:
            continue
        if len(ids) == parent.size:
            # The sub-key failed to subdivide; recurse *through* this level
            # so deeper functions still get a chance to split the block.
            _subdivide(parent, dataset, functions, level_index + 1)
            return
        child = Block(
            family=parent.family,
            level=function.level,
            key=key,
            entity_ids=tuple(ids),
        )
        parent.add_child(child)
        _subdivide(child, dataset, functions, level_index + 1)


def build_forests(dataset: Dataset, scheme: BlockingScheme) -> Dict[str, Forest]:
    """Build every family's forest, in dominance order."""
    return {family: build_forest(dataset, scheme, family) for family in scheme.family_order}


__all__ = ["group_by_key", "build_forest", "build_forests"]
