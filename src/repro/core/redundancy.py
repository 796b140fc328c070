"""Redundancy-free resolution (paper Section V, Figure 7).

Every tree gets a unique *dominance value* ``Dom(T)``.  The Job-2 mapper
appends to each emitted entity a *dominance list* whose ``j``-th entry
identifies the tree responsible for the entity's pairs under the family
with ``Index = j``; an optional ``(n + 1)``-st entry identifies the highest
split-off sub-tree (below the emitted tree) still containing the entity.
``should_resolve`` (the paper's SHOULD-RESOLVE) compares two entities'
lists to decide whether the *current* block is the one responsible for the
pair — eliminating redundant resolutions without any cross-task
communication.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

#: A dominance-list entry: a tree's dominance value, or an entity-unique
#: sentinel (negative) when the entity is not blocked under that family.
DomValue = int

#: Dominance lists have ``n`` entries (one per main blocking function) plus
#: an optional split-tree entry.
DominanceList = List[DomValue]


def missing_sentinel(entity_id: int) -> DomValue:
    """Entry for an entity with no block under some family.

    Dominance values are non-negative, so ``-(id + 1)`` can never collide
    with a real tree — and never equals another entity's sentinel, which is
    what makes "both unblocked" correctly compare as *not shared*.
    """
    return -(entity_id + 1)


def build_dominance_list(
    *,
    entity_id: int,
    own_index: int,
    num_families: int,
    family_trees: Sequence[Optional[int]],
    emitted_tree: DomValue,
    split_descendant: Optional[DomValue],
) -> DominanceList:
    """Construct ``List(e_i, X^k_l)`` for one (entity, emitted tree) pair.

    Args:
        entity_id: the entity's id (for sentinels).
        own_index: ``Index`` of the family of the emitted tree (1-based).
        num_families: ``n``, the number of main blocking functions.
        family_trees: per family (dominance order), the dominance value of
            the entity's *main* tree under that family, or ``None`` when
            the entity is unblocked there.
        emitted_tree: dominance value of the tree this emission targets.
        split_descendant: dominance value of the highest split-off tree
            strictly below the emitted tree that contains the entity.
    """
    if len(family_trees) != num_families:
        raise ValueError(
            f"need one main-tree entry per family: {len(family_trees)} != {num_families}"
        )
    values: DominanceList = []
    for position, tree in enumerate(family_trees, start=1):
        if position == own_index:
            values.append(emitted_tree)
        elif tree is None:
            values.append(missing_sentinel(entity_id))
        else:
            values.append(tree)
    if split_descendant is not None:
        values.append(split_descendant)
    return values


def should_resolve(
    list_k: DominanceList,
    list_l: DominanceList,
    index: int,
    num_families: int,
) -> bool:
    """Figure 7: is the current block responsible for the pair?

    ``index`` is the 1-based ``Index`` of the current block's family.  The
    loop defers to any *dominating* family whose main block contains both
    entities; the tail check defers pairs that fall inside a split-off
    sub-tree of the current tree (they are resolved there, fully).
    """
    for m in range(index - 1):
        if list_k[m] == list_l[m]:
            return False
    if len(list_k) > num_families and len(list_l) > num_families:
        if list_k[num_families] == list_l[num_families]:
            return False
    return True


def dominance_columns(
    dom_lists: Sequence[DominanceList], index: int, num_families: int
) -> List[List[DomValue]]:
    """:func:`should_resolve` as columns over a block's members.

    One column per entry the test compares — the dominating families'
    entries, then the split-tree tail when any member has one — so that
    positions ``a`` and ``b`` of the block are vetoed iff some column holds
    the same value at both.  A member without a tail gets a negative value
    no other member's column holds (tails are dominance values, >= 0).
    """
    columns = [[dom_list[m] for dom_list in dom_lists] for m in range(index - 1)]
    if any(len(dom_list) > num_families for dom_list in dom_lists):
        columns.append([
            dom_list[num_families] if len(dom_list) > num_families else -1 - position
            for position, dom_list in enumerate(dom_lists)
        ])
    return columns


__all__ = [
    "DomValue",
    "DominanceList",
    "missing_sentinel",
    "build_dominance_list",
    "should_resolve",
    "dominance_columns",
]
