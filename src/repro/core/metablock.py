"""Meta-blocking pre-pass: block filtering and weighted node pruning.

Meta-blocking (Papadakis et al., "Meta-Blocking: Taking Entity Resolution
to the Next Level", TKDE 2014; block filtering per "Scaling Entity
Resolution to Large, Heterogeneous Data with Enhanced Meta-blocking",
EDBT 2016) restructures a redundancy-positive block collection *before*
resolution: every pair's co-occurrence pattern across blocks is evidence
of match likelihood, so low-evidence candidates can be discarded without
ever comparing them.

This module implements the two classic schemes on the *level-1* block
collection of a :class:`~repro.blocking.functions.BlockingScheme` (one
block per family main key — the redundancy-positive layer; sub-blocks
refine rather than add co-occurrence evidence):

* **Block filtering** (``bf``): each entity keeps only its
  ``ceil(ratio * k)`` smallest level-1 blocks (smaller blocks are more
  discriminative).  The dropped ``(entity, family)`` memberships are
  removed *at annotation time*, so Job 1's statistics, the schedule and
  Job 2's routing all see the shrunken blocks — no per-pair veto needed.
* **Weighted node pruning** (``wnp``): every co-occurring pair is weighed
  by its common level-1 blocks (``cbs``), each entity's retention
  threshold is the mean weight of its incident pairs, and a pair survives
  if *either* endpoint retains it
  (weight >= min of the endpoint thresholds, ties kept).  The blocks are
  untouched; the decision ships to Job 2's reducers as a picklable
  :class:`WnpPruner` consulted per pair at zero virtual cost.

Both schemes are pure functions of the dataset and scheme, so the
pre-pass is bit-identical across serial and process backends and under
fault injection.

**Cost.**  The blocking graph stays implicit.  A pair whose only common
block is this one weighs 1, so a block of ``k`` members books ``k - 1``
per member in closed form and enumerates only the pairs that share a
second block, found by grouping its members on every other family's key.
With ``F`` families the pre-pass costs ``O(sum k*F^2 + multi-block
pairs)`` — never more than enumerating every pair once per common block —
and holds nothing whose size grows with the number of pairs.

**Exact sums, ties kept.**  Weights are integers, so their sums are
exact and each threshold is that exact mean rounded to a float once.  A
weight and a mean of small integers compare after rounding as the exact
values do: a pair that weighs exactly its endpoint's mean (any pair of
an entity whose incident pairs all weigh the same, say) is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..blocking.functions import BlockingScheme
from ..data.entity import Entity, Pair, pair_key, pairs_count, same_source

#: Recognized values of the ``metablock`` knob.
METABLOCK_MODES: Tuple[str, ...] = ("off", "bf", "wnp")

#: An entity's level-1 signature: family -> main blocking key (only
#: families whose key function applies to the entity).
Signature = Dict[str, str]


def level1_signatures(
    entities: Iterable[Entity], scheme: BlockingScheme
) -> Dict[int, Signature]:
    """Per entity id, its non-``None`` level-1 keys by family."""
    return {
        entity.id: {
            family: key
            for family, key in scheme.main_keys(entity).items()
            if key is not None
        }
        for entity in entities
    }


def level1_blocks(
    signatures: Dict[int, Signature], family_order: Sequence[str]
) -> Dict[Tuple[str, str], List[int]]:
    """``(family, key) -> sorted member ids`` of every level-1 block."""
    blocks: Dict[Tuple[str, str], List[int]] = {}
    for eid in sorted(signatures):
        for family in family_order:
            key = signatures[eid].get(family)
            if key is not None:
                blocks.setdefault((family, key), []).append(eid)
    return blocks


def pair_weight(sig_i: Signature, sig_j: Signature) -> float:
    """Meta-blocking edge weight of a pair from its level-1 signatures:
    the number of level-1 blocks the pair co-occurs in (``cbs``).  A small
    integer, so recomputing it worker-side from the shipped signatures is
    bit-identical to the driver's pass.
    """
    return float(sum(1 for family, key in sig_i.items() if sig_j.get(family) == key))


def block_filter(
    signatures: Dict[int, Signature],
    scheme: BlockingScheme,
    ratio: float,
) -> FrozenSet[Tuple[int, str]]:
    """Block filtering: the ``(entity id, family)`` memberships to drop.

    Each entity ranks its level-1 blocks by ``(size, dominance rank,
    key)`` ascending and keeps the first ``ceil(ratio * k)`` — the
    deterministic tie-break makes the pruned set a pure function of the
    dataset and scheme.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"metablock ratio must be in (0, 1], got {ratio}")
    blocks = level1_blocks(signatures, scheme.family_order)
    sizes = {block_key: len(members) for block_key, members in blocks.items()}
    rank = {family: index for index, family in enumerate(scheme.family_order)}
    pruned: Set[Tuple[int, str]] = set()
    for eid, sig in signatures.items():
        mine = [
            (sizes[(family, key)], rank[family], key, family)
            for family, key in sig.items()
        ]
        keep = ceil(ratio * len(mine))
        if keep >= len(mine):
            continue
        mine.sort()
        for _, _, _, family in mine[keep:]:
            pruned.add((eid, family))
    return frozenset(pruned)


class WnpPruner:
    """Weighted-node-pruning pair veto, shippable to reduce tasks.

    Holds the level-1 signatures and the per-entity mean-weight retention
    thresholds; :meth:`keep` recomputes the pair weight from the
    signatures (pure, deterministic) and retains the pair when either
    endpoint's threshold admits it.  Plain-dict state keeps the object
    picklable for process backends.  A threshold is the exact mean of the
    entity's pair weights, rounded once.
    """

    def __init__(
        self,
        signatures: Dict[int, Signature],
        thresholds: Dict[int, float],
    ) -> None:
        self.signatures = signatures
        self.thresholds = thresholds

    def keep(self, e1: Entity, e2: Entity) -> bool:
        """Whether the pair survives pruning (ties kept)."""
        sig_i = self.signatures.get(e1.id)
        sig_j = self.signatures.get(e2.id)
        if not sig_i or not sig_j:
            return True
        th_i = self.thresholds.get(e1.id)
        th_j = self.thresholds.get(e2.id)
        if th_i is None or th_j is None:
            # An endpoint that never weighed a pair imposes no bound.
            return True
        return pair_weight(sig_i, sig_j) >= min(th_i, th_j)


@dataclass
class MetablockPlan:
    """Everything one meta-blocking pre-pass produced.

    Attributes:
        mode: ``"bf"`` or ``"wnp"`` (``"off"`` runs build no plan).
        ratio: block-filtering retention ratio (``bf`` only).
        pruned: ``(entity id, family)`` memberships dropped by ``bf``
            (empty for ``wnp`` — its blocks are untouched).
        pruner: the per-pair veto for ``wnp`` (``None`` for ``bf``).
        keep_ratios: per level-1 block ``(family, key)``, the fraction of
            its pairs that survive pruning — feeds the cost re-estimation
            of full (root) block resolutions.
        memberships_total / memberships_kept: level-1 block memberships
            before / after ``bf``.
        pairs_total / pairs_kept: distinct level-1 candidate pairs before
            / after the pre-pass.
    """

    mode: str
    ratio: float
    pruned: FrozenSet[Tuple[int, str]] = frozenset()
    pruner: Optional[WnpPruner] = None
    keep_ratios: Dict[Tuple[str, str], float] = field(default_factory=dict)
    memberships_total: int = 0
    memberships_kept: int = 0
    pairs_total: int = 0
    pairs_kept: int = 0

    @property
    def pair_reduction(self) -> float:
        """``pairs_total / pairs_kept`` (1.0 when nothing was pruned)."""
        return self.pairs_total / self.pairs_kept if self.pairs_kept else float("inf")

    def counter_items(self) -> Dict[str, int]:
        """Integer counters for the job-counter merge (backend-invariant)."""
        return {
            "memberships_total": self.memberships_total,
            "memberships_kept": self.memberships_kept,
            "memberships_pruned": self.memberships_total - self.memberships_kept,
            "pairs_total": self.pairs_total,
            "pairs_kept": self.pairs_kept,
            "pairs_pruned": self.pairs_total - self.pairs_kept,
        }


def candidate_pairs(
    entities: Sequence[Entity],
    scheme: BlockingScheme,
    *,
    pruned: FrozenSet[Tuple[int, str]] = frozenset(),
    pruner: Optional[WnpPruner] = None,
    cross_source_only: bool = False,
) -> Set[Pair]:
    """The distinct level-1 candidate-pair set under the given pre-pass.

    This is the *pair universe* the progressive pipeline can ever compare
    (windowing may visit fewer): pairs co-occurring in at least one
    unfiltered level-1 block, surviving the ``wnp`` veto and — in linkage
    mode — joining entities of different sources.  Used by the property
    and differential suites as the reference oracle.
    """
    signatures = level1_signatures(entities, scheme)
    if pruned:
        signatures = {
            eid: {f: k for f, k in sig.items() if (eid, f) not in pruned}
            for eid, sig in signatures.items()
        }
    by_id = {e.id: e for e in entities}
    pairs: Set[Pair] = set()
    for members in level1_blocks(signatures, scheme.family_order).values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = by_id[members[i]], by_id[members[j]]
                key = pair_key(a.id, b.id)
                if key in pairs:
                    continue
                if cross_source_only and same_source(a, b):
                    continue
                if pruner is not None and not pruner.keep(a, b):
                    continue
                pairs.add(key)
    return pairs


def _coded_signatures(
    signatures: Dict[int, Signature],
    blocks: Dict[Tuple[str, str], List[int]],
    family_order: Sequence[str],
) -> Dict[int, Tuple[int, ...]]:
    """Per entity id, its signature as ints: one block number per family.

    A missing key gets a negative number no other entity has, so two
    entities share family ``h``'s block iff their codes are equal at ``h``.
    """
    number = {block_key: n for n, block_key in enumerate(blocks)}
    return {
        eid: tuple(
            number[(family, sig[family])] if family in sig else -1 - n
            for family in family_order
        )
        for n, (eid, sig) in enumerate(signatures.items())
    }


def _multi_block_pairs(
    members: List[int], family: int, coded: Dict[int, Tuple[int, ...]]
) -> Iterable[Tuple[int, int, int, bool]]:
    """The pairs of one level-1 block that share another block as well.

    Found by grouping the block's members on every other family's key, so
    the pairs whose only common block is this one are never visited.  A
    pair that shares several other families is reported from the first.
    Yields ``(a, b, common, first)``: the two ids, the number of blocks
    they share, and whether this block is the first of those in family
    order — the one that weighs the pair, so each pair counts exactly once.
    """
    others = [h for h in range(len(coded[members[0]])) if h != family]
    for position, h in enumerate(others):
        earlier, later = others[:position], others[position + 1 :]
        groups: Dict[int, List[int]] = {}
        for eid in members:
            code = coded[eid][h]
            if code >= 0:
                groups.setdefault(code, []).append(eid)
        for group in groups.values():
            for i in range(len(group) - 1):
                a = group[i]
                code_a = coded[a]
                for b in group[i + 1 :]:
                    code_b = coded[b]
                    for g in earlier:
                        if code_a[g] == code_b[g]:
                            break
                    else:
                        common = 2
                        for g in later:
                            if code_a[g] == code_b[g]:
                                common += 1
                        yield a, b, common, family < h


def _node_sums(
    blocks: Dict[Tuple[str, str], List[int]],
    coded: Dict[int, Tuple[int, ...]],
    rank: Dict[str, int],
) -> Tuple[Dict[int, int], Dict[int, int], int]:
    """Per entity, the summed weight of its distinct incident pairs and
    their number; and the number of distinct pairs.

    Every block first books all its pairs as if it were each one's only
    common block (weight 1, so ``k - 1`` per member); the multi-block
    pairs are then enumerated and corrected: re-weighed in their first
    common block, taken back out in every other.
    """
    sums = dict.fromkeys(coded, 0)
    counts = dict.fromkeys(coded, 0)
    distinct = 0
    for (family, _), members in blocks.items():
        if len(members) < 2:
            continue
        distinct += pairs_count(len(members))
        others = len(members) - 1
        for eid in members:
            sums[eid] += others
            counts[eid] += others
        for a, b, common, first in _multi_block_pairs(members, rank[family], coded):
            if first:
                sums[a] += common - 1
                sums[b] += common - 1
            else:
                sums[a] -= 1
                sums[b] -= 1
                counts[a] -= 1
                counts[b] -= 1
                distinct -= 1
    return sums, counts, distinct


def build_metablock_plan(
    entities: Sequence[Entity],
    scheme: BlockingScheme,
    mode: str,
    *,
    ratio: float = 0.8,
) -> MetablockPlan:
    """Run the selected pre-pass over the dataset's level-1 blocks."""
    if mode not in METABLOCK_MODES or mode == "off":
        raise ValueError(f"no metablock plan to build for mode {mode!r}")
    families = scheme.family_order
    rank = {family: index for index, family in enumerate(families)}
    signatures = level1_signatures(entities, scheme)
    blocks = level1_blocks(signatures, families)
    coded = _coded_signatures(signatures, blocks, families)
    memberships_total = sum(len(members) for members in blocks.values())
    sums, counts, pairs_total = _node_sums(blocks, coded, rank)

    if mode == "bf":
        pruned = block_filter(signatures, scheme, ratio)
        filtered = {
            eid: {f: k for f, k in sig.items() if (eid, f) not in pruned}
            for eid, sig in signatures.items()
        }
        kept_blocks = level1_blocks(filtered, families)
        kept_coded = _coded_signatures(filtered, kept_blocks, families)
        return MetablockPlan(
            mode=mode,
            ratio=ratio,
            pruned=pruned,
            memberships_total=memberships_total,
            memberships_kept=memberships_total - len(pruned),
            pairs_total=pairs_total,
            pairs_kept=_node_sums(kept_blocks, kept_coded, rank)[2],
        )

    # -- wnp ------------------------------------------------------------
    thresholds = {eid: sums[eid] / counts[eid] for eid in sums if counts[eid]}
    keep_ratios: Dict[Tuple[str, str], float] = {}
    pairs_kept = 0
    for (family, key), members in blocks.items():
        total = pairs_count(len(members))
        if total == 0:
            continue
        # A single-block pair weighs 1, so it is dropped iff both its
        # endpoints' thresholds exceed 1.
        kept = total - pairs_count(sum(thresholds[eid] > 1.0 for eid in members))
        pairs_kept += kept
        for a, b, common, first in _multi_block_pairs(members, rank[family], coded):
            bound = min(thresholds[a], thresholds[b])
            as_single = 1.0 >= bound
            retained = float(common) >= bound
            kept += retained - as_single
            pairs_kept += (retained and first) - as_single
        keep_ratios[(family, key)] = kept / total
    return MetablockPlan(
        mode=mode,
        ratio=ratio,
        pruner=WnpPruner(signatures, thresholds),
        keep_ratios=keep_ratios,
        memberships_total=memberships_total,
        memberships_kept=memberships_total,
        pairs_total=pairs_total,
        pairs_kept=pairs_kept,
    )


def format_metablock_summary(plan: MetablockPlan) -> str:
    """Human-readable pruning summary table for reports and the CLI."""
    rows = [
        ("mode", plan.mode),
        ("ratio", f"{plan.ratio:.2f}" if plan.mode == "bf" else "-"),
        ("memberships", f"{plan.memberships_kept}/{plan.memberships_total}"),
        ("candidate pairs", f"{plan.pairs_kept}/{plan.pairs_total}"),
        (
            "pair reduction",
            "inf" if not plan.pairs_kept else f"{plan.pair_reduction:.2f}x",
        ),
    ]
    width = max(len(name) for name, _ in rows)
    lines = ["meta-blocking pre-pass"]
    lines += [f"  {name.ljust(width)}  {value}" for name, value in rows]
    return "\n".join(lines)


__all__ = [
    "METABLOCK_MODES",
    "Signature",
    "level1_signatures",
    "level1_blocks",
    "pair_weight",
    "block_filter",
    "WnpPruner",
    "MetablockPlan",
    "candidate_pairs",
    "build_metablock_plan",
    "format_metablock_summary",
]
