"""The delta MapReduce job: resolve only what a new batch can change.

One submit runs one job.  Map routes each member of an *affected* block
(a level-1 block containing at least one new entity) to that block's
reduce target(s); reduce feeds the block's fresh candidate pairs to
:func:`~repro.mechanisms.base.resolve_block` — the same collect → decide →
replay loop Job 2 runs — and writes what Job 2 writes: the duplicate
pairs.  The job runs on the ordinary cluster engine, so executor pools,
fault plans, balance-style placement, and tracer spans all apply unchanged.

Batch-partition invariance — the property the differential oracle pins —
comes from three rules, each a pure function of the two entities involved:

* **Candidate predicate.**  A pair is a candidate iff its level-1 blocking
  keys agree in at least ``min(min_family_matches, num_families)``
  families.  Block sizes, sort orders, windows and budgets never enter the
  predicate, so slicing the corpus into batches cannot change it.
* **Responsibility.**  A candidate is decided exactly once: in the block
  of the *first* family (dominance order) where the keys agree.  That
  block contains both entities, and it is affected in the batch where the
  younger of the two arrives.
* **Freshness.**  Each submit decides only pairs with at least one member
  from the current batch; old-old pairs were decided when their younger
  member arrived.  The union over any batch sequence is therefore the
  one-shot candidate set, decided by the same deterministic kernel.

The reducer's pair stream is :func:`candidate_pairs`: the block's fresh
pairs whose keys also agree on enough of the families *after* the
block's, looked up per anchor in key indexes rather than scanned, so a
block never walks pairs that a later family could not make candidates.
It yields one run per anchor, and its veto, :func:`responsibility_veto`,
compares per-block key columns over a whole run: it skips the candidates
an earlier family agrees on — where :func:`responsible_family`, the
definition, names another family — and filters same-source pairs in
linkage mode.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..data.entity import Entity, pair_key
from ..mapreduce.job import MapReduceJob, Mapper, Partitioner, Reducer, TaskContext, stable_hash
from ..mechanisms.base import Admit, Run, resolve_block, shared_values
from ..similarity.batch import BatchMatcher
from .store import ROUTE_SEP, BlockRoute, route_label

#: Routing-label separator between the base route and a shard index.
SHARD_SEP = "\x1e"

#: A delta input record: the entity, its per-family level-1 keys, and
#: whether it arrived in the current batch.
DeltaRecord = Tuple[Entity, Dict[str, Optional[str]], bool]


def responsible_family(
    keys_a: Dict[str, Optional[str]],
    keys_b: Dict[str, Optional[str]],
    family_order: Sequence[str],
    min_matches: int,
) -> Optional[str]:
    """The family whose block decides the pair: the first (dominance
    order) where both entities share a non-None key — or ``None`` when
    fewer than ``min_matches`` families agree (not a candidate at all)."""
    first = None
    matches = 0
    for family in family_order:
        key = keys_a.get(family)
        if key is None or key != keys_b.get(family):
            continue
        if first is None:
            first = family
        matches += 1
        if matches >= min_matches:
            return first
    return None


def block_weight(members: Sequence[Tuple[int, bool]]) -> List[int]:
    """Per-anchor candidate-pair upper bounds for one affected block.

    ``members`` is (id, is_new) sorted by id.  Entry ``j`` counts the pairs
    ``(i, j), i < j`` that pass the freshness filter, so planned pairs are
    an upper bound on the pairs compared: :func:`candidate_pairs` and
    responsibility only thin it further.
    """
    weights: List[int] = []
    new_before = 0
    for j, (_, is_new) in enumerate(members):
        weights.append(j if is_new else new_before)
        if is_new:
            new_before += 1
    return weights


def candidate_pairs(
    members: Sequence[DeltaRecord],
    lo: int,
    hi: int,
    family: str,
    family_order: Sequence[str],
    min_matches: int,
) -> Iterator[Run]:
    """The fresh pairs of a ``family`` block that the block can decide, as
    one run per anchor over the positions of ``members``.

    ``members`` is sorted by id and shares the block's ``family`` key.  A
    fresh pair — at least one new member, anchor in ``[lo, hi)`` — can be
    decided here only if its keys also agree on ``min_matches - 1`` of the
    families after ``family`` (the least-common-block rule), so each
    anchor ``j`` looks its partners up in per-family key → positions
    indexes (all members seen, and new members seen) instead of scanning
    every ``i < j``; its run is ``(partners, [j] * len(partners))``.  With
    ``min_matches`` 1 every fresh partner is yielded.  Order is
    anchor-major, ``i`` ascending — the fresh-pair scan's own order with
    non-candidates left out — so batches, charges and clocks match that
    scan's.  Every pair yielded is a candidate (the block's own key agrees
    too); pairs an *earlier* family agrees on still come out, and
    :func:`responsibility_veto` skips them.
    """
    later = tuple(family_order[family_order.index(family) + 1:])
    need = min_matches - 1
    if need > len(later):
        return
    new_positions: List[int] = []
    index_all: List[Dict[str, List[int]]] = [{} for _ in later]
    index_new: List[Dict[str, List[int]]] = [{} for _ in later]
    for j, (_, keys_j, new_j) in enumerate(members[:hi]):
        codes = [keys_j.get(later_family) for later_family in later]
        if j >= lo:
            if need <= 0:
                partners: Sequence[int] = range(j) if new_j else new_positions[:]
            else:
                index = index_all if new_j else index_new
                hits = [
                    index[f][code] for f, code in enumerate(codes)
                    if code is not None and code in index[f]
                ]
                if len(hits) < need:
                    partners = ()
                elif len(hits) == 1:
                    partners = hits[0][:]
                elif need == 1:
                    partners = sorted(set().union(*hits))
                else:
                    counts = Counter(chain.from_iterable(hits))
                    partners = sorted(i for i, count in counts.items() if count >= need)
            if partners:
                yield partners, [j] * len(partners)
        if need > 0:
            for f, code in enumerate(codes):
                if code is not None:
                    index_all[f].setdefault(code, []).append(j)
                    if new_j:
                        index_new[f].setdefault(code, []).append(j)
        if new_j:
            new_positions.append(j)


def responsibility_veto(
    members: Sequence[DeltaRecord],
    family: str,
    family_order: Sequence[str],
    cross_source_only: bool,
) -> Admit:
    """The delta reducer's veto over a run of :func:`candidate_pairs`.

    ``"filtered"`` for a same-source pair in linkage mode; ``"skipped"``
    where the keys agree under a family before ``family`` — for a
    candidate, exactly where :func:`responsible_family` names another
    family than the block's.  One column per earlier family holds the
    members' keys, and a value no other member holds where a key is
    missing.
    """
    earlier = family_order[: family_order.index(family)]
    columns = [
        [
            key if key is not None else -1 - rank
            for rank, key in enumerate(keys.get(other) for _, keys, _ in members)
        ]
        for other in earlier
    ]
    sources = [entity.source for entity, _, _ in members] if cross_source_only else None

    def admit(lefts: Sequence[int], rights: Sequence[int]) -> List[Optional[str]]:
        verdicts = [
            "skipped" if s else None for s in shared_values(columns, lefts, rights)
        ]
        if sources is not None:
            verdicts = [
                "filtered" if sources[a] == sources[b] else v
                for v, a, b in zip(verdicts, lefts, rights)
            ]
        return verdicts

    return admit


@dataclass
class DeltaPlan:
    """Placement of one batch's affected blocks onto reduce tasks.

    Attributes:
        routes: base route label -> routing labels (the block itself, or
            its shards when an oversized block was split).
        assignment: routing label -> reduce task index.
        shards: routing label -> half-open anchor range ``[lo, hi)`` over
            the block's id-sorted members; absent = the whole block.
        ranks: routing label -> processing priority (0 = first).  Reduce
            tasks work heaviest blocks first, the progressive ordering.
        planned: routing label -> planned candidate-pair load.
    """

    routes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    assignment: Dict[str, int] = field(default_factory=dict)
    shards: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    ranks: Dict[str, int] = field(default_factory=dict)
    planned: Dict[str, int] = field(default_factory=dict)

    @property
    def total_planned(self) -> int:
        return sum(self.planned.values())

    @property
    def num_blocks(self) -> int:
        return len(self.routes)


def plan_delta(
    affected: Dict[BlockRoute, List[Tuple[int, bool]]],
    num_reduce_tasks: int,
    balance: str,
) -> DeltaPlan:
    """Place affected blocks onto reduce tasks under a balance strategy.

    ``slack`` mirrors the paper baseline: hash placement, whole blocks.
    Every other strategy (``blocksplit``, ``pairrange``) reuses the batch
    balancer's ideas at the delta granularity: blocks whose planned load exceeds the per-task fair share
    are sharded into contiguous anchor ranges, then all units are placed
    longest-processing-time-first onto the least-loaded task.  (The delta
    workload has no per-block pair-stream estimates, so the batch
    strategies' distinctions — global cuts versus oversize thresholds —
    collapse to this single sharding scheme here.)  Placement never
    changes which pairs are compared — only where.
    """
    plan = DeltaPlan()
    loads: Dict[str, int] = {}
    for route, members in affected.items():
        label = route_label(route)
        loads[label] = sum(block_weight(members))

    if balance == "slack":
        for route in affected:
            label = route_label(route)
            plan.routes[label] = (label,)
            plan.assignment[label] = stable_hash(label) % num_reduce_tasks
            plan.planned[label] = loads[label]
    else:
        total = sum(loads.values())
        fair_share = max(1, math.ceil(total / max(1, num_reduce_tasks)))
        units: List[Tuple[str, int]] = []
        for route, members in affected.items():
            label = route_label(route)
            load = loads[label]
            parts = min(len(members) - 1, math.ceil(load / fair_share)) if load else 1
            if parts <= 1:
                plan.routes[label] = (label,)
                plan.planned[label] = load
                units.append((label, load))
                continue
            weights = block_weight(members)
            target = load / parts
            shard_labels: List[str] = []
            lo, acc, index = 1, 0, 0
            for j in range(1, len(members)):
                acc += weights[j]
                last_anchor = j == len(members) - 1
                if (acc >= target and index < parts - 1) or last_anchor:
                    shard = f"{label}{SHARD_SEP}{index}"
                    plan.shards[shard] = (lo, j + 1)
                    plan.planned[shard] = acc
                    units.append((shard, acc))
                    shard_labels.append(shard)
                    lo, acc, index = j + 1, 0, index + 1
            plan.routes[label] = tuple(shard_labels)
        # Longest-processing-time placement onto the least-loaded task.
        task_load = [0] * max(1, num_reduce_tasks)
        for label, load in sorted(units, key=lambda unit: (-unit[1], unit[0])):
            task = min(range(len(task_load)), key=lambda t: (task_load[t], t))
            task_load[task] += load
            plan.assignment[label] = task

    ordered = sorted(plan.planned, key=lambda label: (-plan.planned[label], label))
    plan.ranks = {label: rank for rank, label in enumerate(ordered)}
    return plan


class DeltaMapper(Mapper):
    """Route each record to the reduce target(s) of its affected blocks."""

    def __init__(self, routes: Dict[str, Tuple[str, ...]],
                 family_order: Sequence[str]) -> None:
        self._routes = routes
        self._family_order = tuple(family_order)

    def map(self, record: DeltaRecord, context: TaskContext) -> None:
        _, keys, _ = record
        context.charge(context.cost_model.read_record)
        for family in self._family_order:
            key = keys.get(family)
            if key is None:
                continue
            for target in self._routes.get(f"{family}{ROUTE_SEP}{key}", ()):
                context.emit(target, record)


class DeltaPartitioner(Partitioner):
    """Route keys to the tasks the plan assigned (strategy-aware)."""

    def __init__(self, assignment: Dict[str, int]) -> None:
        self._assignment = assignment

    def partition(self, key: str, num_reduce_tasks: int) -> int:
        try:
            return self._assignment[key] % num_reduce_tasks
        except KeyError:
            raise ValueError(f"key {key!r} is not in the delta plan") from None


class DeltaReducer(Reducer):
    """Decide one affected block (or shard): its :func:`candidate_pairs`
    through :func:`~repro.mechanisms.base.resolve_block`, duplicates
    reported."""

    def __init__(
        self,
        batcher: BatchMatcher,
        family_order: Sequence[str],
        shards: Dict[str, Tuple[int, int]],
        *,
        min_family_matches: int = 2,
        cross_source_only: bool = False,
    ) -> None:
        self._batcher = batcher
        self._family_order = tuple(family_order)
        self._shards = shards
        self._min_matches = min(max(1, min_family_matches), len(self._family_order))
        self._cross_source_only = cross_source_only

    def reduce(self, key: str, values: Sequence[DeltaRecord], context: TaskContext) -> None:
        context.charge(context.cost_model.read_record * len(values), "read")
        members = sorted(values, key=lambda record: record[0].id)
        family = key.split(ROUTE_SEP, 1)[0]
        lo, hi = self._shards.get(key, (0, len(members)))

        def on_duplicate(e1: Entity, e2: Entity) -> None:
            context.counters.increment("service", "duplicates")
            pair = pair_key(e1.id, e2.id)
            context.record_event("duplicate", pair)
            context.write(pair)

        trace = context.tracing
        started = context.clock.now if trace else 0.0
        stats = resolve_block(
            [entity for entity, _, _ in members],
            candidate_pairs(
                members, lo, hi, family, self._family_order, self._min_matches
            ),
            self._batcher,
            context.cost_model,
            partial(context.charge, category="compare"),
            on_duplicate,
            # Both vetoes are pure in the pair, so batch-partition
            # invariance is untouched.
            admit=responsibility_veto(
                members, family, self._family_order, self._cross_source_only
            ),
        )
        if stats.comparisons:
            context.counters.increment("service", "comparisons", stats.comparisons)
        context.counters.increment("service", "blocks_resolved")
        if trace:
            context.record_span(
                f"delta:{key.replace(ROUTE_SEP, '/')}",
                "block",
                started,
                context.clock.now,
                members=len(members),
                candidates=stats.comparisons,
                duplicates=stats.duplicates,
            )


def build_delta_job(
    plan: DeltaPlan,
    batcher: BatchMatcher,
    family_order: Sequence[str],
    *,
    min_family_matches: int = 2,
    cross_source_only: bool = False,
    alpha: Optional[float] = None,
    name: str = "delta-resolution",
) -> MapReduceJob:
    """The MapReduce job for one batch, from its placement plan."""
    routes = dict(plan.routes)
    shards = dict(plan.shards)
    ranks = dict(plan.ranks)
    order = tuple(family_order)
    fallback = len(ranks)

    return MapReduceJob(
        mapper_factory=lambda: DeltaMapper(routes, order),
        reducer_factory=lambda: DeltaReducer(
            batcher,
            order,
            shards,
            min_family_matches=min_family_matches,
            cross_source_only=cross_source_only,
        ),
        partitioner=DeltaPartitioner(dict(plan.assignment)),
        key_sort=lambda label: (ranks.get(label, fallback), label),
        alpha=alpha,
        name=name,
    )


__all__ = [
    "SHARD_SEP",
    "DeltaRecord",
    "DeltaPlan",
    "responsible_family",
    "block_weight",
    "candidate_pairs",
    "responsibility_veto",
    "plan_delta",
    "DeltaMapper",
    "DeltaPartitioner",
    "DeltaReducer",
    "build_delta_job",
]
