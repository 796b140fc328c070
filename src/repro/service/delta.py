"""The delta MapReduce job: resolve only what a new batch can change.

One submit runs one job, and the driver decides all of its work before the
job starts.  :func:`plan_delta` lists the batch's exact candidate pairs: a
new entity pairs with a stored or an earlier new entity when their level-1
keys agree in at least ``min_family_matches`` families (only across
sources in linkage mode), which is when the two share an agreement key of
the store's index (:class:`~repro.service.store.EntityStore`).  So the
planner looks up a new entity's few agreement keys and reads only the ids
filed under them; it never counts the members of its blocks.
Responsibility is settled there, once: each pair is filed under the block
of the *first* agreeing family in dominance order, the block the paper's
Section IV-A decides it in, which is the first route of the first
agreement key, in dominance order, that the two share.  Block sizes, sort
orders and batch boundaries never enter that rule, so the union over any
batch sequence is the one-shot candidate set, decided by the same
deterministic kernel; and because each submit pairs only its own
entities, with what came before, every pair is decided exactly once, in
the batch of its younger member.

The job then only executes the plan.  Only blocks that hold a pair are
routed; a block above the batch's fair share is cut into slices along its
partners, and the units are placed onto reduce tasks by exact pair count
with :func:`~repro.core.schedule.place_units` and run in that LPT order,
most pairs first.  Map
ships each entity to the units whose pairs name it, and reduce feeds a
unit's pairs to :func:`~repro.mechanisms.base.resolve_block` — the same
collect → decide → replay loop Job 2 runs — with no veto.  The job runs
on the ordinary cluster engine, so executor pools, fault plans and tracer
spans all apply unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import attrgetter, itemgetter
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.balance import shard_bounds
from ..core.schedule import place_units
from ..data.entity import Entity, same_source
from ..mapreduce.job import AssignmentPartitioner, MapReduceJob, Mapper, Reducer, TaskContext
from ..mechanisms.base import Run, duplicate_reporter, resolve_block
from ..similarity.batch import BatchMatcher
from .store import ROUTE_SEP, AgreementKey, BlockRoute, EntityStore, route_label

#: One anchor's share of a unit: a new entity's id and the ids, ascending,
#: of the partners it is compared with there.
AnchorPairs = Tuple[int, List[int]]


@dataclass
class DeltaPlan:
    """One batch's exact candidate pairs, cut into units and placed.

    Attributes:
        blocks: block label -> its unit labels (the block itself, or its
            slices); only blocks holding a pair appear.
        units: unit label -> its pairs as per-anchor partner lists, in the
            order they are compared.
        assignment: unit label -> reduce task index.
        ranks: unit label -> processing priority (0 = first): LPT order,
            most pairs first.
        routes: entity id -> the unit labels whose pairs name it.
    """

    blocks: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    units: Dict[str, List[AnchorPairs]] = field(default_factory=dict)
    assignment: Dict[str, int] = field(default_factory=dict)
    ranks: Dict[str, int] = field(default_factory=dict)
    routes: Dict[int, List[str]] = field(default_factory=dict)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def num_pairs(self) -> int:
        return sum(unit_size(unit) for unit in self.units.values())


def unit_size(unit: Sequence[AnchorPairs]) -> int:
    """The number of pairs in a unit (or in a block's pair list)."""
    return sum(len(partners) for _, partners in unit)


def plan_delta(
    store: EntityStore,
    annotated: Sequence[Tuple[Entity, Dict[str, Optional[str]]]],
    num_reduce_tasks: int,
    *,
    cross_source_only: bool = False,
) -> DeltaPlan:
    """The batch's candidate pairs, filed by responsible block, sliced to
    the fair share and placed longest-processing-time-first.

    ``annotated`` is the batch in submission order with each entity's
    level-1 keys; nothing of it is in ``store`` yet.  An entity's partners
    are the ids filed under its agreement keys
    (:meth:`~repro.service.store.EntityStore.agreement_keys`), in ``store``
    and among the batch entities before it, so each pair is listed once,
    under its younger member.  A partner's responsible block is the first
    route of the first agreement key that holds it.  Blocks are listed
    anchor by anchor in batch order, partners by ascending id.  The fair
    share is ⌈pairs ÷ reduce tasks⌉; a block above it becomes
    ⌈size ÷ share⌉ slices (:func:`_slices`).
    """
    agreeing = store.agreeing
    fresh = {entity.id: entity for entity, _ in annotated}
    arrived: Dict[AgreementKey, List[int]] = {}
    blocks: Dict[BlockRoute, List[AnchorPairs]] = {}
    for entity, keys in annotated:
        agreements = store.agreement_keys(keys)
        seen: Set[int] = set()
        # Agreement keys sharing a first route are adjacent; the first
        # group that holds a partner names its first agreeing family.
        for route, group in groupby(agreements, itemgetter(0)):
            found: Set[int] = set()
            for agreement in group:
                found.update(agreeing(agreement))
                found.update(arrived.get(agreement, ()))
            found -= seen
            seen |= found
            if cross_source_only:
                found = {
                    partner for partner in found
                    if not same_source(
                        entity,
                        fresh[partner] if partner in fresh else store.get(partner).entity,
                    )
                }
            if found:
                blocks.setdefault(route, []).append((entity.id, sorted(found)))
        for agreement in agreements:
            arrived.setdefault(agreement, []).append(entity.id)

    plan = DeltaPlan()
    loads: Dict[str, int] = {}
    tasks = max(1, num_reduce_tasks)
    total = sum(unit_size(pairs) for pairs in blocks.values())
    fair_share = max(1, math.ceil(total / tasks))
    for route, pairs in blocks.items():
        label = route_label(route)
        size = unit_size(pairs)
        parts = math.ceil(size / fair_share)
        if parts == 1:
            pieces = {label: pairs}
        else:
            pieces = {
                f"{label}{ROUTE_SEP}{index}": piece
                for index, piece in enumerate(_slices(pairs, size, parts))
            }
        plan.blocks[label] = tuple(pieces)
        plan.units.update(pieces)
        loads.update((unit, unit_size(piece)) for unit, piece in pieces.items())

    plan.assignment = place_units(loads.items(), tasks)
    for rank, unit in enumerate(plan.assignment):
        plan.ranks[unit] = rank
        named = {anchor for anchor, _ in plan.units[unit]}
        for _, partners in plan.units[unit]:
            named.update(partners)
        for entity_id in named:
            plan.routes.setdefault(entity_id, []).append(unit)
    return plan


def _slices(pairs: Sequence[AnchorPairs], size: int, parts: int) -> List[List[AnchorPairs]]:
    """``pairs`` cut into ``parts`` slices of near-equal size along the
    partner axis: read partner-major (partner ids ascending, each
    partner's anchors in block order), the slices are contiguous runs of
    that order, kept as per-anchor partner lists in block order.

    A batch's few anchors share a block's many stored partners; cut this
    way each partner lands in one slice, and only anchors recur.
    """
    columns: Dict[int, List[int]] = {}
    for index, (_, partners) in enumerate(pairs):
        for partner in partners:
            columns.setdefault(partner, []).append(index)
    ends = shard_bounds(size, parts)[1:]
    slices: List[List[List[int]]] = [[[] for _ in pairs] for _ in ends]
    done, part = 0, 0
    for partner in sorted(columns):
        for index in columns[partner]:
            if done == ends[part]:
                part += 1
            slices[part][index].append(partner)
            done += 1
    return [
        [(pairs[index][0], partners) for index, partners in enumerate(piece) if partners]
        for piece in slices
    ]


def unit_runs(members: Sequence[Entity], pairs: Sequence[AnchorPairs]) -> Iterator[Run]:
    """A unit's pairs as one run per anchor over the positions of
    ``members`` (sorted by id), the lower id of each pair on the left."""
    position = {entity.id: index for index, entity in enumerate(members)}.__getitem__
    for anchor, partners in pairs:
        a = position(anchor)
        others = list(map(position, partners))
        yield list(map(min, others, repeat(a))), list(map(max, others, repeat(a)))


class DeltaMapper(Mapper):
    """Ship each entity to the units whose pairs name it."""

    def __init__(self, routes: Dict[int, List[str]]) -> None:
        self._routes = routes

    def map(self, record: Entity, context: TaskContext) -> None:
        context.charge(context.cost_model.read_record)
        for unit in self._routes[record.id]:
            context.emit(unit, record)


class DeltaReducer(Reducer):
    """Decide one unit: its pairs through
    :func:`~repro.mechanisms.base.resolve_block`, duplicates reported."""

    def __init__(self, batcher: BatchMatcher, units: Dict[str, List[AnchorPairs]]) -> None:
        self._batcher = batcher
        self._units = units

    def reduce(self, key: str, values: Sequence[Entity], context: TaskContext) -> None:
        context.charge(context.cost_model.read_record * len(values))
        members = sorted(values, key=attrgetter("id"))

        trace = context.tracing
        started = context.clock.now if trace else 0.0
        stats = resolve_block(
            members,
            unit_runs(members, self._units[key]),
            self._batcher,
            context.cost_model,
            context.charge_each,
            duplicate_reporter(context, "service"),
        )
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
    *,
    alpha: Optional[float] = None,
    name: str = "delta-resolution",
) -> MapReduceJob:
    """The MapReduce job for one batch, from its plan."""
    ranks = dict(plan.ranks)
    return MapReduceJob(
        mapper_factory=lambda: DeltaMapper(plan.routes),
        reducer_factory=lambda: DeltaReducer(batcher, plan.units),
        partitioner=AssignmentPartitioner(plan.assignment),
        key_sort=lambda label: (ranks[label], label),
        alpha=alpha,
        name=name,
    )


__all__ = [
    "AnchorPairs",
    "DeltaPlan",
    "unit_size",
    "plan_delta",
    "unit_runs",
    "DeltaMapper",
    "DeltaReducer",
    "build_delta_job",
]
