"""The first MapReduce job: progressive blocking statistics (Section III-B).

The job produces the two outputs the paper describes:

1. an **annotated dataset** — each entity together with its main blocking
   key values, the records the map phase routes, consumed by Job 2's
   mappers so they need not recompute keys; and
2. **block statistics** — for every block of every tree: its size, its
   child blocks, and the overlap information needed to evaluate the
   inclusion–exclusion ``Uncov`` formula (the ``OLP`` values): a histogram
   of the block's entities over the main-key tuples of all *dominating*
   families.

Statistics blocks are *structural*: they carry sizes and tree links but not
entity memberships (Job 2's reducers re-derive memberships locally, as in
the paper's actual implementation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..blocking.blocker import sub_blocks
from ..blocking.blocks import Block
from ..blocking.functions import BlockingFunction, BlockingScheme
from ..data.dataset import Dataset
from ..data.entity import Entity
from ..mapreduce.engine import Cluster
from ..mapreduce.job import MapReduceJob, Mapper, Reducer, TaskContext
from ..mapreduce.types import JobResult

#: An entity annotated with its main blocking keys: (entity, {family: key}).
AnnotatedEntity = Tuple[Entity, Dict[str, Optional[str]]]

#: Histogram of a block's entities over dominating-family main-key tuples.
OverlapHistogram = Dict[Tuple[Optional[str], ...], int]


@dataclass
class BlockRecord:
    """One block's statistics as emitted by the reduce phase."""

    family: str
    level: int
    key: str
    size: int
    parent_uid: Optional[str]
    overlap: OverlapHistogram


@dataclass
class DatasetStatistics:
    """Aggregated Job-1 output: structural forests plus overlap data.

    Attributes:
        scheme: the blocking scheme the statistics were computed under.
        blocks: uid -> structural block (tree links intact, no entity ids).
        roots: family -> list of root blocks (the family's forest).
        overlaps: uid -> overlap histogram over dominating-family keys.
    """

    scheme: BlockingScheme
    blocks: Dict[str, Block] = field(default_factory=dict)
    roots: Dict[str, List[Block]] = field(default_factory=dict)
    overlaps: Dict[str, OverlapHistogram] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls, scheme: BlockingScheme, records: Sequence[BlockRecord]
    ) -> "DatasetStatistics":
        """Rebuild the structural forests from reduce-phase records."""
        stats = cls(scheme=scheme)
        # First pass: create blocks; second pass: link parents.
        for record in records:
            block = Block(
                family=record.family,
                level=record.level,
                key=record.key,
                entity_ids=(),
                size_override=record.size,
            )
            uid = block.uid
            if uid in stats.blocks:
                raise ValueError(
                    f"duplicate block uid {uid!r}: sub-blocking keys must "
                    "refine their parent keys"
                )
            stats.blocks[uid] = block
            stats.overlaps[uid] = dict(record.overlap)
        for record in records:
            uid = f"{record.family}{record.level}:{record.key}"
            block = stats.blocks[uid]
            if record.parent_uid is None:
                stats.roots.setdefault(record.family, []).append(block)
            else:
                stats.blocks[record.parent_uid].add_child(block)
        for family in stats.roots:
            stats.roots[family].sort(key=lambda b: b.key)
        return stats

    @property
    def num_blocks(self) -> int:
        """Total number of blocks across all families."""
        return len(self.blocks)


class AnnotateMapper(Mapper):
    """Map phase: route each annotated entity to every main block named by
    a non-``None`` key of its annotation.  Keys are computed (and masked)
    once, by :func:`run_statistics_job`, before the job runs."""

    def map(self, record: AnnotatedEntity, context: TaskContext) -> None:
        for family, key in record[1].items():
            if key is not None:
                context.emit((family, key), record)


class BlockStatsReducer(Reducer):
    """Reduce phase: per main block, derive the tree of sub-blocks and the
    overlap histograms (the ``OLP`` statistics)."""

    def __init__(self, scheme: BlockingScheme) -> None:
        self._scheme = scheme

    def reduce(
        self, key: Tuple[str, str], values: Sequence[AnnotatedEntity], context: TaskContext
    ) -> None:
        family, block_key = key
        trace = context.tracing
        span_start = context.clock.now if trace else 0.0
        context.charge(context.cost_model.stat_record * len(values))
        if len(values) < 2:
            return  # singleton main blocks produce no pairs
        dominating = self._scheme.family_order[: self._scheme.index_of(family) - 1]
        functions = self._scheme.families[family]
        self._emit_block(
            family, 1, block_key, list(values), None, dominating, functions, context
        )
        if trace:
            context.record_span(
                f"stats:{family}:{block_key}", "block",
                span_start, context.clock.now,
                family=family, key=block_key, entities=len(values),
            )

    def _emit_block(
        self,
        family: str,
        level: int,
        key: str,
        members: List[AnnotatedEntity],
        parent_uid: Optional[str],
        dominating: Sequence[str],
        functions: Sequence[BlockingFunction],
        context: TaskContext,
    ) -> None:
        """Write this block's record, then recurse into its children."""
        overlap: OverlapHistogram = {}
        for _, keys in members:
            signature = tuple(keys[f] for f in dominating)
            overlap[signature] = overlap.get(signature, 0) + 1
        uid = f"{family}{level}:{key}"
        context.write(
            BlockRecord(
                family=family,
                level=level,
                key=key,
                size=len(members),
                parent_uid=parent_uid,
                overlap=overlap,
            )
        )
        context.counters.increment("driver", "stat_blocks")
        context.charge(context.cost_model.stat_record * len(members))
        for sub_level, sub_key, group in sub_blocks(
            members, functions, level, itemgetter(0)
        ):
            self._emit_block(
                family, sub_level, sub_key, group, uid, dominating, functions, context
            )


def run_statistics_job(
    cluster: Cluster,
    dataset: Dataset,
    scheme: BlockingScheme,
    *,
    start_time: float = 0.0,
    pruned: Optional[FrozenSet[Tuple[int, str]]] = None,
) -> Tuple[List[AnnotatedEntity], DatasetStatistics, JobResult]:
    """Execute Job 1 and return (annotated dataset, statistics, job result).

    The annotated dataset is built once, here, in dataset order:
    :meth:`~repro.blocking.functions.BlockingScheme.main_keys` per entity,
    with every ``(entity id, family)`` membership in ``pruned`` (a
    block-filtering pre-pass, see :mod:`repro.core.metablock`) masked to
    ``None``.  That list is the job's map input, so a masked membership
    disappears from the block statistics and — because Job 2 routes from
    the same annotations — from resolution.  The returned list holds the
    very records the job read, sorted by entity id.
    """

    def annotate(entity: Entity) -> AnnotatedEntity:
        keys = scheme.main_keys(entity)
        if pruned:
            for family in keys:
                if (entity.id, family) in pruned:
                    keys[family] = None
        return entity, keys

    annotated = [annotate(entity) for entity in dataset.entities]
    job = MapReduceJob(
        mapper_factory=AnnotateMapper,
        reducer_factory=lambda: BlockStatsReducer(scheme),
        name="progressive-blocking-statistics",
    )
    result = cluster.run_job(job, annotated, start_time=start_time)
    annotated.sort(key=lambda a: a[0].id)
    stats = DatasetStatistics.from_records(scheme, result.output)
    return annotated, stats, result


__all__ = [
    "AnnotatedEntity",
    "OverlapHistogram",
    "BlockRecord",
    "DatasetStatistics",
    "AnnotateMapper",
    "BlockStatsReducer",
    "run_statistics_job",
]
