"""The Basic approach (paper Section II-C / Figure 2).

A single MapReduce job: the map function emits each entity once per main
blocking function, keyed by (function id, blocking key) — the function id
keeps equal key values of different functions apart (footnote 3).  The
default hash partitioner spreads blocks over the reduce tasks, and each
reduce call resolves one block with mechanism M until the popcorn stopping
condition fires (or to completion for "Basic F").

Redundant resolution of shared pairs is avoided with the strategy of
[Kolb et al., DanaC '13]: a pair is resolved only in the common block with
the smallest blocking key value.

This baseline has exactly the four limitations Section II-C lists — no
duplicate-aware scheduling, single-visit blocks with a hard-to-tune
threshold, no large-block handling, and earliest-key-biased shared-pair
placement — which is what Figures 8 and 10 measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..blocking.functions import BlockingScheme
from ..core.config import ApproachConfig, check_window
from ..core.driver import Resolution, first_discoveries
from ..data.dataset import Dataset
from ..data.entity import Entity
from ..mapreduce.engine import Cluster
from ..mapreduce.job import MapReduceJob, Mapper, Reducer, TaskContext
from ..mechanisms.base import block_sort_key, column_veto, duplicate_reporter, resolve_block
from ..mechanisms.popcorn import PopcornCondition
from ..similarity.batch import BatchMatcher

#: Map key: (family index, blocking key value); map value: the entity plus
#: its main keys under every family (needed for the [14] redundancy rule).
BasicKey = Tuple[int, str]
BasicValue = Tuple[Entity, Tuple[Optional[str], ...]]


@dataclass
class BasicConfig:
    """Configuration of the Basic baseline.

    Attributes:
        approach: the family's configuration; Basic reads its scheme (only
            the main, level-1 functions — Basic has no progressive
            blocking), matcher, mechanism M, α and mode.
        window: SN window size ``w`` (the paper compares 5 and 15), an
            integer >= 2.
        popcorn_threshold: popcorn stopping threshold in (0, 1); ``None``
            disables the stopping condition entirely ("Basic F").
    """

    approach: ApproachConfig
    window: int = 15
    popcorn_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        check_window("window", self.window)
        if self.popcorn_threshold is not None:
            PopcornCondition(self.popcorn_threshold)  # rejects one outside (0, 1), NaN too


class BasicMapper(Mapper):
    """Emit each entity once per main blocking function."""

    def __init__(self, scheme: BlockingScheme) -> None:
        self._scheme = scheme

    def map(self, record: Entity, context: TaskContext) -> None:
        signature = tuple(self._scheme.main_keys(record).values())
        for position, key in enumerate(signature):
            if key is not None:
                context.emit((position, key), (record, signature))


class BasicReducer(Reducer):
    """Resolve each block with M under the popcorn scheme, applying the
    smallest-key redundancy rule of [14]."""

    def __init__(self, config: BasicConfig, batcher: BatchMatcher) -> None:
        self._config = config
        # The job's matcher, shared by every reduce task of the job.
        self._batcher = batcher

    def reduce(
        self, key: BasicKey, values: Sequence[BasicValue], context: TaskContext
    ) -> None:
        if len(values) < 2:
            return
        position, block_key = key
        config = self._config
        approach = config.approach
        family = approach.scheme.family_order[position]
        sort_attribute = approach.scheme.sort_attribute(family)

        trace = context.tracing
        span_start = context.clock.now if trace else 0.0
        members, runs = approach.mechanism.pair_stream(
            [entity for entity, _ in values],
            config.window,
            lambda e: block_sort_key(e, sort_attribute),
            context.charge,
            context.cost_model,
        )
        signature_of = {entity.id: signature for entity, signature in values}
        admit = column_veto(
            members,
            smallest_key_columns(
                [signature_of[entity.id] for entity in members], position, block_key
            ),
            cross_source_only=approach.mode == "linkage",
        )

        stop = (
            PopcornCondition(config.popcorn_threshold)
            if config.popcorn_threshold is not None
            else None
        )
        stats = resolve_block(
            members,
            runs,
            self._batcher,
            context.cost_model,
            context.charge_each,
            duplicate_reporter(context, "driver"),
            admit=admit,
            stop=stop,
        )
        if stats.filtered:
            context.counters.increment("resolve", "pairs_filtered", stats.filtered)
        context.counters.increment("driver", "blocks_resolved")
        if trace:
            context.record_span(
                f"resolve:{family}1:{block_key}", "block",
                span_start, context.clock.now,
                block=f"{family}1:{block_key}",
                entities=len(members), duplicates=stats.duplicates,
            )


def smallest_key_columns(
    signatures: Sequence[Tuple[Optional[str], ...]], position: int, block_key: str
) -> List[List[object]]:
    """[14]'s rule as skip columns: a pair of the block shares a value in
    one of them iff another common block has a smaller key.

    ``signatures`` are the block members' main keys, in member order.  A
    pair of this block shares its key here, so it is skipped iff it also
    shares a key under a family whose ``(key, family position)`` sorts
    before ``(block_key, position)``: one column per other family holds
    such keys, and a value no other member holds where the key is missing
    or sorts after this block's.
    """
    here = (block_key, position)
    return [
        [
            signature[other]
            if signature[other] is not None and (signature[other], other) < here
            else -1 - rank
            for rank, signature in enumerate(signatures)
        ]
        for other in range(len(signatures[0]) if signatures else 0)
        if other != position
    ]


class BasicER:
    """Driver for the Basic baseline (one MapReduce job)."""

    def __init__(self, config: BasicConfig, cluster: Cluster) -> None:
        self.config = config
        self.cluster = cluster

    def run(self, dataset: Dataset) -> Resolution:
        """Run the single-job baseline on ``dataset``."""
        batcher = BatchMatcher(self.config.approach.matcher)
        job = MapReduceJob(
            mapper_factory=lambda: BasicMapper(self.config.approach.scheme),
            reducer_factory=lambda: BasicReducer(self.config, batcher),
            alpha=self.config.approach.alpha,
            name="basic-er",
        )
        result = self.cluster.run_job(job, dataset.entities)
        events = first_discoveries(result.events)
        return Resolution(dataset=dataset, jobs=[result], duplicate_events=events)


__all__ = [
    "BasicConfig",
    "BasicER",
    "BasicMapper",
    "BasicReducer",
    "smallest_key_columns",
]
