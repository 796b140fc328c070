"""Multi-pass Sorted Neighborhood with MapReduce (related-work baseline).

The paper's related work (Section VII) cites [Kolb, Thor & Rahm '12]:
"Multi-pass sorted neighborhood blocking with MapReduce" — the standard
way to parallelize SN before progressive ER existed.  One MapReduce job
per blocking pass:

* the **map** phase keys every entity by the pass's sorting key;
* a **range partitioner** (boundaries pre-sampled from the dataset, as in
  the original's analysis phase) sends contiguous key ranges to reduce
  tasks, so the global sorted order is the concatenation of the tasks'
  local orders;
* each entity within ``window - 1`` positions of a partition boundary is
  **replicated** to the succeeding partition (the RepSN scheme), so no
  cross-boundary pair is missed;
* each reduce task slides the SN window over its sorted range, skipping
  pairs of two replicas (they belong to the preceding partition), and
  hands that window, one run per left position, to
  :func:`~repro.mechanisms.base.resolve_block` — the
  loop and match kernel every other pair in ``src/`` is decided by.

Passes run sequentially (job p + 1 starts when job p ends).  As the paper
notes, such algorithms "implement a fixed ER algorithm and need to run to
completion before they can produce results" — there is no prioritization
whatsoever; this baseline exists to quantify what progressiveness adds
over plain parallel SN.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Set, Tuple

from ..core.config import ApproachConfig, check_window
from ..core.driver import Resolution, first_discoveries
from ..data.dataset import Dataset
from ..data.entity import Entity, pair_key
from ..mapreduce.engine import Cluster
from ..mapreduce.job import MapReduceJob, Mapper, Partitioner, Reducer, TaskContext
from ..mapreduce.types import Event, JobResult
from ..mechanisms.base import Run, block_sort_key, column_veto, resolve_block
from ..similarity.batch import BatchMatcher

#: Map key: (partition index, sort key, replica flag); the replica flag
#: sorts replicas *before* the partition's own records so they prepend.
MrsnKey = Tuple[int, Tuple[str, str], bool]


@dataclass
class MrsnConfig:
    """Configuration of the multi-pass MR-SN baseline.

    Attributes:
        approach: the family's configuration; MR-SN reads its matcher, its
            mode and its scheme, each family's *main* function defining one
            pass's sorting attribute (sub-functions are not used — SN has
            no notion of block hierarchies).
        window: SN window size ``w``, an integer >= 2.
    """

    approach: ApproachConfig
    window: int = 15

    def __post_init__(self) -> None:
        check_window("window", self.window)


class MrsnMapper(Mapper):
    """Key each entity by the pass's sorting key; replicate boundary
    entities into the succeeding partition (RepSN)."""

    def __init__(
        self,
        sort_attribute: str,
        boundaries: Sequence[Tuple[str, str]],
        replicate: Set[int],
    ) -> None:
        self._sort_attribute = sort_attribute
        self._boundaries = list(boundaries)  # partition upper bounds
        self._replicate = replicate  # entity ids to copy forward

    def map(self, record: Entity, context: TaskContext) -> None:
        sort_key = block_sort_key(record, self._sort_attribute)
        partition = bisect_right(self._boundaries, sort_key)
        context.emit((partition, sort_key, False), record)
        if record.id in self._replicate and partition + 1 <= len(self._boundaries):
            context.emit((partition + 1, sort_key, True), record)


class MrsnPartitioner(Partitioner):
    """Range partitioning: the partition index is baked into the key."""

    def partition(self, key: MrsnKey, num_reduce_tasks: int) -> int:
        return min(key[0], num_reduce_tasks - 1)


def window_runs(ordered: Sequence[Tuple[Entity, bool]], window: int) -> Iterator[Run]:
    """The SN window over a task's ``(entity, is_replica)`` range: one run
    per left position, its partners within ``window - 1`` ranks."""
    for i, (entity_i, replica_i) in enumerate(ordered):
        partners = [
            j
            for j in range(i + 1, min(len(ordered), i + window))
            # Two replicas belong to the preceding partition; an entity
            # next to its own replica is no pair.
            if not (replica_i and ordered[j][1]) and ordered[j][0].id != entity_i.id
        ]
        if partners:
            yield [i] * len(partners), partners


class MrsnReducer(Reducer):
    """Slide the SN window over the task's sorted range."""

    def __init__(self, config: MrsnConfig, batcher: BatchMatcher) -> None:
        self._config = config
        # The job's matcher, shared by every reduce task of the job.
        self._batcher = batcher
        self._ordered: List[Tuple[Entity, bool]] = []

    def reduce(
        self, key: MrsnKey, values: Sequence[Entity], context: TaskContext
    ) -> None:
        # Groups arrive in key order: (partition, sort key, replica flag);
        # replica=False sorts after True only within equal sort keys, which
        # is irrelevant because replicas always carry *smaller* sort keys
        # than every non-replica of the partition.
        _, _, is_replica = key
        for entity in values:
            context.charge(context.cost_model.read_record)
            self._ordered.append((entity, is_replica))

    def cleanup(self, context: TaskContext) -> None:
        window = self._config.window
        ordered = self._ordered
        context.charge(context.cost_model.sort_cost(len(ordered)))

        # Plain MR jobs commit reducer output only when the task completes
        # — no incremental α-flushing here, so a pair becomes *available*
        # at task end (see MultiPassMRSN.run).
        members = [entity for entity, _ in ordered]
        linkage = self._config.approach.mode == "linkage"
        stats = resolve_block(
            members,
            window_runs(ordered, window),
            self._batcher,
            context.cost_model,
            context.charge_each,
            lambda e1, e2: context.write(pair_key(e1.id, e2.id)),
            admit=column_veto(members, (), cross_source_only=True) if linkage else None,
        )
        if stats.filtered:
            context.counters.increment("resolve", "pairs_filtered", stats.filtered)


class MultiPassMRSN:
    """Driver: one sequential MapReduce job per blocking pass."""

    def __init__(self, config: MrsnConfig, cluster: Cluster) -> None:
        self.config = config
        self.cluster = cluster

    def run(self, dataset: Dataset) -> Resolution:
        """Run every pass; pass p + 1 starts when pass p ends."""
        jobs: List[JobResult] = []
        start_time = 0.0
        for family in self.config.approach.scheme.family_order:
            job_result = self._run_pass(dataset, family, start_time)
            jobs.append(job_result)
            start_time = job_result.end_time
        # A pair is available once the output file holding it closes, at
        # its reduce task's end: fixed parallel ER, as the paper has it.
        available = sorted(
            (output_file.close_time, pair)
            for job in jobs
            for output_file in job.output_files
            for pair in output_file.records
        )
        events = first_discoveries(
            [Event(time=time, kind="duplicate", payload=pair) for time, pair in available]
        )
        return Resolution(dataset=dataset, jobs=jobs, duplicate_events=events)

    # ------------------------------------------------------------------

    def _run_pass(self, dataset: Dataset, family: str, start_time: float) -> JobResult:
        sort_attribute = self.config.approach.scheme.sort_attribute(family)
        boundaries, replicate = self._plan_partitions(dataset, sort_attribute)
        batcher = BatchMatcher(self.config.approach.matcher)
        job = MapReduceJob(
            mapper_factory=lambda: MrsnMapper(sort_attribute, boundaries, replicate),
            reducer_factory=lambda: MrsnReducer(self.config, batcher),
            partitioner=MrsnPartitioner(),
            # No α: a plain MR job writes one output file per reduce task,
            # readable only once the task finishes.
            name=f"mrsn-pass-{family}",
        )
        return self.cluster.run_job(job, dataset.entities, start_time=start_time)

    def _plan_partitions(
        self, dataset: Dataset, sort_attribute: str
    ) -> Tuple[List[Tuple[str, str]], Set[int]]:
        """The original's analysis phase: derive range boundaries that
        split the sorted order evenly over the reduce tasks, and mark the
        ``window - 1`` entities before each boundary for replication."""
        num_tasks = self.cluster.num_reduce_tasks
        ordered = sorted(
            dataset.entities, key=lambda e: (block_sort_key(e, sort_attribute), e.id)
        )
        n = len(ordered)
        boundaries: List[Tuple[str, str]] = []
        replicate: Set[int] = set()
        for task in range(1, num_tasks):
            cut = task * n // num_tasks
            if cut <= 0 or cut >= n:
                continue
            # Boundary = the first key of the next partition; the mapper's
            # bisect_right sends keys >= boundary to that partition.
            boundaries.append(block_sort_key(ordered[cut], sort_attribute))
            for position in range(max(0, cut - self.config.window + 1), cut):
                replicate.add(ordered[position].id)
        return boundaries, replicate


__all__ = ["MrsnConfig", "MultiPassMRSN", "window_runs"]
