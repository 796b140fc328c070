"""The incremental resolver service: a session-oriented streaming ER API.

A :class:`ResolverService` is a long-lived resolver.  Batches of entities
arrive via :meth:`~ResolverService.submit`; each batch is blocked against
the persistent forest, only its candidate pairs are resolved (as one
delta MapReduce job on the session cluster), and the found-pair set
and virtual clock persist across batches.  Consumers stream new pairs with
:meth:`~ResolverService.pairs`, query live cluster membership with
:meth:`~ResolverService.cluster_of`, and round-trip the whole service
state with :meth:`~ResolverService.snapshot` /
:meth:`~ResolverService.restore`.

The headline invariant (pinned by the differential-oracle tests): any
partition of N entities into k submit batches yields exactly the final
found-pair set of submitting all N at once — across serial and process
backends, with or without a fault plan.  See :mod:`repro.service.delta`
for why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.config import ApproachConfig
from ..data.entity import Entity, Pair, pair_key
from ..data.rows import entity_from_row, entity_row, json_int
from ..evaluation.clustering import UnionFind
from ..mapreduce.job import stable_hash
from ..similarity.batch import BatchMatcher
from .delta import build_delta_job, plan_delta
from .session import ResolverSession
from .store import EntityStore

#: Version tag of the snapshot wire format.
SNAPSHOT_FORMAT = 1

#: Default minimum number of agreeing key families for a candidate pair
#: (clamped to the scheme's family count, so single-family schemes degrade
#: to plain co-blocking).
DEFAULT_MIN_FAMILY_MATCHES = 2


def config_fingerprint(config: ApproachConfig, min_family_matches: int) -> str:
    """A stable digest of everything that shapes the found-pair set.

    Snapshots embed it so :meth:`ResolverService.restore` can refuse a
    config whose blocking keys or match decisions would diverge from the
    state being restored.
    """
    scheme = config.scheme
    parts: List[str] = [f"min_matches={min_family_matches}", f"mode={config.mode}"]
    for family in scheme.family_order:
        functions = scheme.families[family]
        parts.append(
            f"{family}:" + ",".join(f"{f.level}|{f.description}" for f in functions)
        )
    matcher = config.matcher
    parts.append(f"threshold={matcher.threshold!r}")
    for rule in matcher.rules:
        parts.append(
            f"rule={rule.attribute}|{rule.comparator}|{rule.weight!r}|{rule.max_chars!r}"
        )
    return f"{stable_hash(tuple(parts)):016x}"


@dataclass(frozen=True)
class PairEvent:
    """One found duplicate pair, with its position in the service stream.

    ``seq`` is a strictly increasing cursor (1-based) — hand the last seen
    value back to :meth:`ResolverService.pairs` to stream only news.
    ``time`` is the global virtual time of the discovery.
    """

    seq: int
    pair: Pair
    batch: int
    time: float


@dataclass(frozen=True)
class BatchReceipt:
    """What one :meth:`ResolverService.submit` call did.

    Attributes:
        batch: 1-based batch number.
        added: entities admitted from this batch.
        affected_blocks: level-1 blocks holding at least one of the batch's
            candidate pairs (only these re-entered resolution).
        comparisons: similarity decisions made: the batch's candidate pairs.
        duplicates: new duplicate pairs found by this batch.
        pairs: those pairs, in discovery order.
        start_time / end_time: the batch's global virtual-time window.
        first_seq / last_seq: stream-cursor range of the new pairs
            (``first_seq > last_seq`` when the batch found nothing).
    """

    batch: int
    added: int
    affected_blocks: int
    comparisons: int
    duplicates: int
    pairs: Tuple[Pair, ...]
    start_time: float
    end_time: float
    first_seq: int
    last_seq: int


class ResolverService:
    """A long-lived incremental resolver over one approach configuration.

    Args:
        config: the :class:`~repro.core.config.ApproachConfig` supplying
            the blocking scheme and match function (Basic configs have no
            forest to keep warm and are rejected).
        machines: simulated cluster size for the delta jobs.
        min_family_matches: key families that must agree before a pair is
            compared (clamped to the scheme's family count).
        backend / workers / tracer / metrics / faults: forwarded to the
            underlying session cluster, exactly as
            :class:`~repro.evaluation.experiment.RunSpec` takes them.
    """

    def __init__(
        self,
        config: ApproachConfig,
        *,
        machines: int = 4,
        min_family_matches: int = DEFAULT_MIN_FAMILY_MATCHES,
        backend: str = "serial",
        workers: Optional[int] = None,
        tracer: Optional[Any] = None,
        metrics: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> None:
        if not isinstance(config, ApproachConfig):
            raise TypeError(
                "ResolverService needs an ApproachConfig (a blocking scheme "
                f"to keep warm); got {type(config).__name__}"
            )
        from ..evaluation.experiment import RunSpec

        self.config = config
        # One matcher for the service's life: its kernel rows serve every
        # delta job (see BatchMatcher).  It holds at most one row per entity
        # id ever offered, plus one signature per distinct edit-rule value
        # ever seen.  A row built by a job that then raised keeps that
        # batch's uncommitted entity until its id is resolved again.
        self._batcher = BatchMatcher(config.matcher)
        self.min_family_matches = min(
            max(1, min_family_matches), config.scheme.num_families
        )
        self.spec = RunSpec(
            dataset=None,
            config=config,
            machines=machines,
            label="service",
            backend=backend,
            workers=workers,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
        )
        self.session = ResolverSession(self.spec)
        self.session.begin_run(self.spec.label)
        self.store = EntityStore(config.scheme.family_order, self.min_family_matches)
        self._events: List[PairEvent] = []
        self._found: Set[Pair] = set()
        self._clusters = UnionFind()
        self._clock = 0.0
        self._batches = 0
        self._comparisons = 0
        self._receipts: List[BatchReceipt] = []

    # -- core API ----------------------------------------------------------

    def submit(self, entities: Iterable[Entity]) -> BatchReceipt:
        """Admit a batch and resolve everything it can change.

        Atomic: the batch is admitted only after its delta job returned.
        If the job raises (a fault plan aborting it, a dead worker) the
        store, batch counter, clock, pair stream and receipts are exactly
        as before the call, and the same batch can be submitted again.
        """
        batch_entities = list(entities)
        self._check_batch(batch_entities)
        annotated = [(e, self.config.scheme.main_keys(e)) for e in batch_entities]
        plan = plan_delta(
            self.store,
            annotated,
            self.session.cluster.num_reduce_tasks,
            cross_source_only=self.config.mode == "linkage",
        )
        batch = self._batches + 1
        start_time = self._clock
        result = None
        if plan.units:
            job = build_delta_job(
                plan,
                self._batcher,
                alpha=self.config.alpha,
                name=f"delta-resolution-{batch}",
            )
            # Map input: every entity a pair names, once.  New ones are not
            # in the store until the batch is admitted below.
            fresh = {entity.id: entity for entity in batch_entities}
            records = [
                fresh[entity_id] if entity_id in fresh
                else self.store.get(entity_id).entity
                for entity_id in sorted(plan.routes)
            ]
            result = self.session.run_job(job, records, start_time=start_time)
        # Nothing above mutated the service; from here on nothing raises.
        self.store.admit(annotated, batch)
        self._batches = batch
        first_seq = len(self._events) + 1
        new_pairs: List[Pair] = []
        comparisons = 0
        if result is not None:
            self._clock = result.end_time
            for event in result.events:
                if event.kind != "duplicate":
                    continue
                pair = event.payload
                if pair in self._found:
                    continue
                self._found.add(pair)
                self._clusters.union(*pair)
                new_pairs.append(pair)
                self._events.append(
                    PairEvent(seq=len(self._events) + 1, pair=pair,
                              batch=batch, time=event.time)
                )
            comparisons = result.counters.get("service", "comparisons")
            self._comparisons += comparisons
        receipt = BatchReceipt(
            batch=batch,
            added=len(annotated),
            affected_blocks=plan.num_blocks,
            comparisons=comparisons,
            duplicates=len(new_pairs),
            pairs=tuple(new_pairs),
            start_time=start_time,
            end_time=self._clock,
            first_seq=first_seq,
            last_seq=len(self._events),
        )
        self._receipts.append(receipt)
        return receipt

    def pairs(self, since: int = 0) -> List[PairEvent]:
        """Found-pair events after stream cursor ``since`` (0 = all)."""
        if since < 0:
            raise ValueError(f"since must be >= 0, got {since}")
        if since >= len(self._events):
            return []
        return list(self._events[since:])

    def cluster_of(self, entity_id: int) -> Tuple[int, ...]:
        """Live cluster membership of an admitted entity (sorted ids)."""
        if entity_id not in self.store:
            raise KeyError(f"entity id {entity_id} was never submitted")
        return tuple(self._clusters.members(entity_id))

    # -- inspection --------------------------------------------------------

    @property
    def found_pairs(self) -> FrozenSet[Pair]:
        """All duplicate pairs found so far."""
        return frozenset(self._found)

    @property
    def total_entities(self) -> int:
        return len(self.store)

    @property
    def total_comparisons(self) -> int:
        return self._comparisons

    @property
    def clock(self) -> float:
        """Current global virtual time (end of the last delta job)."""
        return self._clock

    @property
    def receipts(self) -> List[BatchReceipt]:
        return list(self._receipts)

    def clusters(self) -> List[List[int]]:
        """All multi-entity clusters, sorted for determinism."""
        return self._clusters.groups()

    def stats(self) -> Dict[str, Any]:
        """A summary dict for reports and the CLI."""
        return {
            "entities": self.total_entities,
            "batches": self._batches,
            "blocks": self.store.num_blocks(),
            "comparisons": self._comparisons,
            "found_pairs": len(self._found),
            "clusters": len(self.clusters()),
            "virtual_time": self._clock,
        }

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable state: entities, pair stream, clock."""
        stored = sorted(self.store.stored(), key=lambda s: s.entity.id)
        return {
            "format": SNAPSHOT_FORMAT,
            "fingerprint": config_fingerprint(self.config, self.min_family_matches),
            "clock": self._clock,
            "batches": self._batches,
            "comparisons": self._comparisons,
            "entities": [entity_row(s.entity, batch=s.batch) for s in stored],
            "events": [
                {"seq": e.seq, "pair": list(e.pair), "batch": e.batch, "time": e.time}
                for e in self._events
            ],
        }

    @classmethod
    def restore(cls, snapshot: Dict[str, Any], config: ApproachConfig,
                **service_options: Any) -> "ResolverService":
        """Rebuild a service from :meth:`snapshot` output.

        ``config`` must be behaviorally identical to the snapshotting
        service's (checked via the embedded fingerprint); keys are
        recomputed from it, so only entities, stream state and the clock
        travel in the snapshot.  (Snapshots written before the per-pair
        ``"decisions"`` ledger was dropped still restore: the key is
        ignored, nothing ever read it.)  Entity rows are read by
        :func:`~repro.data.rows.entity_from_row`, the parser `serve`
        input goes through.  Anything that is not a complete snapshot of
        this format raises ``ValueError`` naming the section (and row
        index) that cannot be parsed — and so does a snapshot that
        contradicts itself: an entity id twice, an event pair naming an
        unknown id or repeating an earlier pair, ``seq`` not running 1..N,
        a ``batch`` outside 1..``batches``, a negative or non-finite
        ``clock``, negative counts, or event times that decrease or pass
        ``clock``.
        """
        if not isinstance(snapshot, dict):
            raise ValueError("a snapshot is a JSON object")
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported snapshot format {snapshot.get('format')!r} "
                f"(this build reads format {SNAPSHOT_FORMAT})"
            )
        missing = [
            section
            for section in ("entities", "events", "clock", "batches", "comparisons")
            if section not in snapshot
        ]
        if missing:
            raise ValueError(f"snapshot has no {', '.join(missing)} section")
        counts = {}
        for section, parse in (
            ("clock", _clock), ("batches", _count), ("comparisons", _count)
        ):
            try:
                counts[section] = parse(snapshot[section], section)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"snapshot {section} is malformed: {exc}") from exc
        clock, batches = counts["clock"], counts["batches"]
        seen: Set[int] = set()

        def entity_row(row: Dict[str, Any]) -> Tuple[int, Entity]:
            entity = entity_from_row(row)
            if entity.id in seen:
                raise ValueError(f"entity id {entity.id} appears twice")
            seen.add(entity.id)
            return _batch_of(json_int(row["batch"], "'batch'"), batches), entity

        found: Set[Pair] = set()
        last_time = 0.0

        def event_row(row: Dict[str, Any]) -> PairEvent:
            nonlocal last_time
            event = _event_row(row)
            if event.seq != len(found) + 1:
                raise ValueError(f"seq {event.seq} where {len(found) + 1} was expected")
            _batch_of(event.batch, batches)
            unknown = [entity_id for entity_id in event.pair if entity_id not in seen]
            if unknown:
                raise ValueError(f"entity id {unknown[0]} is not in the entities section")
            if event.pair in found:
                raise ValueError(f"pair {event.pair} appears twice")
            if not last_time <= event.time <= clock:
                raise ValueError(
                    f"time {event.time!r} is not within [{last_time!r}, clock {clock!r}]"
                )
            found.add(event.pair)
            last_time = event.time
            return event

        entities = _parse_rows(snapshot, "entities", entity_row)
        events = _parse_rows(snapshot, "events", event_row)
        service = cls(config, **service_options)
        expected = config_fingerprint(config, service.min_family_matches)
        if snapshot.get("fingerprint") != expected:
            raise ValueError(
                "snapshot was taken under a different blocking scheme or "
                "matcher; restoring it here would silently change the "
                "found-pair set"
            )
        by_batch: Dict[int, List[Entity]] = {}
        for batch, entity in entities:
            by_batch.setdefault(batch, []).append(entity)
        for batch in sorted(by_batch):
            annotated = [(e, config.scheme.main_keys(e)) for e in by_batch[batch]]
            service.store.admit(annotated, batch)
        service._events = events
        service._found = found
        for event in events:
            service._clusters.union(*event.pair)
        service._clock = clock
        service._batches = batches
        service._comparisons = counts["comparisons"]
        return service

    # -- internals ---------------------------------------------------------

    def _check_batch(self, batch_entities: Sequence[Entity]) -> None:
        seen: Set[int] = set()
        linkage = self.config.mode == "linkage"
        for entity in batch_entities:
            if not isinstance(entity, Entity):
                raise TypeError(
                    f"submit() takes Entity records, got {type(entity).__name__}"
                )
            if entity.id in seen:
                raise ValueError(f"batch contains entity id {entity.id} twice")
            if linkage and entity.source is None:
                raise ValueError(
                    f"entity id {entity.id} has no source; linkage mode "
                    "compares only across sources"
                )
            if entity.id in self.store:
                raise ValueError(
                    f"entity id {entity.id} was already submitted; ids are "
                    "immutable once admitted"
                )
            seen.add(entity.id)


def _parse_rows(snapshot: Dict[str, Any], section: str, parse) -> List[Any]:
    """``parse(row)`` for every row of a snapshot section, in order.

    A section that is not a list, or a row ``parse`` cannot read, raises
    ``ValueError`` naming the section and the row index.
    """
    rows = snapshot[section]
    if not isinstance(rows, list):
        raise ValueError(f"snapshot {section} section is not a list")
    parsed = []
    for index, row in enumerate(rows):
        try:
            parsed.append(parse(row))
        except (TypeError, ValueError, KeyError, IndexError, AttributeError) as exc:
            raise ValueError(
                f"snapshot {section}[{index}] is malformed: {exc!r}"
            ) from exc
    return parsed


def _clock(value: Any, section: str) -> float:
    clock = float(value)
    if not (math.isfinite(clock) and clock >= 0.0):
        raise ValueError(f"{section} must be a finite number >= 0, got {clock!r}")
    return clock


def _count(value: Any, section: str) -> int:
    count = json_int(value, section)
    if count < 0:
        raise ValueError(f"{section} must be >= 0, got {count}")
    return count


def _batch_of(batch: int, batches: int) -> int:
    if not 1 <= batch <= batches:
        raise ValueError(f"batch {batch} is outside 1..{batches}")
    return batch


def _event_row(row: Dict[str, Any]) -> PairEvent:
    first, second = row["pair"]
    return PairEvent(
        seq=int(row["seq"]),
        pair=pair_key(json_int(first, "'pair'"), json_int(second, "'pair'")),
        batch=int(row["batch"]),
        time=float(row["time"]),
    )


__all__ = [
    "SNAPSHOT_FORMAT",
    "DEFAULT_MIN_FAMILY_MATCHES",
    "config_fingerprint",
    "PairEvent",
    "BatchReceipt",
    "ResolverService",
]
