"""Progressive mechanism interface and the block-resolution driver.

A *progressive mechanism M* (paper Section II-B) is any ER algorithm —
possibly combined with a hint — that can be applied on a block to identify
its duplicate pairs as quickly as possible.  Here a mechanism contributes
two things:

* a **pair stream**: the block's members in the mechanism's order and its
  candidate pairs in priority order (most-likely-duplicate first), as
  **runs** — equal-length position sequences ``(lefts, rights)`` into
  those members, pair ``k`` of a run being ``(members[lefts[k]],
  members[rights[k]])``.  PSNM and the SN hint yield one run per rank
  distance; every other stream cuts its own.  The stream is the runs'
  concatenation, and
* an **additional cost** ``CostA`` (hint generation, sorting, reading) that
  it charges before the first comparison.

:func:`resolve_block` is the one resolution loop in the package — Job 2's
reducer, the Basic and MR-SN baselines and the incremental service's delta
reducer all call it.  Like the paper's mechanism (Section III-B, Figure 7)
it takes a pair stream in priority order, one **veto** (the
``SHOULD-RESOLVE`` test and every other reason not to compare a pair,
folded into a single ``admit`` callable by the caller) and a pluggable
**stop condition** consulted after every comparison.  ``admit`` answers
for a whole run at once: it compares per-block columns (ids, sources,
dominance entries, ...) position against position, so a vetoed position
costs a list element, not a Python call.

The loop decides pairs in **batches** through
:class:`~repro.similarity.batch.BatchMatcher`: it collects
:data:`BATCH_PAIRS` compared pairs from the runs, decides them in one
kernel call, then *replays* the batch a run piece at a time, in stream
order.  A piece's outcomes — its decisions, with ``"pruned"`` positions as
non-duplicates — go to the stop condition's closed form
(:meth:`StopCondition.first_stop`) once, which names the position the
block stops at, if any; up to that position the piece's comparison costs
are charged a stretch at a time (each stretch ends at a duplicate, which
is then reported at the clock its own charge left), its counts are added
in one step, ``on_resolved`` sees its compared pairs in one call, and its
``"skipped"`` / ``"filtered"`` / ``"pruned"`` positions are tallied.
Decisions, charges, clocks and stop points are bit-identical to a
per-pair loop over the definition ``matcher.is_match`` (the
``scalar_resolve_block`` oracle under ``tests/``) at any width; only
wall-clock time changes.  Look-ahead into the stream is free in virtual
time because every mechanism charges its ``CostA`` once up front and never
per pair.  Three contracts make the replay safe:

* **no repeats** — no stream yields the same entity-id pair twice within a
  block (every in-repo stream is a set of distinct position pairs over
  distinct entities), so no pair's decision can change a veto computed
  for a later position of the same block;
* ``admit`` may read state that ``on_resolved`` / ``on_duplicate`` write
  only if that state is keyed by the entity-id *pair* (the in-repo vetoes —
  redundancy sets keyed by id pairs — are); everything else in it must be
  a pure function of the pair.  With no repeats, a veto taken over a
  whole run before any of its pairs is decided sees exactly the state a
  per-pair veto would;
* pair streams must not charge per yielded run (all in-repo mechanisms
  front-load their cost; a stream that charged lazily would see those
  charges reordered relative to comparison charges).

A stop condition may read every :class:`ResolveStats` field but
``skipped`` and ``filtered``; the ones it reads are those at the start of
the piece its ``first_stop`` is asked about.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

from ..data.entity import Entity, pair_key, same_source
from ..mapreduce.clock import CostModel
from ..mapreduce.job import TaskContext
from ..similarity.batch import BatchMatcher

SortKey = Callable[[Entity], object]
ChargeFn = Callable[[float], float]
#: Charges a sequence of costs in order (``TaskContext.charge_each``);
#: returns the new local time.
ChargeEachFn = Callable[[Sequence[float]], float]
PairCallback = Callable[[Entity, Entity], None]
#: ``on_resolved(lefts, rights, decisions)``: a piece's compared pairs, as
#: positions into the block's members, and their verdicts.
ResolvedCallback = Callable[[Sequence[int], Sequence[int], Sequence[bool]], None]
#: A run: two equal-length position sequences into a block's members.
Run = Tuple[Sequence[int], Sequence[int]]
#: ``admit(lefts, rights)``: per position of the run, ``None`` to compare
#: the pair, else the :class:`ResolveStats` field (``"filtered"`` /
#: ``"pruned"`` / ``"skipped"``) the vetoed position is counted under.
Admit = Callable[[Sequence[int], Sequence[int]], List[Optional[str]]]

#: Pairs decided per batch-kernel call.  Large enough to amortize the
#: kernel's per-batch setup and let it dedup repeated value pairs, small
#: enough that stop-condition look-ahead stays cheap (a fired stop
#: discards at most one batch of pulled-but-undecided pairs, which cost no
#: virtual time).  Read at call time, so differential tests can
#: monkeypatch it.
BATCH_PAIRS = 64


@dataclass
class ResolveStats:
    """Mutable tally of one block resolution.

    Attributes:
        comparisons: resolve-function invocations actually performed.
        duplicates: pairs declared duplicates.
        distincts: pairs declared distinct.
        skipped: pairs ``admit`` vetoed as ``"skipped"`` (redundancy /
            already resolved in a child block).
        filtered: pairs ``admit`` vetoed as ``"filtered"`` (e.g.
            same-source pairs in clean-clean linkage) — not candidates at
            all, so they cost nothing and never touch the stop budget.
        pruned: pairs ``admit`` vetoed as ``"pruned"`` (meta-blocking).
            Pruned pairs cost nothing but *do* consume the distinct-pair
            budget (see :class:`DistinctBudget`), so a pruned run stops no
            later than its unpruned twin at every stream position — the
            structural guarantee behind "pruned output ⊆ unpruned output".
        exhausted: True when the pair stream ran dry (block fully resolved
            up to the mechanism's window), False when the stop condition
            fired first.
    """

    comparisons: int = 0
    duplicates: int = 0
    distincts: int = 0
    skipped: int = 0
    filtered: int = 0
    pruned: int = 0
    exhausted: bool = False


class StopCondition(Protocol):
    """Decides where a block stops.

    :func:`resolve_block` asks :meth:`first_stop` once per replayed piece:
    the position after which the block ends, if any.  The built-ins also
    keep ``should_stop(stats, was_duplicate)``, the per-position form of
    their rule (consulted after every comparison and every ``"pruned"``
    position, ``True`` ending the block); it is the reference the tests
    hold their ``first_stop`` to, and nothing in ``src/`` calls it.
    """

    def first_stop(self, stats: ResolveStats, outcomes: Sequence[bool]) -> Optional[int]:
        """Where the block stops within ``outcomes``.

        ``outcomes`` lists, in stream order, the positions that follow
        ``stats``: ``True`` for a duplicate, ``False`` for a distinct pair
        or a ``"pruned"`` position.  Returns the index of the outcome after
        which the block ends (``None`` when it goes on) and leaves the
        condition's own state as it stands after ``outcomes[:index + 1]``
        (all of them for ``None``).  ``stats`` itself is read, never
        written.
        """
        ...


class NeverStop:
    """Run the mechanism to stream exhaustion (Basic F / root blocks)."""

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        return False

    def first_stop(self, stats: ResolveStats, outcomes: Sequence[bool]) -> Optional[int]:
        return None


class DistinctBudget:
    """Terminate after ``threshold`` distinct pairs (paper Section III-A).

    This is the termination threshold ``Th(X^i_j)`` used for non-root
    blocks: the mechanism keeps going while it finds duplicates and stops
    once it has burned the distinct-pair budget.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.threshold = threshold

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        # Meta-blocking-pruned pairs consume budget as if they had been
        # compared and found distinct: at every stream position the pruned
        # run has burned at least as much budget as its unpruned twin, so
        # it stops no later — which is what makes the pruned run's output
        # a subset of the unpruned run's.  Plain runs have pruned == 0.
        return stats.distincts + stats.pruned >= self.threshold

    def first_stop(self, stats: ResolveStats, outcomes: Sequence[bool]) -> Optional[int]:
        # The budget left runs out at that many-th distinct or pruned
        # outcome; a spent budget stops at the first outcome of any kind.
        left = self.threshold - stats.distincts - stats.pruned
        if not outcomes or len(outcomes) - outcomes.count(True) < left:
            return None
        index = 0 if left <= 0 else -1
        for _ in range(left):
            index = outcomes.index(False, index + 1)
        return index


class Mechanism(ABC):
    """Base class for progressive mechanisms."""

    #: short identifier used in reports.
    name: str = "mechanism"

    @abstractmethod
    def pair_stream(
        self,
        entities: Sequence[Entity],
        window: int,
        sort_key: SortKey,
        charge: ChargeFn,
        cost_model: CostModel,
    ) -> Tuple[List[Entity], Iterator[Run]]:
        """Charge ``CostA``, then return the block's members in this
        mechanism's order and its runs over them in priority order.

        The runs may be produced lazily (a stop condition usually ends the
        block long before the last one), must not charge, and must never
        repeat an entity-id pair: :func:`resolve_block` vetoes a run
        before deciding any of its pairs, which is only safe because no
        later position can be the same pair.
        """

    @abstractmethod
    def additional_cost(self, n: int, window: int, cost_model: CostModel) -> float:
        """``CostA`` estimate for a block of size ``n`` (used by both the
        real charging and the cost model of Section IV-B)."""


def block_sort_key(entity: Entity, primary: str) -> Tuple[str, str]:
    """Sorting key for SN-style mechanisms: the blocking attribute first
    (the paper sorts each block on the attribute its blocking function is
    defined on), the remaining attributes as tie-break.

    The tie-break matters in blocks keyed on low-cardinality attributes
    (e.g. venue): thousands of entities share the identical primary value,
    and without a content tie-break duplicates would be scattered randomly
    across the tie region, far outside any realistic window.  The title
    (the most stable attribute in both datasets) leads the tie-break, then
    the remaining attributes in name order.
    """
    parts = []
    if primary != "title":
        parts.append(entity.get("title"))
    parts.extend([
        value
        for name, value in sorted(entity.attrs.items())
        if name != primary and name != "title"
    ])
    return entity.get(primary), "\x1f".join(parts)


def window_pairs_count(n: int, window: int) -> int:
    """Number of pairs at rank distance < ``window`` in a sorted list of n.

    ``sum_{d=1}^{min(w-1, n-1)} (n - d)`` — the work an SN-style mechanism
    performs when run to exhaustion.
    """
    if n < 2 or window < 2:
        return 0
    dmax = min(window - 1, n - 1)
    return dmax * n - dmax * (dmax + 1) // 2


def column_veto(
    members: Sequence[Entity],
    skip_columns: Sequence[Sequence[object]],
    *,
    cross_source_only: bool = False,
) -> Admit:
    """The veto Job 2, Basic and MR-SN start from.  Per position of a run:
    ``"filtered"`` when ``cross_source_only`` and both members share a
    ``source`` (linkage compares only across sources), else ``"skipped"``
    when a skip column holds one value at both member positions (another
    block is responsible), else ``None``."""
    member = members.__getitem__

    def admit(lefts: Sequence[int], rights: Sequence[int]) -> List[Optional[str]]:
        skip = [False] * len(lefts)
        for column in skip_columns:
            skip = [s or column[a] == column[b] for s, a, b in zip(skip, lefts, rights)]
        if not cross_source_only:
            return ["skipped" if s else None for s in skip]
        return [
            "filtered" if same else "skipped" if s else None
            for s, same in zip(skip, map(same_source, map(member, lefts), map(member, rights)))
        ]

    return admit


def duplicate_reporter(context: TaskContext, group: str) -> PairCallback:
    """The ``on_duplicate`` of a reducer that flushes its pairs as it finds
    them (Job 2, Basic, the delta job): count the pair as ``group``'s
    ``duplicates``, record its ``"duplicate"`` event at the task's clock
    and write it to the task's output."""

    def on_duplicate(e1: Entity, e2: Entity) -> None:
        context.counters.increment(group, "duplicates")
        pair = pair_key(e1.id, e2.id)
        context.record_event("duplicate", pair)
        context.write(pair)

    return on_duplicate


def resolve_block(
    members: Sequence[Entity],
    runs: Iterable[Run],
    matcher: BatchMatcher,
    cost_model: CostModel,
    charge_compare: ChargeEachFn,
    on_duplicate: PairCallback,
    *,
    admit: Optional[Admit] = None,
    stop: Optional[StopCondition] = None,
    on_resolved: Optional[ResolvedCallback] = None,
    pair_range: Optional[Tuple[int, int]] = None,
) -> ResolveStats:
    """Resolve one block's runs: veto a run at a time, decide in batches,
    replay a decided piece at a time, in stream order.

    The replay of a piece asks ``stop.first_stop`` once, charges the
    piece's comparison costs through ``charge_compare`` one stretch per
    call (a stretch ends at a duplicate or at the stop), calls
    ``on_duplicate`` only for duplicates, right after the charge of their
    stretch, and ``on_resolved`` once.  Every clock reading, stop point
    and count equals that of the per-pair loop (see the module
    docstring).

    Args:
        members: the block's members; runs index into this sequence.
        runs: the block's pairs in priority order, as runs — a mechanism's
            ``pair_stream(...)`` runs (which charged its own ``CostA``) or
            any other iterable of ``(lefts, rights)`` position sequences
            that never repeats an id pair.
        matcher: the bounded kernel of the resolve/match function.
        cost_model: unit costs.
        charge_compare: task-clock charging callback taking a sequence
            of per-pair comparison costs to charge in order — callers pass
            ``TaskContext.charge_each``, whose clock times the duplicate
            events and closes the α-flush files.
        on_duplicate: called for every pair declared duplicate, once the
            clock has been charged up to and including that pair.
        admit: optional veto over a run, ``admit(lefts, rights)``: one
            verdict per position — ``None`` sends the pair to the matcher,
            otherwise the :class:`ResolveStats` field to bump,
            ``"filtered"``, ``"pruned"`` or ``"skipped"``.  A vetoed pair
            costs nothing; ``"pruned"`` pairs *do* consume the
            :class:`DistinctBudget` (checked in stream order), so pruning
            can only make a block stop earlier.  It is consulted on a run
            before any of the run's pairs is decided: apart from state
            keyed by the entity-id pair and written by ``on_resolved`` /
            ``on_duplicate``, it must be a pure function of the pair.
        stop: stop condition (default: run to exhaustion).
        on_resolved: optional observer of the *performed* comparisons,
            called once per replayed piece as ``on_resolved(lefts, rights,
            decisions)``: the piece's compared pairs as member positions,
            in stream order, with their verdicts (used to track per-tree
            resolved pairs so parents skip work done in children).
        pair_range: optional ``(start, stop)`` half-open slice of the
            stream's positions, counted across runs — only pairs at those
            positions are considered (load-balancing shards of root
            blocks).  Positions outside the range are free: no veto,
            no charge, no stats.

    Returns:
        the final :class:`ResolveStats` of the stream.
    """
    stats = ResolveStats()
    first, last = (0, None) if pair_range is None else pair_range
    if first < 0 or (last is not None and last < first):
        raise ValueError(f"invalid pair_range {pair_range!r}")
    width = BATCH_PAIRS
    rows = matcher.rows(members)
    compare = cost_model.compare
    # The open batch: the compared pairs, and the run pieces holding them
    # — ``(verdicts, lo, hi)`` per piece, ``verdicts`` None when every
    # position of the piece is compared — in stream order.
    lefts_b: List[int] = []
    rights_b: List[int] = []
    pieces: List[Tuple[Optional[List[Optional[str]]], int, int]] = []

    def replay(
        start: int, end: int, decisions: List[bool], costs: List[float], dups: List[int]
    ) -> None:
        """Replay compared pairs ``start..end-1`` of the batch: each
        stretch up to and including a duplicate charged in one call, then
        the duplicate reported; the counts; one ``on_resolved``."""
        low = bisect_left(dups, start)
        high = bisect_left(dups, end, low)
        stretch = start
        for k in dups[low:high]:
            charge_compare(costs[stretch:k + 1])
            on_duplicate(members[lefts_b[k]], members[rights_b[k]])
            stretch = k + 1
        if stretch < end:
            charge_compare(costs[stretch:end])
        stats.comparisons += end - start
        stats.duplicates += high - low
        stats.distincts += end - start - (high - low)
        if on_resolved is not None and start < end:
            on_resolved(lefts_b[start:end], rights_b[start:end], decisions[start:end])

    def flush() -> bool:
        """Decide and replay the open batch; True when the stop fired."""
        costs = [compare * f for f in matcher.cost_factors(rows, lefts_b, rights_b)]
        decisions = matcher.decisions(rows, lefts_b, rights_b)
        dups = list(compress(range(len(decisions)), decisions))
        done = 0
        for verdicts, lo, hi in pieces:
            if verdicts is None:
                end = done + hi - lo
                fired = None if stop is None else stop.first_stop(stats, decisions[done:end])
                replay(done, end if fired is None else done + fired + 1, decisions, costs, dups)
                done = end
            else:
                # Compared pairs and pruned positions are the outcomes a
                # stop reads; skips and filters only count, up to the stop.
                piece = verdicts[lo:hi]
                compared = [k for k, v in enumerate(piece) if v is None]
                end = done + len(compared)
                if "pruned" in piece:
                    events = [k for k, v in enumerate(piece) if v is None or v == "pruned"]
                    verdict_of = iter(decisions[done:end])
                    outcomes = [piece[k] is None and next(verdict_of) for k in events]
                else:
                    events, outcomes = compared, decisions[done:end]
                fired = None if stop is None else stop.first_stop(stats, outcomes)
                if fired is not None:
                    piece = piece[:events[fired] + 1]
                replay(done, done + bisect_right(compared, len(piece) - 1), decisions, costs, dups)
                stats.skipped += piece.count("skipped")
                stats.filtered += piece.count("filtered")
                stats.pruned += piece.count("pruned")
                done = end
            if fired is not None:
                break
        lefts_b.clear()
        rights_b.clear()
        pieces.clear()
        return fired is not None

    position = 0
    for lefts, rights in runs:
        start = position
        size = len(lefts)
        position += size
        if position <= first:
            continue
        if last is not None and start >= last:
            break
        if start < first or (last is not None and position > last):
            lo = max(first - start, 0)
            hi = size if last is None else min(size, last - start)
            lefts, rights, size = lefts[lo:hi], rights[lo:hi], hi - lo
        verdicts = admit(lefts, rights) if admit is not None else None
        if verdicts is not None and not any(verdicts):
            verdicts = None
        kept = None if verdicts is None else [k for k, v in enumerate(verdicts) if v is None]
        lo = taken = 0
        # Cut the run into pieces at every BATCH_PAIRS-th compared pair.
        while lo < size:
            room = width - len(lefts_b)
            if kept is None:
                hi = min(size, lo + room)
                lefts_b.extend(lefts[lo:hi])
                rights_b.extend(rights[lo:hi])
            else:
                chosen = kept[taken:taken + room]
                taken += len(chosen)
                hi = chosen[-1] + 1 if len(chosen) == room else size
                lefts_b.extend([lefts[k] for k in chosen])
                rights_b.extend([rights[k] for k in chosen])
            pieces.append((verdicts, lo, hi))
            lo = hi
            if len(lefts_b) >= width and flush():
                return stats
    if pieces and flush():
        return stats
    stats.exhausted = True
    return stats


__all__ = [
    "Mechanism",
    "ResolveStats",
    "StopCondition",
    "NeverStop",
    "ChargeEachFn",
    "ResolvedCallback",
    "DistinctBudget",
    "resolve_block",
    "duplicate_reporter",
    "column_veto",
    "window_pairs_count",
    "SortKey",
    "Run",
    "Admit",
    "BATCH_PAIRS",
]
