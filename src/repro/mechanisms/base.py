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
kernel call, then *replays* in stream order what can move the clock or the
stop: per compared pair the charge, the counts, the callbacks and the stop
condition, and per ``"pruned"`` position the budget it burns.
``"skipped"`` and ``"filtered"`` positions touch nothing but their
tallies, so they are counted a piece of a run at a time (and only up to
the position a stop fired at).  Decisions, charges and stop points are
bit-identical to a per-pair loop over the definition ``matcher.is_match``
(the ``scalar_resolve_block`` oracle under ``tests/``) at any width; only
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
``skipped`` and ``filtered``, which are settled at batch ends and stops.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.clock import CostModel
from ..similarity.batch import BatchMatcher

SortKey = Callable[[Entity], object]
ChargeFn = Callable[[float], float]
PairCallback = Callable[[Entity, Entity], None]
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
    """Consulted after every comparison and every ``"pruned"`` position;
    ``True`` terminates the block.  ``stats.skipped`` and
    ``stats.filtered`` may lag behind the position consulted about."""

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        """Decide termination given the running stats of this block."""
        ...


class NeverStop:
    """Run the mechanism to stream exhaustion (Basic F / root blocks)."""

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        return False


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


def shared_values(
    columns: Sequence[Sequence[object]], lefts: Sequence[int], rights: Sequence[int]
) -> List[bool]:
    """Per position of a run: whether some column holds the same value at
    both of its member positions — the shape of every in-repo veto."""
    shared = [False] * len(lefts)
    for column in columns:
        shared = [s or column[a] == column[b] for s, a, b in zip(shared, lefts, rights)]
    return shared


def resolve_block(
    members: Sequence[Entity],
    runs: Iterable[Run],
    matcher: BatchMatcher,
    cost_model: CostModel,
    charge_compare: ChargeFn,
    on_duplicate: PairCallback,
    *,
    admit: Optional[Admit] = None,
    stop: Optional[StopCondition] = None,
    on_resolved: Optional[Callable[[Entity, Entity, bool], None]] = None,
    pair_range: Optional[Tuple[int, int]] = None,
) -> ResolveStats:
    """Resolve one block's runs: veto a run at a time, decide in batches,
    replay in stream order.

    Args:
        members: the block's members; runs index into this sequence.
        runs: the block's pairs in priority order, as runs — a mechanism's
            ``pair_stream(...)`` runs (which charged its own ``CostA``) or
            any other iterable of ``(lefts, rights)`` position sequences
            that never repeats an id pair.
        matcher: the bounded kernel of the resolve/match function.
        cost_model: unit costs.
        charge_compare: task-clock charging callback for the per-pair
            comparison charges (callers tag it ``"compare"`` for
            cost-model calibration).
        on_duplicate: called for every pair declared duplicate.
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
        on_resolved: optional observer called for every *performed*
            comparison with the verdict (used to track per-tree resolved
            pairs so parents skip work done in children).
        pair_range: optional ``(start, stop)`` half-open slice of the
            stream's positions, counted across runs — only pairs at those
            positions are considered (load-balancing shards of oversized
            root blocks).  Positions outside the range are free: no veto,
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

    def replay(start: int, end: int, decisions: List[bool], factors: List[float]) -> int:
        """Replay compared pairs ``start..end-1`` of the batch; the index
        the stop fired at, else ``end``."""
        index = start
        for i, j, is_dup, factor in zip(
            lefts_b[start:end], rights_b[start:end],
            decisions[start:end], factors[start:end],
        ):
            e1 = members[i]
            e2 = members[j]
            charge_compare(compare * factor)
            stats.comparisons += 1
            if is_dup:
                stats.duplicates += 1
                on_duplicate(e1, e2)
            else:
                stats.distincts += 1
            if on_resolved is not None:
                on_resolved(e1, e2, is_dup)
            if stop is not None and stop.should_stop(stats, is_dup):
                return index
            index += 1
        return end

    def settle(
        piece: List[Optional[str]], done: int, decisions: List[bool], factors: List[float]
    ) -> Tuple[bool, int]:
        """Replay one vetted piece from compared pair ``done`` on:
        ``(stopped, next compared pair)``.  Compared pairs and pruned
        positions go in stream order; skips and filters are tallied up to
        where the replay got."""
        cuts = [k for k, v in enumerate(piece) if v == "pruned"] if "pruned" in piece else []
        cuts.append(len(piece))
        start = 0
        for cut in cuts:
            segment = piece[start:cut]
            end = done + segment.count(None)
            fired = replay(done, end, decisions, factors)
            if fired < end:
                # Only the vetoes before the pair the stop fired at count.
                segment = segment[: [k for k, v in enumerate(segment) if v is None][fired - done]]
            stats.skipped += segment.count("skipped")
            stats.filtered += segment.count("filtered")
            if fired < end:
                return True, end
            done = end
            if cut == len(piece):
                break
            # A pruned position burns the budget where it stands.
            stats.pruned += 1
            if stop is not None and stop.should_stop(stats, False):
                return True, done
            start = cut + 1
        return False, done

    def flush() -> bool:
        """Decide and replay the open batch; True when the stop fired."""
        factors = matcher.cost_factors(rows, lefts_b, rights_b)
        decisions = matcher.decisions(rows, lefts_b, rights_b)
        done = 0
        stopped = False
        for verdicts, lo, hi in pieces:
            if verdicts is None:
                end = done + hi - lo
                stopped = replay(done, end, decisions, factors) < end
                done = end
            else:
                stopped, done = settle(verdicts[lo:hi], done, decisions, factors)
            if stopped:
                break
        lefts_b.clear()
        rights_b.clear()
        pieces.clear()
        return stopped

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
    "DistinctBudget",
    "resolve_block",
    "shared_values",
    "window_pairs_count",
    "SortKey",
    "Run",
    "Admit",
    "BATCH_PAIRS",
]
