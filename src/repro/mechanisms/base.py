"""Progressive mechanism interface and the block-resolution driver.

A *progressive mechanism M* (paper Section II-B) is any ER algorithm —
possibly combined with a hint — that can be applied on a block to identify
its duplicate pairs as quickly as possible.  Here a mechanism contributes
two things:

* a **pair stream**: candidate entity pairs of one block in priority order
  (most-likely-duplicate first), and
* an **additional cost** ``CostA`` (hint generation, sorting, reading) that
  it charges before the first comparison.

:func:`resolve_block` is the one resolution loop in the package — Job 2's
reducer, the Basic and MR-SN baselines and the incremental service's delta
reducer all call it.  Like the paper's mechanism (Section III-B, Figure 7) it takes a
**pair stream** in priority order, one **admission predicate** (the
``SHOULD-RESOLVE`` veto and every other reason not to compare a pair,
folded into a single ``admit`` callable by the caller) and a pluggable
**stop condition** consulted after every comparison.

The loop decides pairs in **batches** through
:class:`~repro.similarity.batch.BatchMatcher`: it collects up to
:data:`BATCH_PAIRS` admitted pairs from the stream, decides them in one
kernel call, then *replays* the outcomes in stream order — charging,
counting, invoking callbacks and consulting the stop condition per pair.
Decisions, charges and stop points are bit-identical to a per-pair loop
over the definition ``matcher.is_match`` (the ``scalar_resolve_block``
oracle under ``tests/``) at any width; only wall-clock time changes.  Look-ahead into
the stream is free in virtual time because every mechanism charges its
``CostA`` once up front and never per pair.  Two contracts make the replay
safe:

* ``admit`` may read state that ``on_resolved`` / ``on_duplicate`` write
  only if that state is keyed by the entity-id *pair* (the in-repo vetoes —
  redundancy sets keyed by id pairs — are); everything else in it must be
  a pure function of the pair.  The loop flushes the pending batch before
  consulting ``admit`` on a pair whose id pair already occurred in it, so
  a veto consulted at collection time can never miss state an earlier
  occurrence of the *same pair* would have written.
* pair streams must not charge per yielded pair (all in-repo mechanisms
  front-load their cost; a stream that charged lazily would see those
  charges reordered relative to comparison charges).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.clock import CostModel
from ..similarity.batch import BatchMatcher
from ..similarity.matchers import WeightedMatcher

SortKey = Callable[[Entity], object]
ChargeFn = Callable[[float], float]
PairCallback = Callable[[Entity, Entity], None]
#: ``admit(e1, e2)``: ``None`` to compare the pair, else the
#: :class:`ResolveStats` field (``"filtered"`` / ``"pruned"`` /
#: ``"skipped"``) the vetoed position is counted under.
Admit = Callable[[Entity, Entity], Optional[str]]

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
    """Consulted after every comparison; ``True`` terminates the block."""

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
    ) -> Iterator[Tuple[Entity, Entity]]:
        """Yield candidate pairs in priority order, charging ``CostA`` first."""

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
    parts.extend(
        value
        for name, value in sorted(entity.attrs.items())
        if name != primary and name != "title"
    )
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


def resolve_block(
    pairs: Iterable[Tuple[Entity, Entity]],
    matcher: WeightedMatcher,
    cost_model: CostModel,
    charge_compare: ChargeFn,
    on_duplicate: PairCallback,
    *,
    admit: Optional[Admit] = None,
    stop: Optional[StopCondition] = None,
    on_resolved: Optional[Callable[[Entity, Entity, bool], None]] = None,
    pair_range: Optional[Tuple[int, int]] = None,
) -> ResolveStats:
    """Resolve one pair stream: collect, decide in batches, replay in order.

    Args:
        pairs: candidate pairs in priority order — a mechanism's
            ``pair_stream(...)`` (which charges its own ``CostA``) or any
            other iterable of entity pairs.
        matcher: the resolve/match function.
        cost_model: unit costs.
        charge_compare: task-clock charging callback for the per-pair
            comparison charges (callers tag it ``"compare"`` for
            cost-model calibration).
        on_duplicate: called for every pair declared duplicate.
        admit: optional admission predicate ``admit(e1, e2)``: ``None``
            sends the pair to the matcher; otherwise the name of the
            :class:`ResolveStats` field to bump — ``"filtered"``,
            ``"pruned"`` or ``"skipped"``.  A vetoed pair costs nothing;
            ``"pruned"`` pairs *do* consume the :class:`DistinctBudget`
            (checked in stream order), so pruning can only make a block
            stop earlier.  Apart from state keyed by the entity-id pair
            and written by ``on_resolved`` / ``on_duplicate``, it must be
            a pure function of the pair.
        stop: stop condition (default: run to exhaustion).
        on_resolved: optional observer called for every *performed*
            comparison with the verdict (used to track per-tree resolved
            pairs so parents skip work done in children).
        pair_range: optional ``(start, stop)`` half-open slice of the raw
            pair-stream positions — only pairs at those positions are
            considered (load-balancing shards of oversized root blocks).
            Positions outside the range are free: no veto, no charge, no
            stats.

    Returns:
        the final :class:`ResolveStats` of the stream.
    """
    stats = ResolveStats()
    condition = stop if stop is not None else NeverStop()
    first, last = (0, None) if pair_range is None else pair_range
    if first < 0 or (last is not None and last < first):
        raise ValueError(f"invalid pair_range {pair_range!r}")
    width = BATCH_PAIRS
    batcher = BatchMatcher(matcher)
    # Pending entries in stream order: a pair to decide, or the verdict
    # ("skipped" / "filtered" / "pruned") of a vetoed position, replayed so
    # stats — and budget consumption by pruned pairs — interleave in
    # stream order.
    pending: List[object] = []
    to_decide: List[Tuple[Entity, Entity]] = []
    batch_idents = set()

    def _flush() -> bool:
        """Decide and replay the pending batch; True when stop fired."""
        if not pending:
            return False
        factors = batcher.cost_factors(to_decide)
        decisions = batcher.decisions(to_decide)
        index = 0
        stopped = False
        for entry in pending:
            if isinstance(entry, str):
                setattr(stats, entry, getattr(stats, entry) + 1)
                if entry == "pruned" and condition.should_stop(stats, False):
                    stopped = True
                    break
                continue
            e1, e2 = entry
            charge_compare(cost_model.compare * factors[index])
            is_dup = decisions[index]
            index += 1
            stats.comparisons += 1
            if is_dup:
                stats.duplicates += 1
                on_duplicate(e1, e2)
            else:
                stats.distincts += 1
            if on_resolved is not None:
                on_resolved(e1, e2, is_dup)
            if condition.should_stop(stats, is_dup):
                stopped = True
                break
        pending.clear()
        to_decide.clear()
        batch_idents.clear()
        return stopped

    position = -1
    for e1, e2 in pairs:
        position += 1
        if position < first:
            continue
        if last is not None and position >= last:
            break
        ident = (e1.id, e2.id) if e1.id <= e2.id else (e2.id, e1.id)
        if ident in batch_idents:
            # The same pair again before the first occurrence was decided:
            # flush so ``admit`` sees that decision's state updates.
            if _flush():
                return stats
        verdict = admit(e1, e2) if admit is not None else None
        if verdict is not None:
            pending.append(verdict)
            continue
        pending.append((e1, e2))
        to_decide.append((e1, e2))
        batch_idents.add(ident)
        if len(to_decide) >= width:
            if _flush():
                return stats
    if _flush():
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
    "window_pairs_count",
    "SortKey",
    "BATCH_PAIRS",
]
