"""Batched similarity kernels: decide many pairs per Python call.

:class:`~repro.similarity.matchers.WeightedMatcher` decides one pair per
call, and every call pays the same fixed tolls — attribute lookups and
truncation slices (``AttributeRule.values``), method dispatch through
``is_match -> _bounded_match -> rule.similarity -> _memo_compare``, and
tuple keys into the process-wide memo.  Block resolution asks the same
question for *hundreds* of pairs over the *same few dozen* entities (an
SN window of width ``w`` visits each entity in up to ``2(w-1)`` pairs), so
almost all of that per-call work is redundant.

:class:`BatchMatcher` amortizes it:

* **per-entity value tables** — each entity's (truncated) attribute values
  and their lengths are computed once per entity and reused by every pair
  that touches it;
* **rule-major evaluation** — the outer loop runs over rules (in the same
  cheapest-first order the scalar path uses), the inner loop over the pairs
  still alive, with the rule's weight/comparator hoisted into locals;
* **batched short-circuits** — the scalar path's upper-bound cutoff and the
  threshold-propagating edit-distance floor run per pair inside the batch,
  so a dead pair drops out of every later (more expensive) rule.

Decisions are **bit-identical** to the scalar matcher: the same float
expressions accumulate in the same order with the same ``1e-9`` / ``1e-7``
guard margins (floors are computed by :meth:`WeightedMatcher._rule_floor`
itself), the final weighted sum is re-accumulated in original rule order,
and edit kernels are reached through the same memo functions.  The property
suite in ``tests/test_batch_kernels.py`` pins the equivalence on random
matchers, and the differential harness pins it end-to-end.

What batching may legitimately change: wall-clock time and the memo
hit/miss counters (a batch deduplicates identical value pairs before
consulting the memo), both of which live outside virtual time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..data.entity import Entity
from .matchers import (
    MIN_COST_FACTOR,
    REFERENCE_LENGTH,
    AttributeRule,
    WeightedMatcher,
    _BELOW_FLOOR,
    _memo_compare,
    _memo_edit_at_least,
)

#: Comparators whose cost the scalar cost model treats as negligible
#: (mirrors the tuple in ``WeightedMatcher.comparison_cost_factor``).
_CHEAP_COMPARATORS = ("exact", "token_jaccard", "qgram")

_STATS = {"batches": 0, "pairs": 0}


def batch_kernel_counters() -> Dict[str, int]:
    """Process-wide batch-kernel invocation counters (wall-clock facts)."""
    return dict(_STATS)


def reset_batch_kernel_counters() -> None:
    for name in _STATS:
        _STATS[name] = 0


PairSeq = Sequence[Tuple[Entity, Entity]]


class BatchMatcher:
    """Batched, bit-identical evaluation of one matcher over many pairs.

    Build one per block (or longer — the per-entity tables are keyed by
    entity id, so reuse across batches of the same dataset is safe) and
    call :meth:`decisions` / :meth:`cost_factors` with lists of pairs.

    Args:
        matcher: the scalar matcher whose decisions are reproduced.
    """

    def __init__(self, matcher: WeightedMatcher) -> None:
        self.matcher = matcher
        rules = matcher.rules
        self._rules: List[AttributeRule] = rules
        self._eval_order = matcher._eval_order
        self._threshold = matcher.threshold
        self._total_weight = matcher._total_weight
        #: ``threshold - 1e-9`` exactly as the scalar cutoff computes it.
        self._cutoff = matcher.threshold - 1e-9
        self._quad_indices = tuple(
            i for i, rule in enumerate(rules)
            if rule.comparator not in _CHEAP_COMPARATORS
        )
        self._cost_denominator = len(self._quad_indices) * REFERENCE_LENGTH
        #: entity id -> (values, lengths), one row each.
        self._rows: Dict[int, Tuple[tuple, tuple]] = {}

    # -- per-entity tables ---------------------------------------------

    def _row(self, entity: Entity) -> Tuple[tuple, tuple]:
        row = self._rows.get(entity.id)
        if row is None:
            values = []
            for rule in self._rules:
                value = entity.get(rule.attribute)
                if rule.max_chars is not None:
                    value = value[: rule.max_chars]
                values.append(value)
            row = (tuple(values), tuple([len(v) for v in values]))
            self._rows[entity.id] = row
        return row

    def _row_columns(self, pairs: PairSeq):
        """Left/right row lists for a batch, hitting the cache inline.

        The dict probe runs in the comprehension (no ``_row`` frame) for
        entities already tabled — in sorted blocks that is nearly all of
        them after the first batch.
        """
        rows = self._rows
        rows1 = [rows.get(e1.id) or self._row(e1) for e1, _ in pairs]
        rows2 = [rows.get(e2.id) or self._row(e2) for _, e2 in pairs]
        return rows1, rows2

    # -- decisions ------------------------------------------------------

    def decisions(self, pairs: PairSeq) -> List[bool]:
        """``[matcher.is_match(e1, e2) for e1, e2 in pairs]``, batched."""
        if not pairs:
            return []
        _STATS["batches"] += 1
        _STATS["pairs"] += len(pairs)
        if self.matcher._cache is not None:
            return self._cached_decisions(pairs)
        return self._bounded_decisions(pairs)

    def _bounded_decisions(self, pairs: PairSeq) -> List[bool]:
        """Mirror of ``WeightedMatcher._bounded_match`` over a batch.

        Rule-major: for each rule in cheapest-first order, evaluate every
        pair still alive, updating the per-pair running bound exactly as
        the scalar loop does.  A pair leaves ``alive`` the moment any
        scalar early-return would have fired for it.
        """
        n = len(pairs)
        rules = self._rules
        num_rules = len(rules)
        matcher = self.matcher
        cutoff = self._cutoff
        rows1, rows2 = self._row_columns(pairs)

        sims: List[List[Optional[float]]] = [[None] * num_rules for _ in range(n)]
        totals = [0.0] * n
        weights = [0.0] * n
        remainings = [self._total_weight] * n
        alive = list(range(n))
        for index in self._eval_order:
            if not alive:
                break
            rule = rules[index]
            weight = rule.weight
            comparator = rule.comparator
            is_edit = comparator == "edit"
            is_exact = comparator == "exact"
            # Within one rule, identical value pairs recur constantly in
            # sorted blocks; resolve them once per batch instead of once
            # per pair (same value either way — only memo traffic differs).
            # Floors dedup too: every pair still alive at this rule has
            # accumulated over the same earlier rules, so the floor is a
            # pure function of the (few distinct) running totals.
            local: Dict[tuple, float] = {}
            floors: Dict[Tuple[float, float], float] = {}
            next_alive = []
            for p in alive:
                v1 = rows1[p][0][index]
                v2 = rows2[p][0][index]
                remaining_after = remainings[p] - weight
                if not v1 and not v2:
                    sim: Optional[float] = None
                elif not v1 or not v2:
                    sim = 0.0
                elif is_exact:
                    sim = 1.0 if v1 == v2 else 0.0
                elif is_edit:
                    fkey = (totals[p], weights[p])
                    floor = floors.get(fkey)
                    if floor is None:
                        floor = matcher._rule_floor(
                            weight, totals[p], weights[p], remaining_after
                        )
                        floors[fkey] = floor
                    if floor > 1.0:
                        continue  # scalar: return False
                    if floor > 0.0:
                        ekey = (v1, v2, floor)
                        sim = local.get(ekey)
                        if sim is None:
                            sim = _memo_edit_at_least(v1, v2, floor)
                            local[ekey] = sim
                        if sim == _BELOW_FLOOR:
                            continue  # scalar: return False
                    else:
                        sim = local.get((v1, v2))
                        if sim is None:
                            sim = _memo_compare("edit", v1, v2)
                            local[(v1, v2)] = sim
                else:
                    sim = local.get((v1, v2))
                    if sim is None:
                        sim = _memo_compare(comparator, v1, v2)
                        local[(v1, v2)] = sim
                sims[p][index] = sim
                remainings[p] = remaining_after
                if sim is not None:
                    totals[p] += weight * sim
                    weights[p] += weight
                bound_weight = weights[p] + remaining_after
                if bound_weight == 0.0:
                    continue  # scalar: return False (all rules missing)
                if (
                    remaining_after > 0.0
                    and (totals[p] + remaining_after) / bound_weight < cutoff
                ):
                    continue  # scalar: return False (upper bound too low)
                next_alive.append(p)
            alive = next_alive

        out = [False] * n
        threshold = self._threshold
        for p in alive:
            if weights[p] == 0.0:
                continue
            # Re-accumulate in original rule order, like the scalar path.
            exact_total = 0.0
            exact_weight = 0.0
            pair_sims = sims[p]
            for rule, sim in zip(rules, pair_sims):
                if sim is None:
                    continue
                exact_total += rule.weight * sim
                exact_weight += rule.weight
            out[p] = exact_total / exact_weight >= threshold
        return out

    def _cached_decisions(self, pairs: PairSeq) -> List[bool]:
        """The pair-cached matcher path: full similarity, cached by id pair."""
        cache = self.matcher._cache
        threshold = self._threshold
        out = [False] * len(pairs)
        misses: List[Tuple[int, Tuple[int, int]]] = []
        for i, (e1, e2) in enumerate(pairs):
            key = (e1.id, e2.id) if e1.id < e2.id else (e2.id, e1.id)
            hit = cache.get(key)
            if hit is not None:
                out[i] = hit >= threshold
            else:
                misses.append((i, key))
        if misses:
            values = self.similarities([pairs[i] for i, _ in misses])
            for (i, key), value in zip(misses, values):
                cache[key] = value
                out[i] = value >= threshold
        return out

    # -- similarities / cost factors -------------------------------------

    def similarities(self, pairs: PairSeq) -> List[float]:
        """``[matcher._similarity(e1, e2) for e1, e2 in pairs]``, batched.

        Rule-major but accumulated per pair in original rule order, so the
        weighted sums are the identical float sequences.
        """
        if not pairs:
            return []
        n = len(pairs)
        rows1, rows2 = self._row_columns(pairs)
        totals = [0.0] * n
        weights = [0.0] * n
        for index, rule in enumerate(self._rules):
            weight = rule.weight
            comparator = rule.comparator
            is_exact = comparator == "exact"
            local: Dict[Tuple[str, str], float] = {}
            for p in range(n):
                v1 = rows1[p][0][index]
                v2 = rows2[p][0][index]
                if not v1 and not v2:
                    continue
                elif not v1 or not v2:
                    sim = 0.0
                elif is_exact:
                    sim = 1.0 if v1 == v2 else 0.0
                else:
                    sim = local.get((v1, v2))
                    if sim is None:
                        sim = _memo_compare(comparator, v1, v2)
                        local[(v1, v2)] = sim
                totals[p] += weight * sim
                weights[p] += weight
        return [
            0.0 if weights[p] == 0.0 else totals[p] / weights[p] for p in range(n)
        ]

    def cost_factors(self, pairs: PairSeq) -> List[float]:
        """``[matcher.comparison_cost_factor(e1, e2) ...]``, batched.

        Same float sequence as the scalar loop: per quadratic rule in
        original order, ``(len(v1) + len(v2)) / 2.0`` summed, divided by
        ``quadratic_rules * REFERENCE_LENGTH`` and clamped.
        """
        quad = self._quad_indices
        if not quad:
            return [MIN_COST_FACTOR] * len(pairs)
        denominator = self._cost_denominator
        rows = self._rows
        out = []
        for e1, e2 in pairs:
            lens1 = (rows.get(e1.id) or self._row(e1))[1]
            lens2 = (rows.get(e2.id) or self._row(e2))[1]
            chars = 0.0
            for index in quad:
                chars += (lens1[index] + lens2[index]) / 2.0
            factor = chars / denominator
            out.append(factor if factor > MIN_COST_FACTOR else MIN_COST_FACTOR)
        return out


# ---------------------------------------------------------------------------
# Functional wrappers
# ---------------------------------------------------------------------------


def batch_similarity(rules: Sequence[AttributeRule], pairs: PairSeq) -> List[float]:
    """Weighted similarities of ``pairs`` under ``rules``, batched.

    Equivalent to ``[WeightedMatcher(rules, t).similarity(e1, e2) ...]``
    for any threshold ``t`` (the threshold never enters the similarity).
    """
    matcher = WeightedMatcher(rules, threshold=1.0)
    return BatchMatcher(matcher).similarities(pairs)


def batch_is_match(matcher: WeightedMatcher, pairs: PairSeq) -> List[bool]:
    """``[matcher.is_match(e1, e2) for e1, e2 in pairs]``, batched."""
    return BatchMatcher(matcher).decisions(pairs)


def batch_cost_factors(
    matcher: WeightedMatcher, pairs: PairSeq
) -> List[float]:
    """``[matcher.comparison_cost_factor(e1, e2) ...]``, batched."""
    return BatchMatcher(matcher).cost_factors(pairs)


__all__ = [
    "BatchMatcher",
    "batch_similarity",
    "batch_is_match",
    "batch_cost_factors",
    "batch_kernel_counters",
    "reset_batch_kernel_counters",
]
