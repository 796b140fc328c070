"""The bounded match kernel: decide many pairs per Python call.

:meth:`WeightedMatcher.is_match` is the definition — the full weighted sum
against the threshold, one pair per call.  Block resolution asks that
question for *hundreds* of pairs over the *same few dozen* entities (an SN
window of width ``w`` visits each entity in up to ``2(w-1)`` pairs), most
of them nowhere near the threshold, so the definition pays for attribute
lookups, truncation slices, memo keys and quadratic edit distances that
cannot change the answer.  :class:`BatchMatcher` is the one place in
``src/`` that knows how to skip them:

* **per-entity value tables** — each entity's (truncated) attribute values
  and their lengths are computed once per entity and reused by every pair
  that touches it;
* **cheapest comparator first** — rules are evaluated in
  :data:`_COMPARATOR_RANK` order, rule-major (outer loop over rules, inner
  loop over the pairs still alive), so a pair can be ruled out before it
  pays for a quadratic edit distance on a long attribute;
* **upper-bound cutoff** — after each rule every unevaluated rule is
  assumed to score a perfect 1.0; if even that cannot reach the threshold
  the pair is dead and leaves every later rule;
* **threshold propagation** — for edit rules :func:`_rule_floor` turns the
  same bound into the minimum similarity the rule must reach, and the edit
  kernel is called with the matching distance bound so it stops its column
  loop the moment the pair is dead.

Decisions are **bit-identical** to the definition.  The short-circuits only
ever *reject*, and only pairs whose exact sum is below the threshold: the
running bound is accumulated in evaluation order, not rule order, so the
cutoff compares against ``threshold - 1e-9`` (float reordering noise must
not cut a pair the exact sum would accept), and the floor derived from it
gives up a further ``1e-7`` for the noise of its own arithmetic.  A pair
that survives every rule is decided by the weighted sum re-accumulated in
*original* rule order — the float sequence ``WeightedMatcher.similarity``
evaluates.  ``tests/test_batch_kernels.py`` holds the kernel to the
definition on random matchers, thresholds at the boundary included.

What the kernel may legitimately change: wall-clock time and the memo
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

#: Comparators whose cost the cost model treats as negligible
#: (mirrors the tuple in ``WeightedMatcher.comparison_cost_factor``).
_CHEAP_COMPARATORS = ("exact", "token_jaccard", "qgram")

#: Relative wall-clock cost rank per comparator: rules are evaluated
#: cheapest first so the short-circuits fire before the expensive ones run.
_COMPARATOR_RANK = {
    "exact": 0,
    "token_jaccard": 1,
    "qgram": 1,
    "jaro_winkler": 2,
    "edit": 3,  # quadratic in string length
}

_STATS = {"batches": 0, "pairs": 0}


def batch_kernel_counters() -> Dict[str, int]:
    """Process-wide batch-kernel invocation counters (wall-clock facts)."""
    return dict(_STATS)


def reset_batch_kernel_counters() -> None:
    for name in _STATS:
        _STATS[name] = 0


PairSeq = Sequence[Tuple[Entity, Entity]]


def _rule_floor(
    cutoff: float,
    weight: float,
    total: float,
    total_weight: float,
    remaining_after: float,
) -> float:
    """Minimum similarity a rule must score to keep the pair alive.

    Derived by solving the post-rule cutoff inequality for this rule's
    similarity ``s``: the cutoff fires when
    ``(total + weight*s + remaining_after) / bound_weight < cutoff`` with
    ``cutoff = threshold - 1e-9`` (every later rule assumed perfect).  Any
    ``s`` below the returned floor therefore guarantees the cutoff — or,
    for the final rule, the exact threshold check — rejects the pair.  An
    extra ``1e-7`` is subtracted so float noise in computing the floor
    itself can never disqualify a pair the exact-order sum would accept:
    propagation may only skip work, never flip decisions.
    """
    bound_weight = total_weight + weight + remaining_after
    if bound_weight <= 0.0:
        return 0.0
    floor = (cutoff * bound_weight - total - remaining_after) / weight
    return floor - 1e-7


class BatchMatcher:
    """Bounded, bit-identical evaluation of one matcher over many pairs.

    Build one per block (or longer — the per-entity tables are keyed by
    entity id, so reuse across batches of the same dataset is safe) and
    call :meth:`decisions` / :meth:`cost_factors` with lists of pairs.

    Args:
        matcher: the matcher whose ``is_match`` decisions are reproduced.
    """

    def __init__(self, matcher: WeightedMatcher) -> None:
        self.matcher = matcher
        rules = matcher.rules
        self._rules: List[AttributeRule] = rules
        # Cheapest comparators first, stable on the original order.
        self._eval_order = sorted(
            range(len(rules)),
            key=lambda i: (_COMPARATOR_RANK[rules[i].comparator], i),
        )
        self._threshold = matcher.threshold
        self._total_weight = sum(rule.weight for rule in rules)
        #: What the upper bound is compared against; the margin gives
        #: float reordering noise no chance to cut a pair that the exact
        #: original-order sum would accept.
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
        """``[matcher.is_match(e1, e2) for e1, e2 in pairs]``, bounded."""
        if not pairs:
            return []
        _STATS["batches"] += 1
        _STATS["pairs"] += len(pairs)
        matcher = self.matcher
        if matcher._cache is not None:
            # The pair cache wants the full score anyway: no point
            # bounding, and the cache stays in the one place that owns it.
            return [matcher.similarity(e1, e2) >= self._threshold for e1, e2 in pairs]
        return self._bounded_decisions(pairs)

    def _bounded_decisions(self, pairs: PairSeq) -> List[bool]:
        """Rule-major bounded evaluation of one batch.

        For each rule in cheapest-first order, evaluate every pair still
        alive and update its running bound.  A pair leaves ``alive`` — and
        is decided ``False`` — when the upper bound on its achievable
        similarity falls below the cutoff (unevaluated rules assumed
        perfect, which also dominates the missing-on-both-sides case where
        the weight drops from numerator and denominator alike), or, inside
        an edit rule, when :func:`_rule_floor` shows that the rule cannot
        score high enough: a below-floor result implies the post-rule
        cutoff would have fired, so propagation changes no decision.
        """
        n = len(pairs)
        rules = self._rules
        num_rules = len(rules)
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
                        floor = _rule_floor(
                            cutoff, weight, totals[p], weights[p], remaining_after
                        )
                        floors[fkey] = floor
                    if floor > 1.0:
                        # Even a perfect score on this rule leaves the pair
                        # below the cutoff bound: no kernel call needed.
                        continue
                    if floor > 0.0:
                        ekey = (v1, v2, floor)
                        sim = local.get(ekey)
                        if sim is None:
                            sim = _memo_edit_at_least(v1, v2, floor)
                            local[ekey] = sim
                        if sim == _BELOW_FLOOR:
                            continue
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
                    continue  # every evaluated rule missing on both sides
                if (
                    remaining_after > 0.0
                    and (totals[p] + remaining_after) / bound_weight < cutoff
                ):
                    continue  # upper bound too low
                next_alive.append(p)
            alive = next_alive

        out = [False] * n
        threshold = self._threshold
        for p in alive:
            if weights[p] == 0.0:
                continue
            # Re-accumulate in original rule order, like the definition.
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

    # -- cost factors ----------------------------------------------------

    def cost_factors(self, pairs: PairSeq) -> List[float]:
        """``[matcher.comparison_cost_factor(e1, e2) ...]``, batched.

        Same float sequence as the per-pair method: per quadratic rule in
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


__all__ = [
    "BatchMatcher",
    "batch_kernel_counters",
    "reset_batch_kernel_counters",
]
