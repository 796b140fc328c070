"""The bounded match kernel: decide many pairs per Python call.

:meth:`WeightedMatcher.is_match` is the definition — the full weighted sum
against the threshold, one pair per call.  Block resolution asks that
question for *hundreds* of pairs over the *same few dozen* entities (an SN
window of width ``w`` visits each entity in up to ``2(w-1)`` pairs), most
of them nowhere near the threshold, so the definition pays for attribute
lookups, truncation slices, memo keys and quadratic edit distances that
cannot change the answer.  :class:`BatchMatcher` is the one place in
``src/`` that knows how to skip them:

* **per-entity value tables** — each entity's (truncated) attribute values,
  their lengths and, for edit rules, a character-count signature are
  computed once per entity and reused by every pair that touches it;
* **cheapest comparator first** — rules are evaluated in
  :data:`_COMPARATOR_RANK` order, rule-major (outer loop over rules, inner
  loop over the pairs still alive), so a pair can be ruled out before it
  pays for a quadratic edit distance on a long attribute;
* **upper-bound cutoff** — after each rule, the score so far plus the
  *credit* of every unevaluated rule is the most the pair can still reach;
  if that is below the threshold the pair is dead and leaves every later
  rule;
* **threshold propagation** — for edit rules :func:`_rule_floor` turns the
  same bound into the minimum similarity the rule must reach, and the edit
  kernel is called with the matching distance bound so it stops its column
  loop the moment the pair is dead;
* **bounded credit** — an unevaluated edit rule is not credited a perfect
  1.0 but :func:`_edit_upper_bound`: what the two lengths and the two
  character-count signatures still allow (the length and count filters of
  the string-similarity-join literature, used as upper bounds on rules
  *still to come*, so they tighten every floor at once instead of
  filtering one call).  On book records most non-matches die on these
  credits and never reach the edit kernel; a floor above the current
  rule's own bound ends the pair without a call.

Decisions are **bit-identical** to the definition.  The short-circuits only
ever *reject*, and only pairs whose exact sum is below the threshold: the
running bound is accumulated in evaluation order, not rule order, so the
cutoff compares against ``threshold - 1e-9`` (float reordering noise must
not cut a pair the exact sum would accept), and the floor derived from it
gives up a further ``1e-7`` for the noise of its own arithmetic.  A credit
needs no margin of its own: ``1.0 - lb / longest`` with ``lb <= d`` is the
float expression of the true ``1.0 - d / longest``, and IEEE division,
subtraction and the multiplication by the weight are monotone, so ``weight
* upper >= weight * sim`` holds exactly term by term; only the order of the
additions (and the subtraction that retires a credit) differs — the noise
the ``1e-9`` already covers.

A rule whose value is missing on *both* sides leaves the definition's
numerator and denominator alike; it is credited in full and its weight
stays in the denominator, which dominates: with ``N <= D`` the bound over
the rules that do count and ``M >= 0`` the both-missing weight, ``(N + M) /
(D + M) >= N / D``, and ``N <= D`` holds because every score and every
credit is at most its weight.  An edit value facing a missing one is
credited the 0.0 the definition scores it.  A pair that survives every rule
is decided by the weighted sum re-accumulated in *original* rule order —
the float sequence ``WeightedMatcher.similarity`` evaluates.
``tests/test_batch_kernels.py`` holds the kernel to the definition on
random matchers, thresholds at the boundary included, and
``tests/test_property_kernels.py`` holds the credit to the true similarity
on hostile text.

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


PairSeq = Sequence[Tuple[Entity, Entity]]


#: Character-count signature layout: :data:`_BUCKETS` counters of 16 bits
#: packed into one Python int.  A counter uses its low 15 bits; the 16th is
#: the guard :func:`_edit_upper_bound` borrows from, so a value longer than
#: :data:`_COUNTER_MAX` gets no signature and falls back to the length bound.
_BUCKETS = 32
_COUNTER_MAX = 0x7FFF
_GUARD = sum(0x8000 << (16 * bucket) for bucket in range(_BUCKETS))
#: Low byte of a code point -> one count in its bucket.  Distinct characters
#: may share a bucket; that only ever hides a difference (weaker bound).
_BUCKET_UNIT = tuple(1 << (16 * (byte % _BUCKETS)) for byte in range(256)).__getitem__


def _signature(value: str) -> Optional[int]:
    """Bucketed character counts of ``value``, or ``None`` when too long.

    One count per code point (UTF-32, so astral characters and lone
    surrogates are one unit each, exactly as ``len`` and the edit kernel
    see them), bucketed by the code point's low byte.
    """
    if len(value) > _COUNTER_MAX:
        return None
    return sum(map(_BUCKET_UNIT, value.encode("utf-32-le", "surrogatepass")[::4]))


def _edit_upper_bound(
    len1: int, len2: int, sig1: Optional[int], sig2: Optional[int]
) -> float:
    """The most an edit rule can score on two values, from lengths and counts.

    ``1.0`` when both values are empty (the rule then leaves the weighted
    sum; crediting it in full dominates that, see the module docstring),
    otherwise ``1.0 - lb / longest`` with ``lb = max(|len1 - len2|, bag
    distance)`` — both lower bounds on Levenshtein, since one edit changes
    the length by at most one and moves at most one character out of, and
    one into, the multiset.  A value facing an empty one gets ``lb =
    longest`` and so ``0.0``, which is what the definition scores it.

    The bag distance is ``max(surplus(1, 2), surplus(2, 1))``, where
    ``surplus(a, b)`` sums over the buckets what ``a`` counts beyond ``b``;
    the two differ by exactly ``len1 - len2``, so one subtraction yields
    both and their maximum already covers the length gap.  Per 16-bit
    field, ``(count1 | guard) - count2`` keeps the guard bit iff ``count1
    >= count2`` and never borrows from a neighbour; masking the fields
    whose guard survived leaves the surpluses, and ``% 0xFFFF`` adds the
    fields up (``2**16 = 1 mod 0xFFFF``, and the sum is at most ``len1``).

    This is the float expression of the true similarity with ``lb <= d``,
    and IEEE division and subtraction are monotone, so ``ub >= sim`` holds
    exactly in floats, not merely up to rounding.
    """
    longest = len1 if len1 >= len2 else len2
    if not longest:
        return 1.0
    if sig1 is None or sig2 is None:
        return 1.0 - abs(len1 - len2) / longest
    diff = (sig1 | _GUARD) - sig2
    kept = diff & _GUARD
    lower = (diff & (kept - (kept >> 15))) % 0xFFFF
    if len2 > len1:
        lower += len2 - len1
    return 1.0 - lower / longest


def _rule_floor(
    cutoff: float,
    weight: float,
    total: float,
    total_weight: float,
    credit_after: float,
    remaining_after: float,
) -> float:
    """Minimum similarity a rule must score to keep the pair alive.

    Derived by solving the post-rule cutoff inequality for this rule's
    similarity ``s``: the cutoff fires when
    ``(total + weight*s + credit_after) / bound_weight < cutoff`` with
    ``cutoff = threshold - 1e-9``, ``credit_after`` the most the later
    rules can still add and ``remaining_after`` their full weight.  Any
    ``s`` below the returned floor therefore guarantees the cutoff — or,
    for the final rule, the exact threshold check — rejects the pair.  An
    extra ``1e-7`` is subtracted so float noise in computing the floor
    itself can never disqualify a pair the exact-order sum would accept:
    propagation may only skip work, never flip decisions.
    """
    bound_weight = total_weight + weight + remaining_after
    if bound_weight <= 0.0:
        return 0.0
    floor = (cutoff * bound_weight - total - credit_after) / weight
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
        self._edit_indices = tuple(
            i for i, rule in enumerate(rules) if rule.comparator == "edit"
        )
        #: Full weight of the rules after each one in evaluation order
        #: (the cutoff's denominator; exactly 0.0 after the last).
        self._weight_after: Dict[int, float] = {}
        later = 0.0
        for index in reversed(self._eval_order):
            self._weight_after[index] = later
            later += rules[index].weight
        #: What the cheap rules are credited before they are evaluated.
        self._cheap_weight = sum(
            rule.weight for rule in rules if rule.comparator != "edit"
        )
        self._threshold = matcher.threshold
        #: What the upper bound is compared against; the margin gives
        #: float reordering noise no chance to cut a pair that the exact
        #: original-order sum would accept.
        self._cutoff = matcher.threshold - 1e-9
        self._quad_indices = tuple(
            i for i, rule in enumerate(rules)
            if rule.comparator not in _CHEAP_COMPARATORS
        )
        self._cost_denominator = len(self._quad_indices) * REFERENCE_LENGTH
        #: entity id -> (values, lengths, signatures), one row each;
        #: only edit rules carry a signature.
        self._rows: Dict[int, Tuple[tuple, tuple, tuple]] = {}

    # -- per-entity tables ---------------------------------------------

    def _row(self, entity: Entity) -> Tuple[tuple, tuple, tuple]:
        row = self._rows.get(entity.id)
        if row is None:
            values = []
            for rule in self._rules:
                value = entity.get(rule.attribute)
                if rule.max_chars is not None:
                    value = value[: rule.max_chars]
                values.append(value)
            signatures: List[Optional[int]] = [None] * len(values)
            for index in self._edit_indices:
                signatures[index] = _signature(values[index])
            row = (
                tuple(values),
                tuple([len(v) for v in values]),
                tuple(signatures),
            )
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
        cache = self.matcher._cache
        if cache is None:
            return self._bounded_decisions(pairs)
        # The matcher's pair cache holds decisions; a hit answers only for
        # the two entity objects it was decided on.  Misses are bounded too.
        ordered = [(e1, e2) if e1.id < e2.id else (e2, e1) for e1, e2 in pairs]
        out = []
        misses = []
        for p, (low, high) in enumerate(ordered):
            hit = cache.get((low.id, high.id))
            if hit is not None and hit[0] is low and hit[1] is high:
                out.append(hit[2])
            else:
                out.append(False)
                misses.append(p)
        if misses:
            decided = self._bounded_decisions([pairs[p] for p in misses])
            for p, decision in zip(misses, decided):
                low, high = ordered[p]
                cache[(low.id, high.id)] = (low, high, decision)
                out[p] = decision
        return out

    def _bounded_decisions(self, pairs: PairSeq) -> List[bool]:
        """Rule-major bounded evaluation of one batch.

        First every pair is given its **credit**: the most its unevaluated
        rules can still add to the weighted sum — the full weight for a
        cheap rule, ``weight * _edit_upper_bound`` for an edit rule.  Then,
        for each rule in cheapest-first order, every pair still alive
        trades that rule's credit for its score.  A pair leaves ``alive`` —
        and is decided ``False`` — when score so far plus remaining credit,
        over the full weight of everything evaluated or still to come,
        falls below the cutoff, or, inside an edit rule, when
        :func:`_rule_floor` asks for more than the rule can score (its own
        upper bound, without a kernel call) or does score (the bounded
        kernel's below-floor sentinel): either implies the post-rule
        cutoff would have fired, so propagation changes no decision.
        """
        n = len(pairs)
        rules = self._rules
        num_rules = len(rules)
        cutoff = self._cutoff
        rows1, rows2 = self._row_columns(pairs)

        credits = [self._cheap_weight] * n
        uppers: Dict[int, List[float]] = {}
        for index in self._edit_indices:
            weight = rules[index].weight
            column = uppers[index] = []
            for p in range(n):
                _, lens1, sigs1 = rows1[p]
                _, lens2, sigs2 = rows2[p]
                upper = _edit_upper_bound(
                    lens1[index], lens2[index], sigs1[index], sigs2[index]
                )
                column.append(upper)
                credits[p] += weight * upper

        sims: List[List[Optional[float]]] = [[None] * num_rules for _ in range(n)]
        totals = [0.0] * n
        weights = [0.0] * n
        alive = list(range(n))
        for index in self._eval_order:
            if not alive:
                break
            rule = rules[index]
            weight = rule.weight
            remaining_after = self._weight_after[index]
            comparator = rule.comparator
            is_edit = comparator == "edit"
            is_exact = comparator == "exact"
            column = uppers.get(index)
            # Within one rule, identical value pairs recur constantly in
            # sorted blocks; resolve them once per batch instead of once
            # per pair (same value either way — only memo traffic differs).
            local: Dict[tuple, float] = {}
            next_alive = []
            for p in alive:
                v1 = rows1[p][0][index]
                v2 = rows2[p][0][index]
                upper = 1.0 if column is None else column[p]
                credit_after = credits[p] - weight * upper
                if not v1 and not v2:
                    sim: Optional[float] = None
                elif not v1 or not v2:
                    sim = 0.0
                elif is_exact:
                    sim = 1.0 if v1 == v2 else 0.0
                elif is_edit:
                    floor = _rule_floor(
                        cutoff, weight, totals[p], weights[p],
                        credit_after, remaining_after,
                    )
                    if floor > upper:
                        # Even the best score this rule's lengths and
                        # character counts allow leaves the pair below the
                        # cutoff bound: no kernel call needed.
                        continue
                    if floor > 0.0:
                        sim = _memo_edit_at_least(v1, v2, floor)
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
                credits[p] = credit_after
                if sim is not None:
                    totals[p] += weight * sim
                    weights[p] += weight
                bound_weight = weights[p] + remaining_after
                if bound_weight == 0.0:
                    continue  # every evaluated rule missing on both sides
                if (
                    remaining_after > 0.0
                    and (totals[p] + credit_after) / bound_weight < cutoff
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
]
