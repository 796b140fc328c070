"""The bounded match kernel: decide many pairs per Python call.

:meth:`WeightedMatcher.is_match` is the definition — the full weighted sum
against the threshold, one pair per call.  Block resolution asks that
question for *hundreds* of pairs over the *same few dozen* entities (an SN
window of width ``w`` visits each entity in up to ``2(w-1)`` pairs), most
of them nowhere near the threshold, so the definition pays for attribute
lookups, truncation slices and quadratic edit distances that
cannot change the answer.  :class:`BatchMatcher` is the one place in
``src/`` that knows how to skip them:

* **rows built once** — pairs arrive as positions into one block's
  members; each entity's (truncated) attribute values, their lengths, for
  edit rules a character-count signature, and the summed length its cost
  factor reads form its *row*, built at most once per matcher and reused
  by every pair of every block that touches the entity (:class:`BlockRows`
  is one block's view of the matcher's table).  Rows live as long as the
  matcher, and its owner picks that: one job for Job 2, Basic and MR-SN,
  the service's lifetime for delta jobs;
* **exact rules first** — the exact rules, then the edit rules, each in
  rule order, rule-major (outer loop over rules, inner loop over the pairs
  still alive), so a pair can be ruled out before it pays for a quadratic
  edit distance on a long attribute; the exact rules need no kernel;
* **upper-bound cutoff** — after each rule, the score so far plus the
  *credit* of every unevaluated rule is the most the pair can still reach;
  if that is below the threshold the pair is dead and leaves every later
  rule;
* **threshold propagation** — for edit rules :func:`_rule_floor` turns the
  same bound into the minimum similarity the rule must reach, and every
  pair of the rule with a value on both sides goes to the edit kernel in
  one call (:func:`~repro.similarity.matchers.edits_at_least`), each with
  the matching distance bound; a floor of 0 or below bounds nothing and
  gets the exact distance.  The kernel decides each distinct value pair
  once, in one packed Myers column loop, or per pair when only a few
  survive its cheap exits, and either way a pair leaves the loop once its
  bound proves it dead.  The packed loop's pattern masks are built once
  per block: the block's :class:`BlockRows` caches them for every batch
  and rule of the block;
* **bounded credit** — an unevaluated edit rule is not credited a perfect
  1.0 but :func:`_edit_upper_bounds`: what the two lengths and the two
  character-count signatures still allow (the length and count filters of
  the string-similarity-join literature, used as upper bounds on rules
  *still to come*, so they tighten every floor at once instead of
  filtering one call).  Credits are computed heaviest rule first and only
  while the pair is still alive, so on book records most non-matches die
  on one or two of them and never reach the edit kernel.

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

What the kernel may legitimately change: wall-clock time (a batch
compares each distinct value pair of a rule once), which lives outside
virtual time.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..data.entity import Entity
from .edit_distance import Patterns
from .matchers import (
    MIN_COST_FACTOR,
    REFERENCE_LENGTH,
    AttributeRule,
    WeightedMatcher,
    _BELOW_FLOOR,
    edits_at_least,
)

_STATS = {"batches": 0, "pairs": 0}


def batch_kernel_counters() -> Dict[str, int]:
    """Process-wide batch-kernel invocation counters (wall-clock facts)."""
    return dict(_STATS)


#: Character-count signature layout: :data:`_BUCKETS` counters of 16 bits
#: packed into one Python int.  A counter uses its low 15 bits; the 16th is
#: the guard :func:`_edit_upper_bounds` borrows from, so a value longer than
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


def _edit_upper_bounds(
    rows1: Iterable[Sequence], rows2: Iterable[Sequence], slot: int
) -> List[float]:
    """The most an edit rule can score on each pair of two row columns,
    from lengths and counts, in one call (the kernel credits a batch a rule
    at a time): a row holds the value's length at ``slot`` and its
    signature at ``slot + 1``.

    Per pair of values of lengths ``len1`` and ``len2``: ``1.0`` when both
    values are empty (the rule then leaves the weighted
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
    bounds: List[float] = []
    append = bounds.append
    sig_slot = slot + 1
    for row1, row2 in zip(rows1, rows2):
        len1 = row1[slot]
        len2 = row2[slot]
        longest = len1 if len1 >= len2 else len2
        if not longest:
            append(1.0)
            continue
        sig1 = row1[sig_slot]
        sig2 = row2[sig_slot]
        if sig1 is None or sig2 is None:
            append(1.0 - abs(len1 - len2) / longest)
            continue
        diff = (sig1 | _GUARD) - sig2
        kept = diff & _GUARD
        lower = (diff & (kept - (kept >> 15))) % 0xFFFF
        if len2 > len1:
            lower += len2 - len1
        append(1.0 - lower / longest)
    return bounds


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


#: One entity's kernel row, one flat tuple: first, per rule, its
#: (truncated) value, so ``row[rule index]`` is that rule's value; then,
#: per edit rule in rule order, the value's length and its character-count
#: signature; then the summed length of its edit-rule values, which is all
#: a cost factor reads; last, the entity the row was built from.
Row = tuple


class BlockRows:
    """One block's kernel rows by member position: a view over the
    :class:`BatchMatcher`'s row table, and the block's pattern-mask cache.

    Made by :meth:`BatchMatcher.rows` and kept for one block's resolution.
    A position is resolved to its row on first use: looked up in the
    matcher's table by entity id, and built and filed there when the table
    holds no row for this entity object.  The view keeps what it looked
    up, so a member costs one table lookup per block however many pairs
    touch it, and a member whose every pair is vetoed never gets a row.
    The rows themselves belong to the matcher and outlive the view.

    ``patterns`` holds the byte masks the packed edit kernel builds for a
    pattern, keyed by (value, segment size)
    (:func:`~repro.similarity.edit_distance.levenshtein_many`): a member's
    value keys the same entry in every batch and rule of the block, so its
    masks are built once per block and segment size, and freed with the
    view.
    """

    __slots__ = ("members", "rows", "patterns", "_table", "_build")

    def __init__(self, members: Sequence[Entity], table, build) -> None:
        self.members = members
        self.rows: List[Optional[Row]] = [None] * len(members)
        self.patterns: Patterns = {}
        self._table = table
        self._build = build

    def fetch(self, positions: Sequence[int]) -> List[Row]:
        """The rows at ``positions``, looking up the ones not seen yet."""
        rows = self.rows
        fetched = [rows[i] for i in positions]
        if None in fetched:
            self._fill(positions)
            fetched = [rows[i] for i in positions]
        return fetched

    def _fill(self, positions: Sequence[int]) -> None:
        """Resolve every position not seen yet (see the class docstring)."""
        rows, members, table = self.rows, self.members, self._table
        for i in positions:
            if rows[i] is None:
                entity = members[i]
                row = table.get(entity.id)
                if row is None or row[-1] is not entity:
                    row = table[entity.id] = self._build(entity)
                rows[i] = row


class BatchMatcher:
    """Bounded, bit-identical evaluation of one matcher over index pairs.

    Give each block a row view with :meth:`rows`, then call
    :meth:`decisions` / :meth:`cost_factors` with equal-length position
    sequences ``lefts`` / ``rights`` into that block's members.

    The matcher keeps every row it builds, keyed by entity id, together
    with a value → character-count signature map, for as long as the
    matcher lives: an entity's row is built at most once, whichever blocks
    it is a member of.  A cached row answers only for the entity object it
    was built from (the identity rule the pair cache in :meth:`decisions`
    applies too), so an id that comes back as a new object with other
    values gets a fresh row.  The owner of the matcher therefore sets how
    long rows live and so the memory they hold: Job 2, Basic and MR-SN
    make one per job and hand it to every reduce task of the job, so in a
    serial run an entity's row is built once per job, and
    :class:`~repro.service.resolver.ResolverService` keeps one for its own
    lifetime, shared by every delta job it runs.  Rows built inside a
    forked worker process die with the worker: under the process backend
    each worker fills its own copy of the table, and the driver's copy
    (a service's, say) only by the tasks that run inline.  Pattern masks
    live shorter, for one block (see :class:`BlockRows`).

    Args:
        matcher: the matcher whose ``is_match`` decisions are reproduced.
    """

    def __init__(self, matcher: WeightedMatcher) -> None:
        self.matcher = matcher
        rules = matcher.rules
        self._rules: List[AttributeRule] = rules
        #: The evaluation order: the exact rules, then the edit rules, each
        #: in rule order.
        self._exact_indices = tuple(
            i for i, rule in enumerate(rules) if rule.comparator == "exact"
        )
        self._edit_indices = tuple(
            i for i, rule in enumerate(rules) if rule.comparator == "edit"
        )
        self._edit_weight = sum(rules[i].weight for i in self._edit_indices)
        #: Edit rules in the order their credits are computed — heaviest
        #: first, so a hopeless pair dies on the fewest bounds — each with
        #: where its length and signature sit in a row.
        self._credit_slots = tuple(sorted(
            ((i, len(rules) + 2 * k) for k, i in enumerate(self._edit_indices)),
            key=lambda slot: (-rules[slot[0]].weight, slot[0]),
        ))
        #: Full weight of the rules after each one in evaluation order
        #: (the cutoff's denominator; exactly 0.0 after the last).
        self._weight_after: Dict[int, float] = {}
        later = 0.0
        for index in reversed(self._exact_indices + self._edit_indices):
            self._weight_after[index] = later
            later += rules[index].weight
        #: What the exact rules are credited before they are evaluated.
        self._exact_weight = sum(rules[i].weight for i in self._exact_indices)
        self._threshold = matcher.threshold
        #: What the upper bound is compared against; the margin gives
        #: float reordering noise no chance to cut a pair that the exact
        #: original-order sum would accept.
        self._cutoff = matcher.threshold - 1e-9
        self._cost_denominator = len(self._edit_indices) * REFERENCE_LENGTH
        #: Per rule, the attribute a row reads and its truncation.
        self._fields = [(rule.attribute, rule.max_chars) for rule in rules]
        #: entity id -> row and value -> signature, for the matcher's
        #: lifetime.
        self._table: Dict[int, Row] = {}
        self._signatures: Dict[str, Optional[int]] = {}

    # -- rows -------------------------------------------------------------

    def rows(self, members: Sequence[Entity]) -> BlockRows:
        """A row view over one block's ``members``."""
        return BlockRows(members, self._table, self._build_row)

    def _build_row(self, entity: Entity) -> Row:
        get = entity.attrs.get
        row = [get(attribute, "")[:max_chars] for attribute, max_chars in self._fields]
        edit_chars = sum(map(len, map(row.__getitem__, self._edit_indices)))
        known = self._signatures
        for index in self._edit_indices:
            value = row[index]
            signature = known.get(value)
            if signature is None:
                signature = known[value] = _signature(value)
            row += (len(value), signature)
        row += (edit_chars, entity)
        return tuple(row)

    # -- decisions ------------------------------------------------------

    def decisions(
        self, rows: BlockRows, lefts: Sequence[int], rights: Sequence[int]
    ) -> List[bool]:
        """``[matcher.is_match(members[i], members[j]) for i, j in
        zip(lefts, rights)]``, bounded."""
        if not lefts:
            return []
        _STATS["batches"] += 1
        _STATS["pairs"] += len(lefts)
        cache = self.matcher._cache
        if cache is None:
            return self._bounded_decisions(
                rows.fetch(lefts), rows.fetch(rights), rows.patterns
            )
        # The matcher's pair cache holds decisions; a hit answers only for
        # the two entity objects it was decided on.  Misses are bounded too.
        members = rows.members
        out = []
        misses = []
        for p, (i, j) in enumerate(zip(lefts, rights)):
            e1, e2 = members[i], members[j]
            low, high = (e1, e2) if e1.id < e2.id else (e2, e1)
            hit = cache.get((low.id, high.id))
            if hit is not None and hit[0] is low and hit[1] is high:
                out.append(hit[2])
            else:
                out.append(False)
                misses.append((p, low, high))
        if misses:
            decided = self._bounded_decisions(
                rows.fetch([lefts[p] for p, _, _ in misses]),
                rows.fetch([rights[p] for p, _, _ in misses]),
                rows.patterns,
            )
            for (p, low, high), decision in zip(misses, decided):
                cache[(low.id, high.id)] = (low, high, decision)
                out[p] = decision
        return out

    def _bounded_decisions(
        self, rows1: List[Row], rows2: List[Row], patterns: Patterns
    ) -> List[bool]:
        """Rule-major bounded evaluation of one batch, in three passes;
        ``patterns`` is the block's pattern-mask cache (see
        :class:`BlockRows`).

        1. **Exact rules**, every pair: equality needs no kernel, and it
           fixes the score the other rules must make up.
        2. **Credits**, heaviest edit rule first: each alive pair trades
           the full weight of the rule for ``weight * _edit_upper_bounds``
           and leaves ``alive`` — decided ``False`` — once score plus
           credit, over the full weight of everything evaluated or still
           to come, falls below the cutoff.  A pair that dies here never
           pays for the bounds of its lighter rules.
        3. **Edit rules**, in rule order: every pair still alive trades
           a rule's credit for its score and dies when the same bound falls
           below the cutoff or, inside an edit rule, when the bounded
           kernel answers with its below-floor sentinel for the floor
           :func:`_rule_floor` derived from that bound.

        Pass 3 keeps its credits in the float sequence of the one-pass
        evaluation (credits summed in rule order, each evaluated rule's
        subtracted in evaluation order), so its floors and its kernel calls
        are those of that evaluation.
        """
        n = len(rows1)
        rules = self._rules
        cutoff = self._cutoff
        # A row starts with its values, so it serves as one.
        values1 = rows1
        values2 = rows2
        totals = [0.0] * n
        weights = [0.0] * n
        exact_rules = [(index, rules[index].weight) for index in self._exact_indices]
        if exact_rules:
            for p in range(n):
                va = values1[p]
                vb = values2[p]
                total = 0.0
                weight_sum = 0.0
                for index, weight in exact_rules:
                    v1 = va[index]
                    if v1 != vb[index]:
                        weight_sum += weight
                    elif v1:
                        total += weight
                        weight_sum += weight
                totals[p] = total
                weights[p] = weight_sum

        alive = list(range(n))
        sims: Dict[int, List[Optional[float]]] = {}
        if self._edit_indices:
            edit_weight = self._edit_weight
            # Score plus credit, and the cutoff times the bound's weight.
            reach = [total + edit_weight for total in totals]
            needed = [cutoff * (weight + edit_weight) for weight in weights]
            alive = [p for p in alive if reach[p] >= needed[p]]
            uppers: Dict[int, List[float]] = {}
            for index, slot in self._credit_slots:
                weight = rules[index].weight
                column = uppers[index] = [0.0] * n
                bounds = _edit_upper_bounds(
                    map(rows1.__getitem__, alive), map(rows2.__getitem__, alive), slot
                )
                next_alive = []
                for p, upper in zip(alive, bounds):
                    column[p] = upper
                    bound = reach[p] - weight * (1.0 - upper)
                    if bound < needed[p]:
                        continue
                    reach[p] = bound
                    next_alive.append(p)
                alive = next_alive
            if alive:
                credits = [self._exact_weight] * n
                for index in self._edit_indices:
                    weight = rules[index].weight
                    column = uppers[index]
                    for p in alive:
                        credits[p] += weight * column[p]
                for index, weight in exact_rules:
                    for p in alive:
                        credits[p] -= weight
                alive = self._edit_pass(
                    values1, values2, alive, sims, totals, weights, credits, uppers,
                    patterns,
                )

        out = [False] * n
        threshold = self._threshold
        for p in alive:
            if weights[p] == 0.0:
                continue
            # Re-accumulate in original rule order, like the definition.
            va = values1[p]
            vb = values2[p]
            exact_total = 0.0
            exact_weight = 0.0
            for index, rule in enumerate(rules):
                if rule.comparator == "exact":
                    v1 = va[index]
                    if v1 != vb[index]:
                        sim: Optional[float] = 0.0
                    else:
                        sim = 1.0 if v1 else None
                else:
                    sim = sims[index][p]
                if sim is None:
                    continue
                exact_total += rule.weight * sim
                exact_weight += rule.weight
            out[p] = exact_total / exact_weight >= threshold
        return out

    def _edit_pass(
        self, values1, values2, alive, sims, totals, weights, credits, uppers, patterns
    ):
        """Pass 3 of :meth:`_bounded_decisions`; returns the survivors.

        Per edit rule, in three steps: every alive pair trades the rule's
        credit for its floor (pairs are independent, so the order does not
        matter); every pair with a value on both sides goes to the bounded
        kernel in one call, whatever the sign of its floor; the answers are
        applied in pair order.
        """
        rules = self._rules
        cutoff = self._cutoff
        n = len(values1)
        for index in self._edit_indices:
            if not alive:
                break
            weight = rules[index].weight
            remaining_after = self._weight_after[index]
            column = uppers[index]
            scores = sims[index] = [None] * n
            compared: List[int] = []
            firsts: List[str] = []
            seconds: List[str] = []
            floors: List[float] = []
            for p in alive:
                v1 = values1[p][index]
                v2 = values2[p][index]
                credit_after = credits[p] = credits[p] - weight * column[p]
                if not v1 and not v2:
                    continue  # the score stays None
                if not v1 or not v2:
                    scores[p] = 0.0
                    continue
                compared.append(p)
                firsts.append(v1)
                seconds.append(v2)
                floors.append(_rule_floor(
                    cutoff, weight, totals[p], weights[p],
                    credit_after, remaining_after,
                ))
            if compared:
                answers = edits_at_least(firsts, seconds, floors, patterns)
                for p, sim in zip(compared, answers):
                    scores[p] = sim
            next_alive = []
            for p in alive:
                sim = scores[p]
                if sim is not None:
                    if sim == _BELOW_FLOOR:
                        continue
                    totals[p] += weight * sim
                    weights[p] += weight
                bound_weight = weights[p] + remaining_after
                if bound_weight == 0.0:
                    continue  # every evaluated rule missing on both sides
                if (
                    remaining_after > 0.0
                    and (totals[p] + credits[p]) / bound_weight < cutoff
                ):
                    continue  # upper bound too low
                next_alive.append(p)
            alive = next_alive
        return alive

    # -- cost factors ----------------------------------------------------

    def cost_factors(
        self, rows: BlockRows, lefts: Sequence[int], rights: Sequence[int]
    ) -> List[float]:
        """``[matcher.comparison_cost_factor(members[i], members[j]) ...]``.

        The same floats as the per-pair method: it sums ``(len(v1) +
        len(v2)) / 2.0`` over the edit rules, which is exact for integer
        lengths, so one ``(chars1 + chars2) / 2.0`` of the rows' summed
        lengths is that sum; then it divides by ``edit rules *
        REFERENCE_LENGTH`` and clamps.
        """
        if not self._edit_indices:
            return [MIN_COST_FACTOR] * len(lefts)
        denominator = self._cost_denominator
        # ``row[-2]``: the row's summed edit-rule length.
        factors = [
            (row1[-2] + row2[-2]) / 2.0 / denominator
            for row1, row2 in zip(rows.fetch(lefts), rows.fetch(rights))
        ]
        return [f if f > MIN_COST_FACTOR else MIN_COST_FACTOR for f in factors]


__all__ = [
    "BatchMatcher",
    "BlockRows",
    "batch_kernel_counters",
]
