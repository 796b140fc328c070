"""The resolve/match function — the definition.

Section VI-A2: "we applied similarity functions on multiple individual
attributes and then used the weighted summation of the attribute
similarities to decide whether the two entities co-refer or not."
:class:`WeightedMatcher` is exactly that and nothing else: per-attribute
comparator choice (edit distance or exact match, the two the paper's
match functions use), optional value truncation (the paper compares only
the first ≤ 350 abstract characters), the weighted sum of
:meth:`similarity`, the threshold test of :meth:`is_match`, and a cost
hook so the simulator can charge longer comparisons more.

Nothing here short-circuits.  The one bounded implementation of the same
decision — exact rules first, upper-bound cutoff, threshold propagated
into the edit kernel — is
:class:`~repro.similarity.batch.BatchMatcher`, which every pair ``src/``
decides goes through (``repro.mechanisms.base.resolve_block``);
:meth:`WeightedMatcher.is_match` is what it must reproduce and what the
tests hold it to.  The bounded edit comparison (:func:`edits_at_least`:
one call per rule and batch decides every pair it compares) lives here
beside the rules both paths evaluate; the per-pair :func:`edit_similarity`
serves only the definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.counters import Counters
from .edit_distance import (
    Patterns,
    distance_budget,
    edit_similarity,
    levenshtein,
    levenshtein_many,
)

#: Attribute length (characters) that costs exactly one comparison unit.
REFERENCE_LENGTH = 40.0

#: Lower clamp on the per-pair cost factor: even trivial comparisons incur
#: dispatch/serialization overhead.
MIN_COST_FACTOR = 0.2

#: Sentinel returned by :func:`edits_at_least` when the similarity is
#: provably below the requested floor (the exact value was never computed).
_BELOW_FLOOR = -1.0


def edits_at_least(
    values1: Sequence[str],
    values2: Sequence[str],
    floors: Sequence[float],
    patterns: Optional[Patterns] = None,
) -> List[float]:
    """Per pair of the three columns, the edit similarity of ``v1`` and
    ``v2`` when it can still matter, else :data:`_BELOW_FLOOR`.

    ``floor`` is the minimum similarity that could still influence the
    match decision (see ``_rule_floor`` in :mod:`repro.similarity.batch`).
    It becomes the pair's bound through :func:`distance_budget`, which
    guarantees the sentinel is only ever returned for
    similarities *strictly* below the floor; a floor of 0 or below gives a
    bound no distance exceeds.  A result is the float
    :func:`edit_similarity` returns: ``1 - d/longest``, the same expression.

    One :func:`levenshtein_many` call decides each distinct ``(v1, v2)``
    once, under the loosest bound any of its pairs asks for: its answer,
    ``min(d, loosest + 1)``, exceeds a pair's own bound exactly when ``d``
    does.  ``patterns`` is the packed kernel's pattern-mask cache, passed
    through to :func:`levenshtein_many`.
    """
    longests = list(map(max, map(len, values1), map(len, values2)))
    budgets = list(map(distance_budget, floors, longests))
    loosest: Dict[Tuple[str, str], int] = {}
    # Loops, not comprehensions: they run once per rule and batch, and the
    # perf-smoke call budgets count every Python frame.
    for pair, budget in zip(zip(values1, values2), budgets):
        if budget > loosest.setdefault(pair, budget):
            loosest[pair] = budget
    triples = []
    for (v1, v2), budget in loosest.items():
        triples.append((v1, v2, budget))
    distances = dict(zip(loosest, levenshtein_many(triples, patterns)))
    out = []
    for pair, allowed, longest in zip(zip(values1, values2), budgets, longests):
        distance = distances[pair]
        out.append(_BELOW_FLOOR if distance > allowed else 1.0 - distance / longest)
    return out


def similarity_cache_counters() -> Counters:
    """Empty counters.  Kept only because ``benchmarks/e2e/spans.py``
    imports it; ROADMAP item 1(a) deletes both."""
    return Counters()


@dataclass(frozen=True)
class AttributeRule:
    """How one attribute contributes to the match decision.

    Attributes:
        attribute: attribute name.
        weight: relative weight of this attribute's similarity.
        comparator: ``"edit"`` (edit-distance similarity) or ``"exact"``.
        max_chars: compare only the first ``max_chars`` characters
            (``None`` = whole value, else at least 1).
    """

    attribute: str
    weight: float
    comparator: str = "edit"
    max_chars: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.weight < math.inf:
            raise ValueError(f"weight must be finite and positive, got {self.weight}")
        if self.comparator not in ("edit", "exact"):
            raise ValueError(f"unknown comparator {self.comparator!r}")
        if self.max_chars is not None and self.max_chars < 1:
            raise ValueError(f"max_chars must be at least 1, got {self.max_chars}")

    def values(self, e1: Entity, e2: Entity) -> Tuple[str, str]:
        """The (possibly truncated) attribute values to compare."""
        v1, v2 = e1.get(self.attribute), e2.get(self.attribute)
        if self.max_chars is not None:
            v1, v2 = v1[: self.max_chars], v2[: self.max_chars]
        return v1, v2

    def similarity(self, e1: Entity, e2: Entity) -> Optional[float]:
        """Similarity of this attribute in [0, 1].

        Returns ``None`` when both values are missing, which excludes the
        attribute from the weighted sum (re-normalized by the matcher);
        one-sided missing values score 0.
        """
        v1, v2 = self.values(e1, e2)
        if not v1 and not v2:
            return None
        if not v1 or not v2:
            return 0.0
        if self.comparator == "exact":
            return 1.0 if v1 == v2 else 0.0
        return edit_similarity(v1, v2)


class WeightedMatcher:
    """Weighted-sum attribute matcher with a decision threshold.

    Args:
        rules: per-attribute contribution rules.
        threshold: declare a duplicate when the weighted similarity is at
            least this value.
        cache: memoize match decisions by entity-id pair; filled and read
            by :meth:`BatchMatcher.decisions
            <repro.similarity.batch.BatchMatcher.decisions>`.  A stored
            decision answers only for the two entity *objects* it was made
            on, so one matcher may serve datasets with overlapping ids;
            benchmark harnesses use it to share comparisons across the many
            runs they perform on one dataset.
    """

    def __init__(
        self,
        rules: Sequence[AttributeRule],
        threshold: float,
        *,
        cache: bool = False,
    ) -> None:
        if not rules:
            raise ValueError("a matcher needs at least one attribute rule")
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.rules: List[AttributeRule] = list(rules)
        # Finite weights can still overflow their sum (two of 1e308), and
        # an infinite total turns every similarity into NaN.
        if not math.isfinite(sum(rule.weight for rule in self.rules)):
            raise ValueError("the rule weights must have a finite sum")
        self.threshold = threshold
        self._cache: Optional[dict] = {} if cache else None

    def similarity(self, e1: Entity, e2: Entity) -> float:
        """Weighted similarity in [0, 1]; attributes missing on both sides
        are excluded and the remaining weights re-normalized."""
        total_weight = 0.0
        total = 0.0
        for rule in self.rules:
            sim = rule.similarity(e1, e2)
            if sim is None:
                continue
            total += rule.weight * sim
            total_weight += rule.weight
        if total_weight == 0.0:
            return 0.0
        return total / total_weight

    def is_match(self, e1: Entity, e2: Entity) -> bool:
        """The resolve function: do ``e1`` and ``e2`` co-refer?"""
        return self.similarity(e1, e2) >= self.threshold

    def comparison_cost_factor(self, e1: Entity, e2: Entity) -> float:
        """Relative cost of resolving this pair (1.0 = reference length).

        Edit distance is quadratic in string length, so the factor scales
        with the mean compared length relative to :data:`REFERENCE_LENGTH`;
        exact-match rules contribute a negligible constant.
        """
        chars = 0.0
        quadratic_rules = 0
        for rule in self.rules:
            if rule.comparator == "exact":
                continue
            v1, v2 = rule.values(e1, e2)
            chars += (len(v1) + len(v2)) / 2.0
            quadratic_rules += 1
        if quadratic_rules == 0:
            return MIN_COST_FACTOR
        factor = chars / (quadratic_rules * REFERENCE_LENGTH)
        return max(MIN_COST_FACTOR, factor)


def citeseer_matcher(*, cache: bool = False) -> WeightedMatcher:
    """The paper's CiteSeerX match function: edit distance on title,
    abstract (first ≤ 350 chars) and venue."""
    return WeightedMatcher(
        rules=[
            AttributeRule("title", weight=0.5, comparator="edit"),
            AttributeRule("abstract", weight=0.3, comparator="edit", max_chars=350),
            AttributeRule("venue", weight=0.2, comparator="edit"),
        ],
        threshold=0.54,
        cache=cache,
    )


def books_matcher(*, cache: bool = False) -> WeightedMatcher:
    """The paper's OL-Books match function: eight attributes compared with
    edit distance or exact matching."""
    return WeightedMatcher(
        rules=[
            AttributeRule("title", weight=0.34, comparator="edit"),
            AttributeRule("authors", weight=0.22, comparator="edit"),
            AttributeRule("publisher", weight=0.12, comparator="edit"),
            AttributeRule("year", weight=0.08, comparator="exact"),
            AttributeRule("isbn", weight=0.10, comparator="exact"),
            AttributeRule("pages", weight=0.05, comparator="exact"),
            AttributeRule("language", weight=0.05, comparator="exact"),
            AttributeRule("format", weight=0.04, comparator="exact"),
        ],
        threshold=0.46,
        cache=cache,
    )


def people_matcher(*, cache: bool = False) -> WeightedMatcher:
    """Match function for census-style person records: edit distance on
    the name/address fields, exact matching on the categorical ones."""
    return WeightedMatcher(
        rules=[
            AttributeRule("name", weight=0.20, comparator="edit"),
            AttributeRule("surname", weight=0.25, comparator="edit"),
            AttributeRule("street", weight=0.18, comparator="edit"),
            AttributeRule("city", weight=0.10, comparator="edit"),
            AttributeRule("state", weight=0.05, comparator="exact"),
            AttributeRule("zip", weight=0.08, comparator="exact"),
            AttributeRule("birth_year", weight=0.08, comparator="exact"),
            AttributeRule("phone", weight=0.06, comparator="exact"),
        ],
        threshold=0.62,
        cache=cache,
    )


def linkage_matcher(*, cache: bool = False) -> WeightedMatcher:
    """Match function for clean-clean linkage: only the attributes *shared*
    by the two source schemas are comparable (title / authors / year), so
    the weights concentrate there — edit distance on the free-text fields,
    exact matching on the year."""
    return WeightedMatcher(
        rules=[
            AttributeRule("title", weight=0.55, comparator="edit"),
            AttributeRule("authors", weight=0.30, comparator="edit"),
            AttributeRule("year", weight=0.15, comparator="exact"),
        ],
        threshold=0.55,
        cache=cache,
    )


__all__ = [
    # Re-exported only because ``benchmarks/e2e/spans.py`` wraps
    # ``matchers.levenshtein``; ROADMAP item 1(a) retargets that wrapper.
    "levenshtein",
    "AttributeRule",
    "WeightedMatcher",
    "citeseer_matcher",
    "books_matcher",
    "people_matcher",
    "linkage_matcher",
    "REFERENCE_LENGTH",
    "MIN_COST_FACTOR",
]
