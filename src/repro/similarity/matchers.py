"""The resolve/match function — the definition.

Section VI-A2: "we applied similarity functions on multiple individual
attributes and then used the weighted summation of the attribute
similarities to decide whether the two entities co-refer or not."
:class:`WeightedMatcher` is exactly that and nothing else: per-attribute
comparator choice (edit distance, exact, Jaro-Winkler, token/q-gram
Jaccard), optional value truncation (the paper compares only the first
≤ 350 abstract characters), the weighted sum of :meth:`similarity`, the
threshold test of :meth:`is_match`, and a cost hook so the simulator can
charge longer comparisons more.

Nothing here short-circuits.  The one bounded implementation of the same
decision — cheapest comparator first, upper-bound cutoff, threshold
propagated into the edit kernel — is
:class:`~repro.similarity.batch.BatchMatcher`, which every pair ``src/``
decides goes through (``repro.mechanisms.base.resolve_block``);
:meth:`WeightedMatcher.is_match` is what it must reproduce and what the
tests hold it to.  The value-comparison memo (:func:`_memo_compare`,
:func:`_memo_edit_at_least`) lives here because both share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.entity import Entity
from ..mapreduce.counters import Counters
from ..mapreduce.executors import register_job_reset_hook, register_task_stat_source
from .edit_distance import distance_budget, edit_similarity, levenshtein
from .jaro import jaro_winkler
from .tokens import qgram_jaccard, token_jaccard

#: Attribute length (characters) that costs exactly one comparison unit.
REFERENCE_LENGTH = 40.0

#: Lower clamp on the per-pair cost factor: even trivial comparisons incur
#: dispatch/serialization overhead.
MIN_COST_FACTOR = 0.2

_COMPARATOR_FUNCTIONS = {
    "edit": edit_similarity,
    "jaro_winkler": jaro_winkler,
    "token_jaccard": token_jaccard,
    "qgram": qgram_jaccard,
}


#: Comparison memo: ``(comparator, v1, v2) -> similarity``.  A plain dict
#: (not ``lru_cache``) so the threshold-propagating edit path can consult
#: and populate the same memo as the exact path, and so hit/miss counts
#: can be snapshotted cheaply by the per-task stat hook.
_MEMO: Dict[Tuple[str, str, str], float] = {}

#: Entry cap; the memo is dropped wholesale when it fills (values recur so
#: heavily in blocked ER data that eviction policy barely matters).
_MEMO_MAX = 1 << 20

_MEMO_STATS = {"hits": 0, "misses": 0}

#: Sentinel returned by :func:`_memo_edit_at_least` when the similarity is
#: provably below the requested floor (the exact value was never computed).
_BELOW_FLOOR = -1.0


def _memo_compare(comparator: str, v1: str, v2: str) -> float:
    """Memoized attribute-value comparison.

    Blocked data repeats attribute values constantly (every member of a
    block shares its blocking key's attribute, SN windows slide one record
    at a time), so ``(comparator, v1, v2)`` recurs across pairs, blocks and
    runs.  The memo only skips *wall-clock* work: virtual cost is charged
    from string lengths by :meth:`WeightedMatcher.comparison_cost_factor`,
    which never consults the cache, so cached and uncached paths charge
    identically.  Process-backend workers each hold their own copy (forked
    warm, then diverging), which likewise cannot affect virtual time.
    """
    key = (comparator, v1, v2)
    cached = _MEMO.get(key)
    if cached is not None:
        _MEMO_STATS["hits"] += 1
        return cached
    _MEMO_STATS["misses"] += 1
    value = _COMPARATOR_FUNCTIONS[comparator](v1, v2)
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.clear()
    _MEMO[key] = value
    return value


def _memo_edit_at_least(v1: str, v2: str, floor: float) -> float:
    """Edit similarity when it can still matter, else :data:`_BELOW_FLOOR`.

    ``floor`` is the minimum similarity that could still influence the
    match decision (see ``_rule_floor`` in :mod:`repro.similarity.batch`).  It becomes
    the kernel's bound through :func:`distance_budget`, whose truncation
    guarantees the sentinel is only ever returned for similarities
    *strictly* below the floor.

    Exact results are cached under the same key the unbounded path uses
    (``1 - d/longest`` is the identical float expression
    :func:`edit_similarity` evaluates); below-floor probes are *not*
    cached, because the sentinel is relative to this call's floor.
    """
    key = ("edit", v1, v2)
    cached = _MEMO.get(key)
    if cached is not None:
        _MEMO_STATS["hits"] += 1
        return cached
    _MEMO_STATS["misses"] += 1
    longest = max(len(v1), len(v2))
    allowed = distance_budget(floor, longest)
    distance = levenshtein(v1, v2, max_distance=allowed)
    if distance > allowed:
        return _BELOW_FLOOR
    value = 1.0 - distance / longest
    if len(_MEMO) >= _MEMO_MAX:
        _MEMO.clear()
    _MEMO[key] = value
    return value


def similarity_cache_counters() -> Counters:
    """Cache-hit statistics as Hadoop-style counters (this process only),
    under the ``matcher.*`` namespace."""
    counters = Counters()
    counters.increment("matcher", "cache_hits", _MEMO_STATS["hits"])
    counters.increment("matcher", "cache_misses", _MEMO_STATS["misses"])
    counters.increment("matcher", "cache_entries", len(_MEMO))
    return counters


def clear_similarity_cache() -> None:
    """Drop the process-wide comparison memo (benchmark hygiene)."""
    _MEMO.clear()
    _MEMO_STATS["hits"] = 0
    _MEMO_STATS["misses"] = 0


def _matcher_stat_source() -> Dict[str, int]:
    """Monotone cache statistics for per-task payload deltas.

    Registered with the executor layer so process-backend workers ship the
    hits/misses their task generated back to the driver, keeping serial
    and parallel ``matcher.*`` metrics comparable.  ``cache_entries`` is
    deliberately excluded: it is a level, not a counter, and deltas of it
    would go negative on memo resets.
    """
    return {
        "cache_hits": _MEMO_STATS["hits"],
        "cache_misses": _MEMO_STATS["misses"],
    }


register_task_stat_source("matcher", _matcher_stat_source)

# A fresh memo per job: without this, the process-wide memo leaks across
# back-to-back ExperimentRuns in one process and the per-run `matcher.*`
# counters mostly describe earlier runs' warm cache.  Purely wall-clock —
# virtual costs never consult the memo.
register_job_reset_hook(clear_similarity_cache)


@dataclass(frozen=True)
class AttributeRule:
    """How one attribute contributes to the match decision.

    Attributes:
        attribute: attribute name.
        weight: relative weight of this attribute's similarity.
        comparator: ``"edit"``, ``"exact"``, ``"jaro_winkler"``,
            ``"token_jaccard"`` (word sets, order-insensitive) or
            ``"qgram"`` (2-gram sets, near-linear in length).
        max_chars: compare only the first ``max_chars`` characters
            (``None`` = whole value).
    """

    attribute: str
    weight: float
    comparator: str = "edit"
    max_chars: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        valid = ("edit", "exact", "jaro_winkler", "token_jaccard", "qgram")
        if self.comparator not in valid:
            raise ValueError(f"unknown comparator {self.comparator!r}")

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
        return _memo_compare(self.comparator, v1, v2)


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
        self.threshold = threshold
        self._cache: Optional[dict] = {} if cache else None

    def clear_cache(self) -> None:
        """Drop all memoized decisions."""
        if self._cache is not None:
            self._cache.clear()

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
            if rule.comparator in ("exact", "token_jaccard", "qgram"):
                continue
            v1, v2 = rule.values(e1, e2)
            chars += (len(v1) + len(v2)) / 2.0
            quadratic_rules += 1
        if quadratic_rules == 0:
            return MIN_COST_FACTOR
        factor = chars / (quadratic_rules * REFERENCE_LENGTH)
        return max(MIN_COST_FACTOR, factor)


def citeseer_matcher(threshold: float = 0.54, *, cache: bool = False) -> WeightedMatcher:
    """The paper's CiteSeerX match function: edit distance on title,
    abstract (first ≤ 350 chars) and venue."""
    return WeightedMatcher(
        rules=[
            AttributeRule("title", weight=0.5, comparator="edit"),
            AttributeRule("abstract", weight=0.3, comparator="edit", max_chars=350),
            AttributeRule("venue", weight=0.2, comparator="edit"),
        ],
        threshold=threshold,
        cache=cache,
    )


def books_matcher(threshold: float = 0.46, *, cache: bool = False) -> WeightedMatcher:
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
        threshold=threshold,
        cache=cache,
    )


def people_matcher(threshold: float = 0.62, *, cache: bool = False) -> WeightedMatcher:
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
        threshold=threshold,
        cache=cache,
    )


def linkage_matcher(threshold: float = 0.55, *, cache: bool = False) -> WeightedMatcher:
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
        threshold=threshold,
        cache=cache,
    )


__all__ = [
    "AttributeRule",
    "WeightedMatcher",
    "similarity_cache_counters",
    "clear_similarity_cache",
    "citeseer_matcher",
    "books_matcher",
    "people_matcher",
    "linkage_matcher",
    "REFERENCE_LENGTH",
    "MIN_COST_FACTOR",
]
