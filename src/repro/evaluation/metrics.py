"""Progressiveness metrics: recall curves, the Qty quality function
(Equation 1), and recall speedup (Figure 11)."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from ..data.dataset import Dataset
from ..data.entity import Pair
from ..mapreduce.types import Event


@dataclass
class RecallCurve:
    """Duplicate recall as a step function of execution time.

    ``times[i]`` is the moment the ``i``-th *correct* duplicate pair was
    reported; ``recalls[i]`` the recall right after.  The curve starts at
    (0, 0) implicitly.
    """

    times: List[float]
    recalls: List[float]
    num_true_pairs: int
    end_time: float

    @property
    def final_recall(self) -> float:
        """Recall at the end of the run."""
        return self.recalls[-1] if self.recalls else 0.0

    def recall_at(self, time: float) -> float:
        """Recall achieved by ``time``."""
        index = bisect.bisect_right(self.times, time)
        return self.recalls[index - 1] if index > 0 else 0.0

    def time_to(self, recall: float) -> Optional[float]:
        """Earliest time the curve reaches ``recall`` (None if it never does)."""
        index = bisect.bisect_left(self.recalls, recall)
        return self.times[index] if index < len(self.times) else None

    def sample(self, times: Sequence[float]) -> List[Tuple[float, float]]:
        """(time, recall) points at the requested times — bench output."""
        return [(t, self.recall_at(t)) for t in times]

    def area_under(self, horizon: Optional[float] = None) -> float:
        """Normalized area under the recall curve up to ``horizon`` —
        a scalar progressiveness score in [0, 1] (higher = more
        progressive)."""
        end = horizon if horizon is not None else self.end_time
        if end <= 0:
            return 0.0
        area = 0.0
        previous_time = 0.0
        previous_recall = 0.0
        for time, recall in zip(self.times, self.recalls):
            if time >= end:
                break
            area += (time - previous_time) * previous_recall
            previous_time, previous_recall = time, recall
        area += (end - previous_time) * previous_recall
        return area / end


def recall_curve(
    events: Sequence[Event], dataset: Dataset, *, end_time: Optional[float] = None
) -> RecallCurve:
    """Build the recall-versus-time curve from duplicate events.

    Only *correct* pairs (present in the ground truth) advance the curve;
    repeated reports of the same pair are ignored.
    """
    if not dataset.has_ground_truth:
        raise ValueError("recall needs a dataset with ground truth")
    true_pairs = dataset.true_pairs
    total = len(true_pairs)
    seen: Set[Pair] = set()
    times: List[float] = []
    recalls: List[float] = []
    last = 0.0
    for event in sorted(events, key=lambda e: e.time):
        last = max(last, event.time)
        pair = event.payload
        if pair in seen or pair not in true_pairs:
            continue
        seen.add(pair)
        times.append(event.time)
        recalls.append(len(seen) / total if total else 0.0)
    return RecallCurve(
        times=times,
        recalls=recalls,
        num_true_pairs=total,
        end_time=end_time if end_time is not None else last,
    )


def quality(
    events: Sequence[Event],
    dataset: Dataset,
    cost_samples: Sequence[float],
    weighting: Callable[[int, int], float],
) -> float:
    """``Qty(Result)`` — Equation 1.

    Args:
        events: duplicate events (payload = pair, time = cost).
        dataset: ground truth provider (defines ``N``).
        cost_samples: the sampled cost values ``C`` (increasing).
        weighting: ``W`` as a function of (interval index, |C|).

    Returns:
        the weighted, normalized quality in [0, 1].
    """
    if list(cost_samples) != sorted(cost_samples):
        raise ValueError("cost_samples must be increasing")
    true_pairs = dataset.true_pairs
    total = len(true_pairs)
    if total == 0:
        return 0.0
    seen: Set[Pair] = set()
    counts = [0] * len(cost_samples)
    for event in sorted(events, key=lambda e: e.time):
        pair = event.payload
        if pair in seen or pair not in true_pairs:
            continue
        seen.add(pair)
        index = bisect.bisect_left(cost_samples, event.time)
        if index < len(cost_samples):
            counts[index] += 1
    k = len(cost_samples)
    return sum(weighting(i, k) * counts[i] for i in range(k)) / total


def recall_speedup(
    reference: RecallCurve, candidate: RecallCurve, recall: float
) -> Optional[float]:
    """Figure 11's speedup: time the reference needs to reach ``recall``
    divided by the candidate's time (None when either never reaches it)."""
    t_ref = reference.time_to(recall)
    t_cand = candidate.time_to(recall)
    if t_ref is None or t_cand is None or t_cand <= 0:
        return None
    return t_ref / t_cand


__all__ = [
    "RecallCurve",
    "recall_curve",
    "quality",
    "recall_speedup",
]
