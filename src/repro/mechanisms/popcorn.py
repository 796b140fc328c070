"""The popcorn stopping scheme [Whang et al. '13].

Section VI-B1: "The popcorn scheme terminates the mechanism M on the block
at hand when the rate of the newly identified duplicate pairs drops below
the specified threshold."

Implemented as a barren-run detector: if more than ``1 / threshold``
consecutive comparisons pass without a new duplicate, the instantaneous
duplicate rate has provably dropped below ``threshold`` and the block is
abandoned.  This maps the paper's threshold scale monotonically —
``0.1`` stops after 10 barren comparisons (very aggressive, low final
recall), ``0.00001`` after 100 000 (effectively resolves small blocks to
completion, like Basic F).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .base import ResolveStats, StopCondition


class PopcornCondition(StopCondition):
    """Stop when the duplicate-detection rate falls below ``threshold``."""

    def __init__(self, threshold: float) -> None:
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"popcorn threshold must be in (0, 1), got {threshold}")
        self.threshold = threshold
        #: comparisons allowed without a duplicate before stopping.
        self.barren_limit = math.ceil(1.0 / threshold)
        self._barren = 0

    def should_stop(self, stats: ResolveStats, was_duplicate: bool) -> bool:
        if was_duplicate:
            self._barren = 0
            return False
        self._barren += 1
        return self._barren >= self.barren_limit

    def first_stop(self, stats: ResolveStats, outcomes: Sequence[bool]) -> Optional[int]:
        # Each barren stretch between duplicates adds to the count a
        # duplicate resets; the check fires on the outcome that brings it
        # to the limit (on the next barren one if it is there already).
        start = 0
        while start < len(outcomes):
            try:
                hit = outcomes.index(True, start)
            except ValueError:
                hit = len(outcomes)
            needed = max(self.barren_limit - self._barren, 1)
            if hit - start >= needed:
                self._barren += needed
                return start + needed - 1
            self._barren = 0 if hit < len(outcomes) else self._barren + hit - start
            start = hit + 1
        return None

    def reset(self) -> None:
        """Re-arm the detector for the next block."""
        self._barren = 0


__all__ = ["PopcornCondition"]
