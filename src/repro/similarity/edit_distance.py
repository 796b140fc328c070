"""Edit distance: one bit-parallel kernel for every call.

The paper's match function compares attribute values with edit distance
(Levenshtein, Section VI-A2).  :func:`levenshtein` answers every query,
bounded or not, the same way:

* **Cheap exits** — equal strings, the common prefix and suffix
  (duplicates share long runs; neither affects the distance) and a length
  gap already larger than the caller's bound never reach the DP.
* **Myers' bit-parallel kernel** (JACM 1999) — a whole DP column lives in
  one Python integer, so each character of the longer string costs a
  handful of big-int operations instead of a cell loop.
* **Ukkonen's cutoff** — the last-row score can fall by at most one per
  remaining column, so once it exceeds the bound by more than the columns
  left the answer is final and the loop stops.  An unbounded call is the
  same loop under a bound no distance can exceed, so passing a bound never
  makes a call slower.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Cumulative kernel work in DP columns actually visited (a call that exits
#: early books only the columns it got through).  Cheap to maintain — one
#: addition per call, never per column — and the perf-smoke bench uses it
#: to prove threshold propagation shrinks the work.  Wall-clock bookkeeping
#: only: nothing in the package ever branches on these values.
_DP_CELLS: Dict[str, int] = {"myers": 0}


def dp_cell_counters() -> Dict[str, int]:
    """Snapshot of cumulative DP column visits (this process)."""
    return dict(_DP_CELLS)


def reset_dp_cell_counters() -> None:
    """Zero the DP column-visit counter (benchmark hygiene)."""
    _DP_CELLS["myers"] = 0


def levenshtein(a: str, b: str, *, max_distance: Optional[int] = None) -> int:
    """Levenshtein distance between ``a`` and ``b``.

    With ``max_distance`` set, returns ``max_distance + 1`` as soon as the
    true distance is provably greater than the bound.
    """
    if a == b:
        return 0
    # Strip the common prefix and suffix; they never affect the distance.
    start = 0
    limit = min(len(a), len(b))
    while start < limit and a[start] == b[start]:
        start += 1
    end_a, end_b = len(a), len(b)
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if not a:
        return _bounded(len(b), max_distance)
    if not b:
        return _bounded(len(a), max_distance)
    if max_distance is not None and abs(len(a) - len(b)) > max_distance:
        return max_distance + 1
    return _myers_dp(a, b, max_distance)


def _bounded(distance: int, max_distance: Optional[int]) -> int:
    """Clamp a known distance to the caller's bound convention."""
    if max_distance is not None and distance > max_distance:
        return max_distance + 1
    return distance


def _myers_dp(a: str, b: str, bound: Optional[int] = None) -> int:
    """Myers' bit-parallel Levenshtein (JACM '99) with Ukkonen's cutoff.

    Both strings non-empty.  The shorter one is the pattern, encoded as one
    bitmask per character; the vertical delta vectors ``vp`` / ``vn`` live
    in single Python integers, so long patterns transparently use big-int
    words with no code change.  Returns ``min(distance, bound + 1)``.

    ``slack`` is ``(bound - score) + columns left``: the final score is at
    least ``score - columns left``, so a negative slack proves the distance
    exceeds the bound.  ``score <= max(len(a), column)`` keeps it
    non-negative throughout when the bound is ``len(b)`` — the unbounded
    call.
    """
    if len(a) > len(b):
        a, b = b, a
    if bound is None:
        bound = len(b)
    peq: Dict[str, int] = {}
    bit = 1
    for ch in a:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp = mask
    vn = 0
    slack = bound + len(b) - len(a)
    for columns, ch in enumerate(b, start=1):
        eq = peq.get(ch, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
        hp = vn | (mask ^ (d0 | vp))
        hn = d0 & vp
        if hp & last:  # score rose
            slack -= 2
            if slack < 0:
                break
        elif not hn & last:  # score held; a fall leaves slack unchanged
            slack -= 1
            if slack < 0:
                break
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (mask ^ (d0 | hp))
        vn = d0 & hp
    _DP_CELLS["myers"] += columns
    return bound - slack if slack >= 0 else bound + 1


def distance_budget(floor: float, longest: int) -> int:
    """Largest edit distance that keeps ``1 - d / longest >= floor``.

    Truncation makes the bound safe to test strictly: any distance
    ``d > budget`` satisfies ``d >= budget + 1 > (1 - floor) * longest`` and
    therefore ``1 - d / longest < floor`` — a bounded call that overflows
    the budget is genuinely below the floor.
    """
    return int((1.0 - floor) * longest)


def edit_similarity(a: str, b: str) -> float:
    """Normalized edit similarity ``1 - dist / max(len)`` in [0, 1].

    Empty-vs-empty compares as 1.0; empty-vs-nonempty as 0.0.
    """
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


__all__ = [
    "levenshtein",
    "edit_similarity",
    "distance_budget",
    "dp_cell_counters",
    "reset_dp_cell_counters",
]
