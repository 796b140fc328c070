"""Edit distance: two bit-parallel kernels behind one set of cheap exits.

The paper's match function compares attribute values with edit distance
(Levenshtein, Section VI-A2).  Every query, bounded or not, first goes
through the same **cheap exits** (:func:`_cheap_exits`): equal strings, the
common prefix and suffix (duplicates share long runs; neither affects the
distance), an empty side and a length gap already larger than the
caller's bound never reach a DP.  What survives goes to one of two
kernels:

* **Per-pair Myers with Ukkonen's cutoff** (:func:`levenshtein`, JACM
  1999) — a whole DP column lives in one Python integer, so each
  character of the longer string costs a handful of big-int operations
  instead of a cell loop.  The last-row score can fall by at most one per
  remaining column, so once it exceeds the bound by more than the columns
  left the answer is final and the loop stops.  An unbounded call is the
  same loop under a bound no distance can exceed, so passing a bound never
  makes a call slower.  This kernel serves the definition
  (``WeightedMatcher``), unbounded similarities, and groups too small to
  pack.
* **Packed Myers** (:func:`levenshtein_many`) — one column loop for a
  whole group of ``(a, b, bound)`` triples: in ``BatchMatcher``, the
  bounded survivors of one edit rule in one batch.  A Myers column step
  costs about the same on a Python int of a few thousand bits as on one
  of sixty, so the group's patterns share one word, one segment each, and
  a column step advances all of them at once.  Each segment keeps its own
  Ukkonen slack in its guard bits, so a segment the cutoff rules out, or
  whose text has ended, leaves the word.  It pays from :data:`_PACK_MIN`
  survivors on.
"""

from __future__ import annotations

from itertools import islice, repeat, zip_longest
from typing import Dict, Iterable, List, Optional, Tuple

#: Fewest DP survivors a :func:`levenshtein_many` group needs before it is
#: packed; a smaller group runs the per-pair kernel, which is cheaper
#: there.  Set on the books groups (short values, small groups), where
#: packing pays last: on the groups ``books_oneshot`` hands the kernel, a
#: 2-vCPU host took 1.05x the per-pair time with 6 and 0.91x with 8.
_PACK_MIN = 8

#: How often, in columns, the packed kernel looks for segments its cutoff
#: has ruled out.
_CHECK_EVERY = 16

#: Cumulative kernel work.  ``myers``: DP columns each pair actually
#: visited (a call that exits early books only the columns it got through,
#: a packed pair the columns its segment stayed in the word).  ``steps``:
#: column-loop iterations run, one per column of a per-pair call and one
#: per column of a whole packed group.  Cheap to maintain — one addition
#: per call, never per column — and the perf-smoke benches use them to
#: prove threshold propagation shrinks the work and packing shares it.
#: Wall-clock bookkeeping only: nothing in the package ever branches on
#: these values.
_DP_CELLS: Dict[str, int] = {"myers": 0, "steps": 0}


def dp_cell_counters() -> Dict[str, int]:
    """Snapshot of cumulative DP column visits and loop steps (this
    process)."""
    return dict(_DP_CELLS)


def reset_dp_cell_counters() -> None:
    """Zero the DP counters (benchmark hygiene)."""
    _DP_CELLS["myers"] = _DP_CELLS["steps"] = 0


def levenshtein(a: str, b: str, *, max_distance: Optional[int] = None) -> int:
    """Levenshtein distance between ``a`` and ``b``.

    With ``max_distance`` set, returns ``max_distance + 1`` as soon as the
    true distance is provably greater than the bound.
    """
    distance, a, b = _cheap_exits(a, b, max_distance)
    if distance is None:
        return _myers_dp(a, b, max_distance)
    return distance


def levenshtein_many(triples: Iterable[Tuple[str, str, int]]) -> List[int]:
    """``[levenshtein(a, b, max_distance=bound) for a, b, bound in
    triples]``: each answer is ``min(distance, bound + 1)``.

    Every triple takes the cheap exits on its own; the survivors run the
    packed kernel together, or the per-pair one when fewer than
    :data:`_PACK_MIN` are left.
    """
    out: List[int] = []
    pending: List[Tuple[int, int, str, str, int]] = []
    for a, b, bound in triples:
        distance, a, b = _cheap_exits(a, b, bound)
        if distance is None:
            pending.append((max(len(a), len(b)), len(out), a, b, bound))
            distance = 0
        out.append(distance)
    if len(pending) < _PACK_MIN:
        for _, k, a, b, bound in pending:
            out[k] = _myers_dp(a, b, bound)
        return out
    # Longest texts first (see _packed_myers); positions break ties.
    pending.sort(reverse=True)
    for (_, k, _, _, _), distance in zip(pending, _packed_myers(pending)):
        out[k] = distance
    return out


def _cheap_exits(
    a: str, b: str, bound: Optional[int]
) -> Tuple[Optional[int], str, str]:
    """``(answer, "", "")`` when ``a`` and ``b`` need no DP, else ``(None,
    a', b')``: both strings less their common prefix and suffix, neither
    empty, their length gap within ``bound``."""
    if a == b:
        return 0, "", ""
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
    if a and b:
        if bound is not None and abs(len(a) - len(b)) > bound:
            return bound + 1, "", ""
        return None, a, b
    distance = len(a) + len(b)  # one side is empty
    if bound is not None and distance > bound:
        distance = bound + 1
    return distance, "", ""


def _pattern_masks(pattern: str) -> Dict[str, int]:
    """Myers' ``peq``: per character, the bits of its positions in
    ``pattern``, lowest bit first."""
    peq: Dict[str, int] = {}
    bit = 1
    for ch in pattern:
        peq[ch] = peq.get(ch, 0) | bit
        bit <<= 1
    return peq


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
    peq = _pattern_masks(a)
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
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
    _DP_CELLS["steps"] += columns
    return bound - slack if slack >= 0 else bound + 1


def _packed_myers(pairs: List[Tuple[int, int, str, str, int]]) -> List[int]:
    """``min(distance, bound + 1)`` for every ``(_, _, a, b, bound)`` of
    ``pairs`` (both strings non-empty, longest text first), in one Myers
    column loop with Ukkonen's cutoff.

    Each pair's shorter string, its *pattern*, is one segment of the
    pattern word; above it sit zero guard bits up to a byte boundary, at
    least ``bit_length(3 * len(text))`` of them, so each segment starts on
    a byte.  Segments are stacked by text length, longest at the bottom.
    ``mask`` covers the live segments, ``low`` holds each one's lowest bit
    and ``last`` its highest.  A column step is the per-pair one on the
    whole word: the adder's carry out of a segment lands in its zero guard
    and is masked off, and ``low`` supplies each segment's ``+1`` on the
    ``hp`` shift.

    ``slack`` keeps each segment's Ukkonen slack (see :func:`_myers_dp`)
    in a field that starts at the segment's top bit and runs up its guard:
    a rise of the last-row score takes one from the field, a fall gives
    one back, and the field is ``bias + slack0 + falls - rises``, so the
    slack after ``j`` columns is the field less ``bias + j``.  Each
    field's ``bias`` is a power of two above three times its text's
    length, so no field ever borrows from or carries into the next one,
    and after subtracting ``j`` a field has its ``bias`` bit set exactly
    while its slack is not negative.  Every :data:`_CHECK_EVERY` columns,
    and when a text ends, segments whose slack went negative or whose text
    ended leave ``mask`` and ``last``; the loop stops when none is left.
    A segment's answer is ``bound - slack`` from its final field.

    The column words are built at C level: per pair, ``map`` looks each
    text character up in the pattern's byte masks; per column, the
    segments' bytes are joined, bottom first, and read as one integer.  A
    text that has ended contributes no bytes, which is why the segments
    above it must have ended too.
    """
    masks: Dict[Tuple[str, int], Dict[str, bytes]] = {}
    columns = []
    segments = []
    ends: Dict[int, List[int]] = {}
    offset = mask = low = last = slack = sentinels = 0
    for _, _, a, b, bound in pairs:
        if len(a) > len(b):
            a, b = b, a
        # The distance is at most the text's length, so a larger bound
        # changes no answer; clamped, slack0 is at most 2 * len(b).
        bound = min(bound, len(b))
        width = (3 * len(b)).bit_length()
        size = (len(a) + width + 7) >> 3
        top = offset + len(a) - 1
        segment = ((1 << len(a)) - 1) << offset
        sentinel = 1 << (top + width)
        mask |= segment
        low |= 1 << offset
        last |= 1 << top
        sentinels |= sentinel
        slack += sentinel + ((bound + len(b) - len(a)) << top)
        ends.setdefault(len(b), []).append(len(segments))
        segments.append((segment, top, sentinel, len(b), bound))
        peq = masks.get((a, size))
        if peq is None:
            bits = _pattern_masks(a)
            peq = masks[(a, size)] = dict(zip(
                bits, map(int.to_bytes, bits.values(), repeat(size), repeat("little"))
            ))
        columns.append(map(peq.get, b, repeat(bytes(size))))
        offset += 8 * size
    eqs = map(
        int.from_bytes,
        map(b"".join, zip_longest(*columns, fillvalue=b"")),
        repeat("little"),
    )
    checks = sorted(set(ends).union(range(_CHECK_EVERY, max(ends), _CHECK_EVERY)))
    live = set(range(len(segments)))
    vp = mask
    vn = done = 0
    for check in checks:
        for eq in islice(eqs, check - done):
            d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
            hp = vn | (mask ^ (d0 | vp))
            hn = d0 & vp
            slack += (hn & last) - (hp & last)
            hp = ((hp << 1) | low) & mask
            hn = (hn << 1) & mask
            vp = hn | (mask ^ (d0 | hp))
            vn = d0 & hp
        done = check
        leaving = live.intersection(ends.get(check, ()))
        dead = sentinels & ~(slack - check * last)
        if dead:
            for k in live:
                if segments[k][2] & dead:
                    leaving.add(k)
        for k in leaving:
            segment, top, sentinel, _, _ = segments[k]
            mask ^= segment
            last ^= 1 << top
            sentinels ^= sentinel
        live -= leaving
        _DP_CELLS["myers"] += check * len(leaving)
        if not live:
            break
    _DP_CELLS["steps"] += done
    out = []
    for _, top, sentinel, text, bound in segments:
        bias = sentinel >> top
        final = ((slack >> top) & (2 * bias - 1)) - bias - text
        out.append(bound - final if final >= 0 else bound + 1)
    return out


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
    "levenshtein_many",
    "edit_similarity",
    "distance_budget",
    "dp_cell_counters",
    "reset_dp_cell_counters",
]
