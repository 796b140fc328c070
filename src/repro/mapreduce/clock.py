"""Virtual time for the MapReduce simulator.

The paper evaluates progressiveness as *duplicate recall versus execution
time* on a real Hadoop cluster.  This reproduction replaces wall-clock time
with deterministic virtual time: every task owns a :class:`VirtualClock`
that is charged through an explicit :class:`CostModel`.  One cost unit is
one resolve/match invocation on strings of reference length, so curves
are comparable across approaches and machines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Sequence


@dataclass(frozen=True)
class CostModel:
    """Unit costs charged to task clocks.

    All costs are expressed in abstract *cost units*; the benchmarks report
    them as "time".  The defaults make a pair comparison the dominant cost,
    matching the paper's observation that the resolve/match function is
    compute-intensive while I/O and sorting are comparatively cheap but not
    negligible (sorting overhead is what separates ``w = 5`` from ``w = 15``
    in Figure 8).

    Attributes:
        compare: cost of one resolve/match invocation on a pair of entities
            of reference attribute length.  Length-sensitive matchers scale
            this by actual string lengths.
        read_record: cost of reading one input record in a map task.
        emit_pair: cost of emitting one key-value pair from a map task.
        shuffle_record: per-record cost of moving a record through the
            shuffle into a reduce task (network + deserialize).
        sort_item: coefficient of the ``n * log2(n)`` charge for sorting
            ``n`` items (hint generation in SN/PSNM, shuffle sort).
        hint_setup: flat cost of initializing a hint for one block.
        schedule_block: per-block cost of progressive schedule generation
            (charged during the setup of Job 2's map tasks).
        stat_record: per-record cost of the statistics (first) job's reduce
            work.
    """

    compare: float = 1.0
    read_record: float = 0.01
    emit_pair: float = 0.005
    shuffle_record: float = 0.005
    sort_item: float = 0.02
    hint_setup: float = 0.5
    schedule_block: float = 0.05
    stat_record: float = 0.005

    def sort_cost(self, n: int) -> float:
        """Cost of comparison-sorting ``n`` items."""
        if n <= 1:
            return 0.0
        return self.sort_item * n * math.log2(n)


@dataclass
class VirtualClock:
    """A monotone per-task cost accumulator.

    ``now`` is the local elapsed virtual time of the owning task; the engine
    converts it to global time by adding the task's start offset.
    """

    now: float = 0.0

    def charge(self, units: float) -> float:
        """Advance the clock by ``units`` (finite and non-negative).

        Returns the new local time, which callers use to timestamp events.
        """
        if not 0.0 <= units < math.inf:
            raise ValueError(f"a charge must be finite and >= 0, got {units!r}")
        self.now += units
        return self.now

    def charge_each(self, units: Sequence[float]) -> List[float]:
        """Charge every entry of ``units`` in order; the local time after
        each one.

        The same additions in the same order as one :meth:`charge` per
        entry, so the times are bit-identical to theirs.  Validated before
        anything moves: a negative, NaN or infinite entry (or a sum that
        overflows) raises ``ValueError`` and leaves the clock as it was.
        """
        times = list(accumulate(units, initial=self.now))
        del times[0]
        if times and not (0.0 <= min(units) and times[-1] < math.inf):
            raise ValueError("every charge must be finite and >= 0")
        if times:
            self.now = times[-1]
        return times
