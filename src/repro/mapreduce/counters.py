"""Hadoop-style counters for the MapReduce simulator."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Tuple


class Counters:
    """A two-level (group, name) -> integer counter map.

    Mirrors Hadoop's job counters: tasks increment local counters and the
    engine aggregates them into the job result.

    Counter groups are namespaced by the layer that owns them:

    * ``engine.*`` — framework bookkeeping incremented by the engine
      itself (``map_records``, ``map_emitted``, ``map_retries``,
      ``combine_input``, ``combine_output``, ``reduce_groups``,
      ``reduce_records``, ``reduce_retries``);
    * ``driver.*`` — ER-pipeline counters incremented inside tasks
      (``blocks_resolved``, ``duplicates``, ``stat_blocks``);
    * ``fault.*`` — fault-injection statistics per phase, incremented by
      the engine when a :class:`~repro.mapreduce.faults.FaultPlan` is
      attached (``{map,reduce}_failed_attempts``, ``_retries``,
      ``_speculative_launched``, ``_speculative_wins``,
      ``_speculative_failed``, ``_killed_attempts``,
      ``_blacklisted_slots``).  Only non-zero values are ever recorded,
      so a fault-free run carries no ``fault.*`` keys at all.

    Jobs may add their own groups freely; the namespaces above are
    reserved for the framework.
    """

    def __init__(self) -> None:
        self._values: Dict[Tuple[str, str], int] = defaultdict(int)

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``(group, name)``."""
        self._values[(group, name)] += amount

    def get(self, group: str, name: str) -> int:
        """Current value of ``(group, name)`` (0 if never incremented)."""
        return self._values.get((group, name), 0)

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one."""
        for key, value in other._values.items():
            self._values[key] += value

    def items(self) -> Iterable[Tuple[Tuple[str, str], int]]:
        """Iterate ``((group, name), value)`` pairs."""
        return self._values.items()

    def as_dict(self) -> Dict[Tuple[str, str], int]:
        """Snapshot of all counters."""
        return dict(self._values)

    def as_flat_dict(self) -> Dict[str, int]:
        """Snapshot keyed ``"group.name"``, sorted — the JSON-export shape
        used by the metrics registry."""
        return {
            f"{group}.{name}": value
            for (group, name), value in sorted(self._values.items())
        }

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{g}.{n}={v}" for (g, n), v in sorted(self._values.items()))
        return f"Counters({inner})"
