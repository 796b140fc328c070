"""Phase-scoped counter snapshots.

Hadoop prints its job counters once, at job end; diagnosing a progressive
run needs them *per phase* (how much did the map side emit before the
shuffle? how many comparisons did the reduce side actually pay for?) and
from sources the job counters never see — the executor's wall-clock and
IPC statistics, the balancer's report, the scheduler's.

A :class:`MetricsRegistry` collects :class:`MetricsSnapshot` records, each
a flattened ``{"group.name": value}`` view (see
:meth:`repro.mapreduce.counters.Counters.as_flat_dict`) taken at a named
point: the engine snapshots cumulative job counters at the end of each
phase, and :class:`~repro.evaluation.experiment.ExperimentRun` adds a
balance snapshot per run.

Counter values are deterministic across execution backends; the
executor's ``driver.*`` statistics (pool forks, wire bytes, idle time)
are not, which is why they live here and never inside job counters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple, Union

from ..mapreduce.counters import Counters

#: What ``snapshot`` accepts: job counters or an already-flat mapping.
CounterSource = Union[Counters, Mapping[str, int], None]


@dataclass(frozen=True)
class MetricsSnapshot:
    """One named counter snapshot plus free-form annotations."""

    scope: str
    counters: Tuple[Tuple[str, int], ...]
    extra: Tuple[Tuple[str, Any], ...] = ()

    def as_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"scope": self.scope, "counters": dict(self.counters)}
        entry.update(dict(self.extra))
        return entry

    def get(self, flat_name: str, default: int = 0) -> int:
        """Value of one flattened counter (``"group.name"``)."""
        for name, value in self.counters:
            if name == flat_name:
                return value
        return default


class MetricsRegistry:
    """Append-only list of snapshots, labeled per experiment run."""

    def __init__(self) -> None:
        self.snapshots: List[MetricsSnapshot] = []
        self._run_label = ""

    def begin_run(self, label: str) -> None:
        """Prefix subsequent snapshot scopes with ``label``."""
        self._run_label = label

    def snapshot(self, scope: str, counters: CounterSource = None, **extra: Any) -> None:
        """Record ``counters`` (flattened) under ``scope``.

        ``extra`` keyword annotations (backend name, task counts, phase end
        times, …) are stored alongside and exported verbatim.
        """
        if isinstance(counters, Counters):
            flat: Mapping[str, int] = counters.as_flat_dict()
        else:
            flat = dict(counters) if counters else {}
        if self._run_label:
            scope = f"{self._run_label}:{scope}"
        self.snapshots.append(
            MetricsSnapshot(
                scope=scope,
                counters=tuple(sorted(flat.items())),
                extra=tuple(sorted(extra.items())),
            )
        )

    # -- queries / export ----------------------------------------------

    def scoped(self, scope: str) -> List[MetricsSnapshot]:
        """All snapshots whose scope equals or ends with ``scope``."""
        return [
            s
            for s in self.snapshots
            if s.scope == scope or s.scope.endswith(f":{scope}")
        ]

    def as_dict(self) -> Dict[str, Any]:
        return {"snapshots": [s.as_dict() for s in self.snapshots]}

    def write_json(self, path: str) -> None:
        """Write every snapshot as one pretty-printed JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def __len__(self) -> int:
        return len(self.snapshots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry(snapshots={len(self.snapshots)})"


__all__ = ["MetricsSnapshot", "MetricsRegistry", "CounterSource"]
