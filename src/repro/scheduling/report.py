"""Typed results of a scheduler trace: outcomes, usage, percentiles.

Everything here is derived from virtual-time quantities, so a report is
bit-identical across execution backends for a fixed arrival trace — the
golden fixture and the bench serialize it via :meth:`SchedulerReport.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]).

    Matches numpy's default method, implemented locally so the bench and
    report never depend on numpy being present.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True)
class JobOutcome:
    """One submission's fate on the shared timeline."""

    job: str
    tenant: str
    lane: str
    decision: str
    reason: Optional[str]
    arrival: float
    started_at: Optional[float]
    finished_at: Optional[float]
    wait_total: float
    latency: Optional[float]
    slot_seconds: float
    grants: int
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job": self.job,
            "tenant": self.tenant,
            "lane": self.lane,
            "decision": self.decision,
            "reason": self.reason,
            "arrival": round(self.arrival, 9),
            "started_at": _opt_round(self.started_at),
            "finished_at": _opt_round(self.finished_at),
            "wait_total": round(self.wait_total, 9),
            "latency": _opt_round(self.latency),
            "slot_seconds": round(self.slot_seconds, 9),
            "grants": self.grants,
            "error": self.error,
        }


@dataclass(frozen=True)
class TenantUsage:
    """Per-tenant fair-share accounting over the whole trace."""

    name: str
    weight: float
    vtime: float
    slot_seconds: float
    submitted: int
    completed: int
    rejected: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "weight": self.weight,
            "vtime": round(self.vtime, 9),
            "slot_seconds": round(self.slot_seconds, 9),
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": self.rejected,
        }


@dataclass
class SchedulerReport:
    """Everything a scheduler run decided and measured."""

    policy: str
    outcomes: List[JobOutcome]
    tenants: List[TenantUsage]
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    makespan: float = 0.0
    busy: Dict[str, float] = field(default_factory=dict)

    @property
    def queue_depth_peak(self) -> int:
        """Most phase requests ever simultaneously pending."""
        return max((len(d["candidates"]) for d in self.decisions), default=0)

    def latencies(self, lane: Optional[str] = None) -> List[float]:
        return [
            o.latency
            for o in self.outcomes
            if o.latency is not None and (lane is None or o.lane == lane)
        ]

    def latency_percentiles(
        self, lane: Optional[str] = None
    ) -> Optional[Dict[str, float]]:
        """``{"p50": ..., "p99": ...}`` over finished jobs, or ``None``."""
        values = self.latencies(lane)
        if not values:
            return None
        return {
            "p50": round(percentile(values, 50.0), 9),
            "p99": round(percentile(values, 99.0), 9),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "policy": self.policy,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "tenants": [t.to_dict() for t in self.tenants],
            "makespan": round(self.makespan, 9),
            "busy": {k: round(v, 9) for k, v in sorted(self.busy.items())},
            "queue_depth_peak": self.queue_depth_peak,
            "latency": {
                lane: self.latency_percentiles(lane)
                for lane in ("interactive", "batch")
            },
        }


def _opt_round(value: Optional[float]) -> Optional[float]:
    return None if value is None else round(value, 9)


__all__ = ["JobOutcome", "SchedulerReport", "TenantUsage", "percentile"]
