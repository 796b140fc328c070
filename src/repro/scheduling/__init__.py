"""Multi-tenant scheduling on the shared virtual-time slot pool.

The package lifts the one-job-at-a-time :class:`~repro.mapreduce.engine
.Cluster` into a shared cluster: :class:`JobScheduler` admits submissions
from many tenants (:class:`AdmissionPolicy` → :class:`AdmissionReceipt`),
dispatches their phases by weighted fair share with priority lanes over
one :class:`SharedSlotPool` timeline, and reports virtual-time latencies
(:class:`SchedulerReport`).  :func:`poisson_arrivals` generates the
seeded arrival traces the test harness and bench drive it with.

See ``docs/scheduling.md`` for the fair-share math, admission rules and
preemption points.
"""

from .admission import (
    REASON_OVER_BUDGET,
    REASON_QUEUE_FULL,
    AdmissionPolicy,
    AdmissionReceipt,
)
from .arrivals import Arrival, poisson_arrivals
from .pool import SLOT_KINDS, SharedSlotPool
from .report import JobOutcome, SchedulerReport, TenantUsage, percentile
from .scheduler import LANES, JobHandle, JobScheduler

__all__ = [
    "LANES",
    "REASON_OVER_BUDGET",
    "REASON_QUEUE_FULL",
    "SLOT_KINDS",
    "AdmissionPolicy",
    "AdmissionReceipt",
    "Arrival",
    "JobHandle",
    "JobOutcome",
    "JobScheduler",
    "SchedulerReport",
    "SharedSlotPool",
    "TenantUsage",
    "percentile",
    "poisson_arrivals",
]
