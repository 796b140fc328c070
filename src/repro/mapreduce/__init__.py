"""A deterministic single-process MapReduce (Hadoop 1.x) simulator.

Provides the execution substrate the paper runs on: jobs with map /
partition / shuffle-sort / reduce phases, static map and reduce slots per
machine, per-task virtual clocks charged through an explicit cost model,
timestamped event streams, and incremental (every-α-cost-units) reduce
output.
"""

from .clock import CostModel, VirtualClock
from .counters import Counters
from .engine import Cluster
from .executors import (
    BACKENDS,
    DEFAULT_SERIAL_FLOOR,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from .faults import (
    FaultPlan,
    FaultScheduler,
    JobAbortedError,
    RetryPolicy,
    TaskSchedule,
)
from .io import results_available_at
from .job import (
    MapReduceJob,
    Mapper,
    Partitioner,
    AssignmentPartitioner,
    Reducer,
    TaskContext,
    split_input,
    stable_hash,
)
from .types import Event, JobResult, OutputFile, TaskResult

__all__ = [
    "CostModel",
    "VirtualClock",
    "Counters",
    "Cluster",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "make_executor",
    "DEFAULT_SERIAL_FLOOR",
    "BACKENDS",
    "FaultPlan",
    "FaultScheduler",
    "JobAbortedError",
    "RetryPolicy",
    "TaskSchedule",
    "MapReduceJob",
    "Mapper",
    "Reducer",
    "Partitioner",
    "AssignmentPartitioner",
    "TaskContext",
    "split_input",
    "stable_hash",
    "Event",
    "JobResult",
    "OutputFile",
    "TaskResult",
    "results_available_at",
]
