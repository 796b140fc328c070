"""Edge cases for the Job-2 partitioner.

It routes by the *schedule*, not by hashing, so the interesting failures
are schedule mismatches: a tree the schedule never assigned, and an
assignment that lands outside the task range (which the engine — not the
partitioner — rejects, mirroring Hadoop's partition validation).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.driver import SchedulePartitioner
from repro.mapreduce import Cluster, MapReduceJob, Mapper, Reducer


def _schedule(**attrs):
    """The minimal schedule surface the partitioner reads."""
    return SimpleNamespace(**attrs)


class _EmitKey(Mapper):
    def map(self, record, context):
        context.emit(record, record)


class _Collect(Reducer):
    def reduce(self, key, values, context):
        context.write(key)


class TestSchedulePartitioner:
    def test_routes_by_assignment(self):
        partitioner = SchedulePartitioner(_schedule(assignment={"t0": 2, "t1": 0}))
        assert partitioner.partition("t0", 4) == 2
        assert partitioner.partition("t1", 4) == 0

    def test_unknown_tree_is_rejected(self):
        partitioner = SchedulePartitioner(_schedule(assignment={"t0": 0}))
        with pytest.raises(ValueError, match="no reduce-task assignment"):
            partitioner.partition("never-scheduled", 4)

    def test_out_of_range_assignment_rejected_by_engine(self):
        # A schedule built for more tasks than the job runs with: the
        # partitioner faithfully returns the stale index and the engine's
        # range check refuses it.
        partitioner = SchedulePartitioner(_schedule(assignment={"t0": 7}))
        job = MapReduceJob(_EmitKey, _Collect, partitioner=partitioner)
        with pytest.raises(ValueError, match="valid range"):
            Cluster(1).run_job(job, ["t0"], num_reduce_tasks=2)
