"""Edge cases for the assignment partitioner (Job 2's and the delta jobs').

It routes by a plan's assignment (Job 2's tree schedule, a delta plan),
not by hashing, so the interesting failures are plan mismatches: a key the
plan never assigned, and an assignment that lands outside the task range
(which the engine — not the partitioner — rejects, mirroring Hadoop's
partition validation).
"""

from __future__ import annotations

import pytest

from repro.mapreduce import AssignmentPartitioner, Cluster, MapReduceJob, Mapper, Reducer


class _EmitKey(Mapper):
    def map(self, record, context):
        context.emit(record, record)


class _Collect(Reducer):
    def reduce(self, key, values, context):
        context.write(key)


class TestSchedulePartitioner:
    """Job 2 routes each tree by its schedule's assignment."""

    def test_routes_by_assignment(self):
        partitioner = AssignmentPartitioner({"t0": 2, "t1": 0})
        assert partitioner.partition("t0", 4) == 2
        assert partitioner.partition("t1", 4) == 0

    def test_unknown_tree_is_rejected(self):
        partitioner = AssignmentPartitioner({"t0": 0})
        with pytest.raises(ValueError, match="no reduce-task assignment"):
            partitioner.partition("never-scheduled", 4)

    def test_out_of_range_assignment_rejected_by_engine(self):
        # A plan made for more tasks than the job runs with: the
        # partitioner faithfully returns the stale index and the engine's
        # range check refuses it.
        partitioner = AssignmentPartitioner({"t0": 7})
        job = MapReduceJob(_EmitKey, _Collect, partitioner=partitioner)
        with pytest.raises(ValueError, match="valid range"):
            Cluster(1).run_job(job, ["t0"], num_reduce_tasks=2)
