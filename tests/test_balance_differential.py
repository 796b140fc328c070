"""Differential oracle for the load-balancing subsystem.

Every balance strategy × execution backend × fault plan must resolve the
*same* duplicate pairs: placement and sharding change only where and when
work runs, never its logical output.  The oracle runs the full grid on a
skewed workload (one hub block holding most of the dataset) and asserts:

* found-pair sets are identical across all strategy × backend × fault
  cells;
* recall curves are bit-identical across backends within each
  (strategy, fault) cell — backends must not even reorder virtual time;
* fault injection is output-invariant under every strategy;
* final recall per virtual-time checkpoint is identical across strategies
  (strategies legitimately shift the *timing* of discoveries — that is
  the whole point — but the curve must end at the same recall, and each
  strategy's own curve must be reproducible bit-for-bit).

The grid also pins the non-vacuousness of the balancer: the global
``pairrange`` must actually shard the hub block, resolve its shards, and
beat whole-tree placement (``slack``, which cannot split a block) on this
workload.
"""

from __future__ import annotations

import pytest

from repro.core import skewed_config
from repro.core.balance import BALANCE_STRATEGIES, SHARD_SEP
from repro.core.driver import ProgressiveER
from repro.data.skewed import make_skewed
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import Cluster, FaultPlan, RetryPolicy
from repro.similarity import citeseer_matcher

MACHINES = 3  # 6 reduce tasks
BACKENDS = ("serial", "process")
FAULT_PLANS = {
    "clean": None,
    "faulty": FaultPlan(
        seed=99,
        fault_rate=0.15,
        retry=RetryPolicy(),
    ),
}


@pytest.fixture(scope="module")
def skewed_dataset():
    return make_skewed(420, seed=5, hub_fraction=0.6)


@pytest.fixture(scope="module")
def skewed_matcher():
    # A dedicated caching matcher: the id-keyed cache of the session-wide
    # shared matchers is only valid against their own dataset.
    return citeseer_matcher(cache=True)


@pytest.fixture(scope="module")
def skewed_cfg(skewed_matcher):
    return skewed_config(matcher=skewed_matcher)


@pytest.fixture(scope="module")
def grid(skewed_dataset, skewed_cfg):
    """All strategy × backend × fault runs, computed once per module."""
    runs = {}
    for balance in BALANCE_STRATEGIES:
        for backend in BACKENDS:
            for fault_name, plan in FAULT_PLANS.items():
                spec = RunSpec(
                    skewed_dataset,
                    skewed_cfg,
                    machines=MACHINES,
                    balance=balance,
                    backend=backend,
                    workers=2,
                    faults=plan,
                )
                runs[(balance, backend, fault_name)] = ExperimentRun(spec).run()
    return runs


class TestDifferentialOracle:
    def test_grid_is_complete(self, grid):
        assert len(grid) == len(BALANCE_STRATEGIES) * len(BACKENDS) * len(FAULT_PLANS)

    def test_found_pairs_identical_across_all_cells(self, grid):
        reference = grid[("slack", "serial", "clean")].found_pairs
        assert reference, "oracle is vacuous: the reference run found nothing"
        for cell, run in grid.items():
            assert run.found_pairs == reference, f"output diverged in {cell}"

    def test_recall_curves_bit_identical_across_backends(self, grid):
        for balance in BALANCE_STRATEGIES:
            for fault_name in FAULT_PLANS:
                serial = grid[(balance, "serial", fault_name)]
                process = grid[(balance, "process", fault_name)]
                assert serial.curve.times == process.curve.times
                assert serial.curve.recalls == process.curve.recalls
                assert serial.total_time == process.total_time

    def test_fault_injection_is_output_invariant(self, grid):
        for balance in BALANCE_STRATEGIES:
            clean = grid[(balance, "serial", "clean")]
            faulty = grid[(balance, "serial", "faulty")]
            assert faulty.found_pairs == clean.found_pairs
            # A faulty timeline can only stretch, never shrink.
            assert faulty.total_time >= clean.total_time

    def test_final_recall_identical_across_strategies(self, grid):
        reference = grid[("slack", "serial", "clean")].final_recall
        assert reference > 0
        for cell, run in grid.items():
            assert run.final_recall == reference, cell

    def test_duplicate_event_multisets_match_within_cells(self, grid):
        """Backends must agree on *when* each pair is found, not just which."""
        for balance in BALANCE_STRATEGIES:
            for fault_name in FAULT_PLANS:
                serial = grid[(balance, "serial", fault_name)]
                process = grid[(balance, "process", fault_name)]
                assert [
                    (e.time, e.payload) for e in serial.duplicate_events
                ] == [(e.time, e.payload) for e in process.duplicate_events]


class TestBlocksplitEffectiveness:
    """Shards run and every strategy reports its plan in the counters."""

    def test_shards_are_actually_resolved(self, grid):
        counters = grid[("pairrange", "serial", "clean")].result.job2.counters
        flat = counters.as_flat_dict()
        assert flat.get("driver.shards_resolved", 0) > 0

    def test_balance_counters_surface_in_job_counters(self, grid):
        for balance in BALANCE_STRATEGIES:
            flat = grid[(balance, "serial", "clean")].result.job2.counters.as_flat_dict()
            assert "balance.gini_before_milli" in flat
            assert "balance.planned_makespan_after_milli" in flat
            assert flat["balance.shards"] == (
                len(grid[(balance, "serial", "clean")].result.balance.shards)
            )

    def test_slack_leaves_schedule_untouched(self, grid):
        run = grid[("slack", "serial", "clean")]
        schedule = run.result.schedule
        assert not schedule.shards
        plan = run.result.balance
        assert plan.before == plan.after
        assert plan.moved_trees == 0


class TestGlobalPairrangeEffectiveness:
    def test_pairrange_shards_the_hub(self, grid):
        plan = grid[("pairrange", "serial", "clean")].result.balance
        assert plan.shards, "global cuts never landed inside the hub block"
        assert plan.split_blocks
        covered = {shard.block_uid for shard in plan.shards}
        assert covered == set(plan.split_blocks)

    def test_pairrange_beats_tree_granularity(self, grid):
        """The global enumeration must beat whole-tree placement
        decisively on the hub workload: ``slack`` cannot split the hub,
        so its reduce makespan stays hub-bound."""
        def reduce_span(run):
            job2 = run.result.job2
            return job2.end_time - job2.map_phase_end

        tree = reduce_span(grid[("slack", "serial", "clean")])
        global_ = reduce_span(grid[("pairrange", "serial", "clean")])
        assert global_ * 1.3 <= tree

    def test_pairrange_improves_planned_skew(self, grid):
        plan = grid[("pairrange", "serial", "clean")].result.balance
        assert plan.after.max < plan.before.max
        assert plan.after.max_over_mean < plan.before.max_over_mean


class TestScheduleIntegrity:
    def test_shard_keys_never_collide_with_block_uids(self, grid):
        schedule = grid[("pairrange", "serial", "clean")].result.schedule
        for key, shard in schedule.shards.items():
            assert SHARD_SEP in key
            assert key not in schedule.tree_of_block
            assert shard.block_uid in schedule.tree_of_block

    def test_unknown_strategy_rejected(self, skewed_cfg, skewed_dataset):
        er = ProgressiveER(skewed_cfg, Cluster(MACHINES), balance="bogus")
        with pytest.raises(ValueError, match="bogus"):
            er.run(skewed_dataset)
