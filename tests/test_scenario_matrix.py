"""Cross-scenario differential matrix: the pin for linkage + meta-blocking.

The oracle runs the full scenario grid

    {dirty, linkage} x {off, bf} x {serial, process}
                     x {slack, pairrange} x {clean, faulty}

once per module (32 pipeline runs on small datasets) and asserts the
properties that make the two new subsystems safe to compose with
everything that already exists:

* **Backend determinism.**  Within every (scenario, metablock, balance,
  fault) cell, serial and process backends produce bit-identical recall
  curves — virtual clocks, not just found-pair sets, must agree.
* **Placement/fault invariance.**  Within every (scenario, metablock)
  pair, found-pair sets are identical across balance strategies and
  fault plans: meta-blocking changes *which* pairs are candidates, but
  balance and faults still change only where and when work runs.
* **Linkage purity.**  In the linkage scenario every found pair is
  cross-source — the clean-clean predicate holds through blocking,
  scheduling, balancing, sharding and fault retries alike.
* **Meta-blocking containment.**  ``bf`` output is a subset of ``off``
  output within each scenario, with pair recall >= 0.95, and the run
  carries the pruning summary in its Job 2 counters.  ``wnp`` — whose
  subset property is structural (pruned pairs consume DistinctBudget) —
  is pinned on serial cells on top of the grid.
* **Why ``bf`` can add pairs.**  At 600 books ``bf`` finds pairs ``off``
  does not; with every root resolved whole it finds none, so the fixed
  root window adds them, not the filter.

Grid sizes are deliberately small; scale lives in the benchmarks.
"""

from __future__ import annotations

import pytest

from repro.baselines import BasicConfig, MrsnConfig, MultiPassMRSN
from repro.core import LevelPolicy, books_config, linkage_config
from repro.data import make_books, make_linkage
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import Cluster, FaultPlan, RetryPolicy
from repro.similarity import books_matcher, linkage_matcher

MACHINES = 3
BACKENDS = ("serial", "process")
BALANCES = ("slack", "pairrange")
METABLOCKS = ("off", "bf")
SCENARIOS = ("dirty", "linkage")
FAULT_PLANS = {
    "clean": None,
    "faulty": FaultPlan(
        seed=23,
        fault_rate=0.15,
        retry=RetryPolicy(),
    ),
}

#: ceil(0.8 * 3) = 3 keeps every block of a 3-family scheme, so the
#: default ratio is a no-op there; 0.5 keeps 2 of 3 and actually prunes.
BF_RATIO = 0.5


@pytest.fixture(scope="module")
def datasets():
    return {
        "dirty": make_books(300, seed=11),
        "linkage": make_linkage(300, seed=13),
    }


@pytest.fixture(scope="module")
def configs():
    # Dedicated caching matchers: the id-keyed caches of the session-wide
    # shared matchers are only valid against their own dataset.
    return {
        "dirty": books_config(
            matcher=books_matcher(cache=True), metablock_ratio=BF_RATIO
        ),
        "linkage": linkage_config(
            matcher=linkage_matcher(cache=True), metablock_ratio=BF_RATIO
        ),
    }


@pytest.fixture(scope="module")
def grid(datasets, configs):
    """The full 32-cell scenario matrix, computed once per module."""
    runs = {}
    for scenario in SCENARIOS:
        for metablock in METABLOCKS:
            for backend in BACKENDS:
                for balance in BALANCES:
                    for fault_name, plan in FAULT_PLANS.items():
                        spec = RunSpec(
                            datasets[scenario],
                            configs[scenario],
                            machines=MACHINES,
                            balance=balance,
                            backend=backend,
                            workers=2,
                            faults=plan,
                            metablock=metablock,
                        )
                        cell = (scenario, metablock, backend, balance, fault_name)
                        runs[cell] = ExperimentRun(spec).run()
    return runs


@pytest.fixture(scope="module")
def wnp_runs(datasets, configs):
    """Serial wnp runs per scenario (structural-subset pin on top of
    the grid; the grid itself covers off and bf)."""
    runs = {}
    for scenario in SCENARIOS:
        spec = RunSpec(
            datasets[scenario],
            configs[scenario],
            machines=MACHINES,
            metablock="wnp",
        )
        runs[scenario] = ExperimentRun(spec).run()
    return runs


class TestGridShape:
    def test_grid_is_complete(self, grid):
        expected = (
            len(SCENARIOS) * len(METABLOCKS) * len(BACKENDS)
            * len(BALANCES) * len(FAULT_PLANS)
        )
        assert len(grid) == expected == 32

    def test_no_cell_is_vacuous(self, grid):
        for cell, run in grid.items():
            assert run.found_pairs, f"cell {cell} found nothing"


class TestBackendDeterminism:
    def test_recall_curves_bit_identical_across_backends(self, grid):
        for scenario in SCENARIOS:
            for metablock in METABLOCKS:
                for balance in BALANCES:
                    for fault_name in FAULT_PLANS:
                        serial = grid[(scenario, metablock, "serial", balance, fault_name)]
                        process = grid[(scenario, metablock, "process", balance, fault_name)]
                        cell = (scenario, metablock, balance, fault_name)
                        assert serial.curve.times == process.curve.times, cell
                        assert serial.curve.recalls == process.curve.recalls, cell
                        assert serial.total_time == process.total_time, cell

    def test_duplicate_event_streams_match_across_backends(self, grid):
        for scenario in SCENARIOS:
            for metablock in METABLOCKS:
                for balance in BALANCES:
                    for fault_name in FAULT_PLANS:
                        serial = grid[(scenario, metablock, "serial", balance, fault_name)]
                        process = grid[(scenario, metablock, "process", balance, fault_name)]
                        assert [
                            (e.time, e.payload) for e in serial.duplicate_events
                        ] == [(e.time, e.payload) for e in process.duplicate_events]


class TestPlacementAndFaultInvariance:
    def test_found_pairs_identical_across_balance_and_faults(self, grid):
        for scenario in SCENARIOS:
            for metablock in METABLOCKS:
                reference = grid[
                    (scenario, metablock, "serial", "slack", "clean")
                ].found_pairs
                for backend in BACKENDS:
                    for balance in BALANCES:
                        for fault_name in FAULT_PLANS:
                            cell = (scenario, metablock, backend, balance, fault_name)
                            assert grid[cell].found_pairs == reference, (
                                f"output diverged in {cell}"
                            )

    def test_faults_only_stretch_timelines(self, grid):
        for scenario in SCENARIOS:
            for metablock in METABLOCKS:
                for balance in BALANCES:
                    clean = grid[(scenario, metablock, "serial", balance, "clean")]
                    faulty = grid[(scenario, metablock, "serial", balance, "faulty")]
                    assert faulty.total_time >= clean.total_time


class TestLinkagePurity:
    def test_every_found_pair_is_cross_source(self, grid, datasets):
        source_of = {e.id: e.source for e in datasets["linkage"].entities}
        for cell, run in grid.items():
            if cell[0] != "linkage":
                continue
            for a, b in run.found_pairs:
                assert source_of[a] != source_of[b], (
                    f"same-source pair ({a}, {b}) escaped in {cell}"
                )

    def test_linkage_sources_are_tagged(self, datasets):
        sources = {e.source for e in datasets["linkage"].entities}
        assert sources == {"a", "b"}

    def test_dirty_entities_are_untagged(self, datasets):
        assert all(e.source is None for e in datasets["dirty"].entities)

    def test_linkage_recall_is_high(self, grid):
        run = grid[("linkage", "off", "serial", "slack", "clean")]
        assert run.final_recall >= 0.9

    def test_linkage_comparisons_skip_same_source(self, grid):
        flat = grid[
            ("linkage", "off", "serial", "slack", "clean")
        ].result.job2.counters.as_flat_dict()
        assert flat.get("resolve.pairs_filtered", 0) > 0

    @pytest.mark.parametrize(
        "run",
        [
            lambda ds, config: ExperimentRun(RunSpec(ds, config, machines=MACHINES)).run(),
            lambda ds, config: ExperimentRun(
                RunSpec(ds, BasicConfig(config), machines=MACHINES)
            ).run(),
            lambda ds, config: ExperimentRun(
                RunSpec(ds, BasicConfig(config, popcorn_threshold=0.01), machines=MACHINES)
            ).run(),
            lambda ds, config: MultiPassMRSN(MrsnConfig(config), Cluster(MACHINES)).run(ds),
        ],
        ids=["ours", "basic-F", "basic-0.01", "mrsn"],
    )
    def test_every_approach_reports_only_cross_source_pairs(self, run):
        # One pair universe: the baselines read the mode from the same
        # config as ours.  On this dataset the matcher accepts same-source
        # pairs the baselines' windows meet: a Basic F or MR-SN run that
        # ignored the mode would report 9 of them.
        dataset = make_linkage(600, seed=1)
        found = run(dataset, linkage_config(matcher=linkage_matcher(cache=True))).found_pairs
        source_of = {e.id: e.source for e in dataset.entities}
        assert found
        assert all(source_of[a] != source_of[b] for a, b in found)


class TestMetablockContainment:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_bf_output_is_a_subset_of_off(self, grid, scenario):
        off = grid[(scenario, "off", "serial", "slack", "clean")].found_pairs
        bf = grid[(scenario, "bf", "serial", "slack", "clean")].found_pairs
        assert bf <= off

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_bf_pair_recall_at_least_95_percent(self, grid, scenario):
        off = grid[(scenario, "off", "serial", "slack", "clean")].found_pairs
        bf = grid[(scenario, "bf", "serial", "slack", "clean")].found_pairs
        assert len(bf) >= 0.95 * len(off), (
            f"{scenario}: bf kept {len(bf)}/{len(off)} pairs"
        )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_bf_actually_prunes(self, grid, scenario):
        plan = grid[(scenario, "bf", "serial", "slack", "clean")].result.metablock
        assert plan is not None and plan.mode == "bf"
        assert plan.memberships_kept < plan.memberships_total
        assert plan.pairs_kept < plan.pairs_total

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_wnp_output_is_a_subset_of_off(self, grid, wnp_runs, scenario):
        off = grid[(scenario, "off", "serial", "slack", "clean")].found_pairs
        assert wnp_runs[scenario].found_pairs <= off

    def test_off_runs_carry_no_metablock_plan(self, grid):
        run = grid[("dirty", "off", "serial", "slack", "clean")]
        assert run.result.metablock is None

    def test_metablock_counters_surface_in_job_counters(self, grid):
        flat = grid[
            ("dirty", "bf", "serial", "slack", "clean")
        ].result.job2.counters.as_flat_dict()
        assert flat.get("metablock.memberships_pruned", 0) > 0
        assert flat.get("metablock.pairs_pruned", 0) > 0

    def test_metablock_runs_are_labeled(self, grid):
        assert grid[("dirty", "bf", "serial", "slack", "clean")].label == "ours[ours+bf]"
        assert grid[("dirty", "off", "serial", "slack", "clean")].label == "ours[ours]"


class TestBlockFilteringAddsNoPairsOfItsOwn:
    """Block filtering drops each entity from its largest level-1 block.
    The shrunk block sorts the kept members closer together, so a fixed
    root window of 15 reaches neighbours it did not reach in the whole
    block: that is where ``bf``'s extra pairs come from.  A root window as
    wide as the dataset resolves every root whole, and the extra pairs
    are gone."""

    @staticmethod
    def _pairs_only_bf_finds(**overrides):
        dataset = make_books(600, seed=11)
        config = books_config(metablock_ratio=BF_RATIO, **overrides)
        off, bf = (
            ExperimentRun(
                RunSpec(dataset, config, machines=MACHINES, metablock=mode)
            ).run().found_pairs
            for mode in ("off", "bf")
        )
        return bf - off

    def test_the_fixed_root_window_lets_bf_find_pairs_off_does_not(self):
        assert len(self._pairs_only_bf_finds()) == 2

    def test_with_every_root_resolved_whole_bf_finds_none(self):
        whole_roots = LevelPolicy(root_window=600, leaf_frac=0.85, mid_frac=0.95)
        assert self._pairs_only_bf_finds(levels=whole_roots) == set()
