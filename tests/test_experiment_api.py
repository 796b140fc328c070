"""Tests for the unified run API: RunSpec / ExperimentRun / RunResult,
the one result contract every approach keeps, plus construction-time spec
validation."""

from __future__ import annotations

import pytest

from repro.baselines import BasicConfig, MrsnConfig
from repro.core import ProgressiveResult, Resolution
from repro.evaluation import ExperimentRun, RunResult, RunSpec, format_fault_summary
from repro.mapreduce import FaultPlan, SerialExecutor
from repro.mapreduce.engine import SLOTS_PER_MACHINE


class TestRunSpec:
    def test_approach_inferred_from_config_type(self, citeseer_cfg, basic_cfg):
        assert not RunSpec(None, citeseer_cfg).is_baseline
        assert RunSpec(None, basic_cfg).is_baseline
        assert RunSpec(None, MrsnConfig(citeseer_cfg)).is_baseline

    def test_progressive_label_derived_from_strategy(self, citeseer_cfg):
        assert RunSpec(None, citeseer_cfg).resolved_label() == "ours[ours]"
        assert RunSpec(None, citeseer_cfg, strategy="lpt").resolved_label() == "ours[lpt]"

    def test_basic_label_encodes_popcorn_threshold(self, basic_cfg):
        assert RunSpec(None, basic_cfg).resolved_label() == "basic[F]"

    def test_explicit_label_wins(self, citeseer_cfg):
        spec = RunSpec(None, citeseer_cfg, label="fig8")
        assert spec.resolved_label() == "fig8"


class TestExperimentRun:
    def test_cluster_is_paper_shaped(self, citeseer_small, citeseer_cfg):
        experiment = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=4))
        cluster = experiment.cluster
        assert cluster.machines == 4
        assert cluster.map_slots == SLOTS_PER_MACHINE
        assert cluster.reduce_slots == SLOTS_PER_MACHINE

    def test_backend_name_builds_executor(self, citeseer_small, citeseer_cfg):
        experiment = ExperimentRun(
            RunSpec(citeseer_small, citeseer_cfg, backend="process", workers=2)
        )
        assert experiment.cluster.executor.name == "process"
        assert experiment.cluster.executor.workers == 2

    def test_progressive_run_result_shape(self, citeseer_small, citeseer_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=3)).run()
        assert isinstance(run, RunResult)
        assert run.label == "ours[ours]"
        assert run.spec.machines == 3
        assert run.total_time == run.result.total_time
        assert run.final_recall == run.curve.final_recall
        assert run.final_recall > 0.8
        assert run.duplicate_events is run.result.duplicate_events

    def test_basic_run_result_shape(self, citeseer_small, basic_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, basic_cfg, machines=3)).run()
        assert run.label == "basic[F]"
        assert run.total_time == run.result.jobs[0].end_time
        assert run.final_recall > 0.8

    def test_seed_flows_through(self, citeseer_small, citeseer_cfg):
        a = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2, seed=5)).run()
        b = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2, seed=5)).run()
        assert [(e.time, e.payload) for e in a.duplicate_events] == [
            (e.time, e.payload) for e in b.duplicate_events
        ]


class TestFoundPairsCaching:
    """found_pairs is derived from the event log — compute it once."""

    def test_run_result_caches(self, citeseer_small, citeseer_cfg):
        run = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2)).run()
        assert run.found_pairs is run.found_pairs


#: Every approach, as the config a RunSpec selects it by, with the label
#: the spec derives for it and its number of jobs.
APPROACHES = {
    "ours": (lambda approach: approach, "ours[ours]", 2),
    "basic-F": (lambda approach: BasicConfig(approach), "basic[F]", 1),
    "basic-popcorn": (
        lambda approach: BasicConfig(approach, popcorn_threshold=0.01), "basic[0.01]", 1
    ),
    "mrsn": (lambda approach: MrsnConfig(approach, window=10), "mrsn[w=10]", 3),
}


class TestResultContract:
    """Ours, Basic and MR-SN run through one entry and return one type."""

    @pytest.mark.parametrize("name", APPROACHES)
    def test_every_approach_keeps_the_result_contract(
        self, name, citeseer_small, citeseer_cfg
    ):
        make_config, label, num_jobs = APPROACHES[name]
        run = ExperimentRun(
            RunSpec(citeseer_small, make_config(citeseer_cfg), machines=3)
        ).run()
        result = run.result
        assert isinstance(result, Resolution)
        assert isinstance(result, ProgressiveResult) == (name == "ours")
        assert run.label == label
        assert len(result.jobs) == num_jobs
        assert result.found_pairs == {e.payload for e in result.duplicate_events}
        assert result.found_pairs is result.found_pairs
        assert run.found_pairs == result.found_pairs
        times = [e.time for e in result.duplicate_events]
        assert times == sorted(times)
        assert len(result.found_pairs) == len(result.duplicate_events) > 0
        assert result.total_time == result.jobs[-1].end_time == run.total_time

    def test_fault_summary_reports_every_approach(self, citeseer_small, citeseer_cfg):
        faults = FaultPlan(seed=23, fault_rate=0.15)
        runs = [
            ExperimentRun(
                RunSpec(
                    citeseer_small, make_config(citeseer_cfg), machines=3, faults=faults
                )
            ).run()
            for make_config, _, _ in APPROACHES.values()
        ]
        rows = format_fault_summary(runs).splitlines()[3:]
        assert [row.split()[0] for row in rows] == [run.label for run in runs]
        for run, row in zip(runs, rows):
            retries = sum(
                job.counters.get("fault", f"{phase}_retries")
                for job in run.result.jobs
                for phase in ("map", "reduce")
            )
            assert retries > 0, run.label


class TestDeprecatedWrappersRemoved:
    """The pre-RunSpec helpers were deleted after their deprecation cycle."""

    def test_wrappers_are_gone(self):
        import repro
        import repro.evaluation
        import repro.evaluation.experiment as experiment

        for module in (repro, repro.evaluation, experiment):
            for name in ("make_cluster", "run_progressive", "run_basic"):
                assert not hasattr(module, name), f"{module.__name__}.{name}"
                assert name not in getattr(module, "__all__", ())


class TestRunSpecValidation:
    """Incoherent specs fail at construction with actionable messages."""

    def test_valid_spec_passes_and_chains(self, citeseer_cfg):
        spec = RunSpec(None, citeseer_cfg, machines=3, balance="pairrange")
        assert spec.validate() is spec

    def test_unknown_balance_rejected(self, citeseer_cfg):
        # "pairrange-tree" was a strategy once; now it is a typo like any other.
        for name in ("roundrobin", "pairrange-tree"):
            with pytest.raises(
                ValueError, match=f"balance.*'{name}'.*\\('slack', 'pairrange'\\)"
            ):
                RunSpec(None, citeseer_cfg, balance=name)

    @pytest.mark.parametrize(
        "option", [{"strategy": "lpt"}, {"balance": "pairrange"}, {"metablock": "wnp"}]
    )
    @pytest.mark.parametrize("baseline", [BasicConfig, MrsnConfig])
    def test_baselines_reject_schedule_options(self, citeseer_cfg, baseline, option):
        # A baseline has no progressive schedule: running one "under" lpt,
        # pairrange or wnp would print what the defaults print.
        ((name, value),) = option.items()
        with pytest.raises(
            ValueError, match=f"{name}='{value}' needs the progressive approach"
        ):
            RunSpec(None, baseline(citeseer_cfg), **option)
        RunSpec(None, baseline(citeseer_cfg))

    def test_unknown_strategy_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="strategy 'greedy'"):
            RunSpec(None, citeseer_cfg, strategy="greedy")

    def test_unknown_backend_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="backend 'threads'"):
            RunSpec(None, citeseer_cfg, backend="threads")

    def test_nonpositive_workers_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="workers must be a positive"):
            RunSpec(None, citeseer_cfg, backend="process", workers=0)

    def test_removed_options_are_type_errors(self, citeseer_cfg, capsys):
        import repro.mapreduce
        from repro.cli import main
        from repro.mapreduce import (
            Cluster,
            MapReduceJob,
            Mapper,
            ParallelExecutor,
            Reducer,
        )
        from repro.service import ResolverService
        from repro.similarity import WeightedMatcher

        for removed in ({"batch_pairs": 1}, {"executor": SerialExecutor()}):
            with pytest.raises(TypeError):
                RunSpec(None, citeseer_cfg, **removed)
        for removed in (
            {"executor": SerialExecutor()},
            {"cost_model": None},
            {"label": "service"},
        ):
            with pytest.raises(TypeError):
                ResolverService(citeseer_cfg, **removed)
        with pytest.raises(TypeError):
            ParallelExecutor(2, serial_floor=0.0)
        for removed in ({"map_failures": {}}, {"num_map_tasks": 3}):
            with pytest.raises(TypeError):
                Cluster(2).run_job(MapReduceJob(Mapper, Reducer), [], **removed)
        assert not hasattr(RunSpec, "with_label")
        assert not hasattr(WeightedMatcher, "clear_cache")
        # Speculation and straggler slots are gone; crash-and-retry stays.
        for removed in (
            {"straggler_rate": 0.2},
            {"slot_slowdowns": {0: 2.0}},
            {"speculation": None},
        ):
            with pytest.raises(TypeError):
                FaultPlan(**removed)
        with pytest.raises(SystemExit) as caught:
            main(["run", "--size", "60", "--speculative"])
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not hasattr(repro.mapreduce, "SpeculationConfig")

    def test_nonpositive_machines_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="machines must be a positive"):
            RunSpec(None, citeseer_cfg, machines=0)

    def test_wrong_config_type_rejected(self, citeseer_small):
        with pytest.raises(ValueError, match="config must be an ApproachConfig"):
            RunSpec(citeseer_small, {"scheme": None})

    def test_wrong_faults_type_rejected(self, citeseer_cfg):
        with pytest.raises(ValueError, match="faults must be a FaultPlan"):
            RunSpec(None, citeseer_cfg, faults="chaos")
        RunSpec(None, citeseer_cfg, faults=FaultPlan(seed=0))  # real plan OK

    def test_linkage_without_two_sources_rejected(self):
        from repro.core import linkage_config
        from repro.data import make_books, make_linkage

        with pytest.raises(ValueError, match="linkage mode.*0 distinct source"):
            RunSpec(make_books(60, seed=1), linkage_config())
        RunSpec(make_linkage(60, seed=1), linkage_config())  # two sources OK
        RunSpec(None, linkage_config())  # a session spec has no dataset yet

    def test_basic_linkage_without_two_sources_rejected(self):
        from repro.baselines import BasicConfig
        from repro.core import linkage_config
        from repro.data import make_books, make_linkage

        basic = BasicConfig(linkage_config())
        with pytest.raises(ValueError, match="linkage mode.*0 distinct source"):
            RunSpec(make_books(60, seed=1), basic)
        RunSpec(make_linkage(60, seed=1), basic)

    def test_all_problems_reported_at_once(self, citeseer_cfg):
        with pytest.raises(ValueError) as excinfo:
            RunSpec(None, citeseer_cfg, machines=0, balance="nope", workers=-1)
        message = str(excinfo.value)
        assert "machines" in message
        assert "balance" in message
        assert "workers" in message

    def test_validate_catches_post_construction_mutation(self, citeseer_cfg):
        spec = RunSpec(None, citeseer_cfg)
        spec.balance = "typo"
        with pytest.raises(ValueError, match="balance"):
            spec.validate()
