"""Extended CLI tests: the profile subcommand, the people family, and
budget-weighted scheduling through the public config API."""

import re

import pytest

from repro.cli import main
from repro.core import ProgressiveER, citeseer_config, make_budget_weighting
from repro.mapreduce import Cluster


class TestProfileCommand:
    def test_profile_generated_dataset(self, capsys):
        code = main(["profile", "--family", "citeseer", "--size", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "attribute" in out
        assert "title.sub(0, 2)" in out
        assert "suggested dominance order" in out

    def test_profile_from_csv(self, tmp_path, capsys):
        out_path = tmp_path / "ds.csv"
        main(["generate", "--family", "people", "--size", "200", "--out", str(out_path)])
        code = main(["profile", "--dataset", str(out_path), "--family", "people"])
        assert code == 0
        assert "surname" in capsys.readouterr().out


class TestBalanceAndMetablockCli:
    @pytest.mark.parametrize("strategy", ["pairrange"])
    def test_skewed_balance_prints_its_plan(self, strategy, capsys):
        code = main(
            ["run", "--family", "skewed", "--size", "400", "--machines", "3",
             "--balance", strategy]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"load balance — strategy '{strategy}'" in out
        assert "split blocks:" in out

    @pytest.mark.parametrize(
        "size, flags, mode",
        [
            ("200", ["--metablock", "bf", "--metablock-ratio", "0.5"], "bf"),
            ("1000", ["--metablock", "wnp"], "wnp"),
        ],
    )
    def test_linkage_metablock_prints_its_pre_pass(self, size, flags, mode, capsys):
        code = main(
            ["run", "--family", "linkage", "--size", size, "--machines", "3", *flags]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "meta-blocking pre-pass" in out
        assert re.search(rf"^  mode +{mode}$", out, re.MULTILINE)
        assert "pair reduction" in out


class TestPeopleFamilyCli:
    def test_generate_people(self, tmp_path):
        out_path = tmp_path / "people.csv"
        code = main(
            ["generate", "--family", "people", "--size", "150", "--out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()

    def test_run_people(self, capsys):
        code = main(
            ["run", "--family", "people", "--size", "250", "--machines", "2"]
        )
        assert code == 0
        assert "final recall" in capsys.readouterr().out

    def test_basic_people_uses_psnm(self, capsys):
        code = main(
            [
                "run", "--family", "people", "--size", "250", "--machines", "2",
                "--approach", "basic", "--threshold", "0.05",
            ]
        )
        assert code == 0


class TestBudgetWeighting:
    def test_budget_weighted_run_is_valid(
        self, citeseer_small, shared_citeseer_matcher
    ):
        """[17]'s budget-optimized variant: a step weighting produces a
        well-formed schedule and a complete run."""
        config = citeseer_config(
            matcher=shared_citeseer_matcher,
            weighting=make_budget_weighting(0.4),
        )
        result = ProgressiveER(config, Cluster(2)).run(citeseer_small)
        assert result.found_pairs
        weights = result.schedule.weights
        assert all(
            weights[i] >= weights[i + 1] - 1e-12 for i in range(len(weights) - 1)
        )

    def test_budget_weighting_front_loads(
        self, citeseer_small, shared_citeseer_matcher
    ):
        """At the budget point, the budget-weighted schedule is at least as
        good as the default one (it optimizes exactly that point)."""
        from repro.evaluation import recall_curve

        runs = {}
        for name, weighting in (
            ("linear", None),
            ("budget", make_budget_weighting(0.35)),
        ):
            kwargs = {"matcher": shared_citeseer_matcher}
            if weighting is not None:
                kwargs["weighting"] = weighting
            config = citeseer_config(**kwargs)
            result = ProgressiveER(config, Cluster(2)).run(citeseer_small)
            runs[name] = recall_curve(
                result.duplicate_events, citeseer_small, end_time=result.total_time
            )
        # Tolerant comparison: the schedules rarely differ much at small
        # scale, but the budget run must not be dramatically worse early.
        budget_point = min(c.end_time for c in runs.values()) * 0.35
        assert (
            runs["budget"].recall_at(budget_point)
            >= runs["linear"].recall_at(budget_point) - 0.1
        )
