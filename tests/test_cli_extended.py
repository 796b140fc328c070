"""Extended CLI tests: the profile subcommand and the people family."""

import re

import pytest

from repro.cli import main


class TestProfileCommand:
    def test_profile_generated_dataset(self, capsys):
        code = main(["profile", "--family", "citeseer", "--size", "300"])
        assert code == 0
        out = capsys.readouterr().out
        assert "attribute" in out
        assert "title.sub(0, 2)" in out
        assert "suggested dominance order" in out

    def test_profile_from_rows(self, tmp_path, capsys):
        out_path = tmp_path / "ds.jsonl"
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
        out_path = tmp_path / "people.jsonl"
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

    @pytest.mark.parametrize("family", ["citeseer", "books", "people", "skewed", "linkage"])
    def test_basic_runs_the_family_config(self, family):
        # Basic's rows of `run`/`compare` take mechanism, matcher, scheme
        # and mode from the family's config: linkage runs the SN hint and
        # compares across sources only, as ours does.
        from argparse import Namespace

        from repro.cli import _FAMILIES, _basic_config

        basic = _basic_config(Namespace(family=family, window=5), 0.05).approach
        _, make_config = _FAMILIES[family]
        config = make_config()
        assert basic.mechanism.name == config.mechanism.name
        assert basic.mode == config.mode
        assert basic.scheme.family_order == config.scheme.family_order
