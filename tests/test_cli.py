"""Unit tests for the command-line interface."""

import json
import math
import os

import pytest

from repro.cli import main
from repro.data import make_citeseer
from repro.data.rows import read_dataset


class TestGenerate:
    def test_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "ds.jsonl"
        code = main(
            ["generate", "--family", "citeseer", "--size", "120", "--out", str(out)]
        )
        assert code == 0
        loaded = read_dataset(str(out))
        original = make_citeseer(120, seed=7)
        assert loaded.entities == original.entities
        assert [e.attrs for e in loaded] == [e.attrs for e in original]
        assert loaded.clusters == original.clusters
        assert "wrote 120" in capsys.readouterr().out

    def test_books_family(self, tmp_path):
        out = tmp_path / "books.jsonl"
        assert main(["generate", "--family", "books", "--size", "80", "--out", str(out)]) == 0
        assert len(read_dataset(str(out))) == 80


class TestRun:
    def test_ours_on_generated_dataset(self, capsys):
        code = main(
            ["run", "--family", "citeseer", "--size", "300", "--machines", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ours" in out
        assert "final recall" in out

    def test_basic_with_threshold(self, capsys):
        code = main(
            [
                "run", "--family", "citeseer", "--size", "300",
                "--machines", "2", "--approach", "basic", "--threshold", "0.05",
            ]
        )
        assert code == 0
        assert "basic[0.05]" in capsys.readouterr().out

    def test_run_from_rows(self, tmp_path, capsys):
        # A generated file runs exactly like the dataset it was written from.
        out = tmp_path / "ds.jsonl"
        main(["generate", "--family", "citeseer", "--size", "250", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["run", "--dataset", str(out), "--family", "citeseer", "--machines", "2"]
        )
        assert code == 0
        from_file = capsys.readouterr().out.splitlines()
        main(["run", "--family", "citeseer", "--size", "250", "--machines", "2"])
        generated = capsys.readouterr().out.splitlines()
        assert from_file[0] != generated[0]  # the title names the dataset
        assert from_file[1:] == generated[1:]

    @pytest.mark.parametrize("approach", ["nosplit", "lpt"])
    def test_scheduler_variants(self, approach, capsys):
        code = main(
            [
                "run", "--family", "citeseer", "--size", "300",
                "--machines", "2", "--approach", approach,
            ]
        )
        assert code == 0

    def test_inert_fault_plan_prints_what_no_plan_prints(self, capsys):
        # One placement path: a zero-rate plan places tasks exactly like
        # the default plan, whatever its seed.
        argv = ["run", "--family", "citeseer", "--size", "300", "--machines", "4"]
        assert main(argv) == 0
        no_plan = capsys.readouterr().out
        assert main(argv + ["--fault-rate", "0", "--fault-seed", "3"]) == 0
        assert capsys.readouterr().out == no_plan

    def test_process_backend_prints_what_serial_prints_and_forks(self, capsys):
        # Virtual time only, so both backends print the same bytes; the
        # pool-fork count shows the process run did not stay inline.
        argv = ["run", "--family", "books", "--size", "1500", "--machines", "4"]
        assert main(argv + ["--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        argv += ["--backend", "process", "--workers", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out == serial
        assert main(argv + ["--perf-report"]) == 0
        forks = [
            int(line.split(": ")[1])
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("pool forks: ")
        ]
        assert len(forks) == 1 and forks[0] >= 1

    def test_faulty_traced_run_writes_a_valid_trace(self, tmp_path, capsys):
        from repro.observability import validate_chrome_trace

        trace, metrics = tmp_path / "trace.json", tmp_path / "metrics.json"
        argv = [
            "run", "--family", "citeseer", "--size", "300", "--machines", "4",
            "--fault-rate", "0.1", "--skew",
            "--trace", str(trace), "--metrics", str(metrics),
        ]
        assert main(argv) == 0
        assert "fault injection" in capsys.readouterr().out
        events = json.loads(trace.read_text())
        validate_chrome_trace(events)
        assert {"X", "B", "E", "M"} <= {e["ph"] for e in events}
        assert any(e["name"] == "schedule-generation" for e in events)
        scopes = {s["scope"] for s in json.loads(metrics.read_text())["snapshots"]}
        for job in ("progressive-blocking-statistics", "progressive-resolution"):
            for phase in ("map", "reduce"):
                assert any(scope.endswith(f":{job}/{phase}") for scope in scopes)

    def test_aborted_job_is_one_line_not_a_traceback(self, capsys):
        # Half the attempts crash: a reduce task runs out of retries.
        argv = [
            "run", "--family", "books", "--size", "600", "--machines", "4",
            "--fault-rate", "0.5", "--fault-seed", "8",
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err == (
            "repro: reduce task 2 failed 4 attempts (retry budget exhausted); "
            "job aborted\n"
        )


#: ``--dataset`` files the reader refuses: (file bytes, the line it names).
_BAD_DATASETS = {
    "non-integer-id": (b'{"id": "x", "attrs": {}, "cluster": 0}\n', 1),
    "repeated-id": (b'{"id": 1, "cluster": 0}\n{"id": 1, "cluster": 0}\n', 2),
    "non-integer-cluster": (b'{"id": 1, "cluster": 0}\n{"id": 2, "cluster": "c"}\n', 2),
    "non-utf8-line": (b'{"id": 1, "cluster": 0}\n{"id": 2, "title": "caf\xe9"}\n', 2),
}


class TestDatasetFile:
    """A bad ``--dataset`` file ends in one ``path:line:`` message."""

    @pytest.mark.parametrize("command", ["run", "compare", "profile"])
    @pytest.mark.parametrize("case", sorted(_BAD_DATASETS))
    def test_bad_file_exits_with_one_line(self, case, command, tmp_path):
        data, line = _BAD_DATASETS[case]
        path = tmp_path / "ds.jsonl"
        path.write_bytes(data)
        argv = [command, "--dataset", str(path)]
        if command != "profile":
            argv += ["--machines", "2"]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        message = caught.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"{path}:{line}: ")

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_recall_needs_cluster_fields(self, command, tmp_path):
        path = tmp_path / "flat.jsonl"
        path.write_text('{"id": 1, "title": "a"}\n{"id": 2, "title": "b"}\n')
        with pytest.raises(SystemExit) as caught:
            main([command, "--dataset", str(path), "--machines", "2"])
        message = caught.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith(f"{path}: no row has a 'cluster' field")

    def test_profile_needs_no_ground_truth(self, tmp_path, capsys):
        path = tmp_path / "flat.jsonl"
        path.write_text('{"id": 1, "title": "a"}\n{"id": 2, "title": "b"}\n')
        assert main(["profile", "--dataset", str(path)]) == 0
        assert "title" in capsys.readouterr().out


class TestCompare:
    def test_table_output(self, capsys):
        code = main(
            [
                "compare", "--family", "citeseer", "--size", "300",
                "--machines", "2", "--threshold", "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ours" in out
        assert "basic[F]" in out
        assert "basic[0.05]" in out

    def test_linkage_runs_ours_and_basic(self, capsys):
        # Basic reads the mode from linkage_config(), so its rows compare
        # the same cross-source pair universe as ours.
        argv = ["compare", "--family", "linkage", "--size", "600", "--machines", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ours" in out
        assert "basic[F]" in out

    def test_chart_output(self, capsys):
        code = main(
            [
                "compare", "--family", "citeseer", "--size", "300",
                "--machines", "2", "--chart",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "o=ours" in out
        assert "recall vs time" in out


class TestCalibrate:
    def test_fit_and_report(self, tmp_path, capsys):
        out = tmp_path / "calibration.json"
        code = main(
            [
                "calibrate", "--family", "citeseer", "--size", "200",
                "--machines", "2", "--backend", "serial", "--out", str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "cost-model calibration" in text
        assert "median APE" in text
        report = json.loads(out.read_text())
        assert report["format"] == 1
        assert report["backend"] == "serial"
        assert report["samples_used"] > 0
        assert report["workload"]["family"] == "citeseer"
        assert all(v >= 0.0 for v in report["seconds_per_unit"].values())
        assert math.isfinite(report["residual_rms_seconds"])
        assert math.isfinite(report["median_ape"])
        assert isinstance(report["cpus_visible"], int)
        assert isinstance(report["parallelism_limited"], bool)
        assert "error_band" in report

    def test_reports_the_workers_the_executor_ran(self, monkeypatch, tmp_path, capsys):
        # More CPUs installed than the affinity mask allows: the process
        # executor runs one worker per allowed CPU, and the report says so.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "calibration.json"
        code = main(
            [
                "calibrate", "--family", "citeseer", "--size", "200",
                "--machines", "2", "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["backend"] == "process"
        assert report["workers"] == 2
        assert report["cpus_visible"] == 2
        assert report["parallelism_limited"] is False
        assert "WARNING" not in capsys.readouterr().out

    def test_metablock_ratio_reaches_the_workload(self, monkeypatch, capsys):
        import repro.cli as cli

        specs = []

        class RecordingRun(cli.ExperimentRun):
            def __init__(self, spec):
                specs.append(spec)
                super().__init__(spec)

        monkeypatch.setattr(cli, "ExperimentRun", RecordingRun)
        code = main(
            [
                "calibrate", "--family", "citeseer", "--size", "200",
                "--machines", "2", "--backend", "serial",
                "--metablock", "bf", "--metablock-ratio", "0.5",
            ]
        )
        assert code == 0
        assert specs, "calibrate ran no workload"
        assert all(spec.metablock == "bf" for spec in specs)
        assert all(spec.config.metablock_ratio == 0.5 for spec in specs)


#: Every subcommand's flags besides -h/--help.  A flag leaves a command
#: only by an edit here.
_FLAGS = {
    "generate": "--family --size --seed --out",
    "run": "--family --size --seed --dataset --approach --machines --window "
    "--threshold --points --backend --workers --balance --metablock "
    "--metablock-ratio --fault-seed --fault-rate --trace --metrics --skew "
    "--perf-report",
    "compare": "--family --size --seed --dataset --machines --window "
    "--threshold --points --chart --backend --workers --balance --metablock "
    "--metablock-ratio --fault-seed --fault-rate --trace --metrics --skew "
    "--perf-report",
    "profile": "--family --size --seed --dataset",
    "serve": "--family --input --batch-size --machines --min-family-matches "
    "--snapshot-out --print-pairs --backend --workers --fault-seed "
    "--fault-rate --trace --metrics --skew --perf-report",
    "submit": "--family --snapshot --input --machines --min-family-matches "
    "--snapshot-out --print-pairs --backend --workers --fault-seed "
    "--fault-rate --trace --metrics --skew --perf-report",
    "calibrate": "--family --size --seed --machines --repeats --out --backend "
    "--workers --balance --metablock --metablock-ratio",
}


class TestParser:
    def test_every_subcommand_keeps_its_flag_set(self):
        from repro.cli import _build_parser

        def flags(parser):
            return sorted(f for action in parser._actions for f in action.option_strings)

        parser = _build_parser()
        (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
        assert flags(parser) == ["--help", "-h"]
        assert {name: flags(command) for name, command in commands.items()} == {
            name: sorted(names.split() + ["-h", "--help"])
            for name, names in _FLAGS.items()
        }

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--size", "60", "--window", "3"], "--window"),
            (["run", "--size", "60", "--threshold", "0.5"], "--threshold"),
            (["run", "--size", "60", "--approach", "lpt", "--threshold", "0.5"],
             "--threshold"),
            (["run", "--size", "60", "--approach", "basic", "--metablock", "bf"],
             "--metablock"),
            (["run", "--size", "60", "--approach", "basic", "--metablock", "off"],
             "--metablock"),
            (["run", "--size", "60", "--approach", "basic",
              "--metablock-ratio", "0.5"], "--metablock-ratio"),
            (["run", "--size", "60", "--metablock-ratio", "0.5"], "--metablock-ratio"),
            (["run", "--size", "60", "--metablock", "wnp", "--metablock-ratio", "0.5"],
             "--metablock-ratio"),
            (["compare", "--size", "60", "--metablock-ratio", "0.5"],
             "--metablock-ratio"),
            (["calibrate", "--size", "60", "--metablock-ratio", "0.5"],
             "--metablock-ratio"),
            # The serial backend runs no worker pool.
            (["run", "--size", "60", "--workers", "3"], "--workers"),
            (["compare", "--size", "60", "--workers", "3"], "--workers"),
            (["serve", "--workers", "2"], "--workers"),
            (["submit", "--snapshot", "state.json", "--workers", "2"], "--workers"),
            (["calibrate", "--size", "60", "--backend", "serial", "--workers", "2"],
             "--workers"),
        ],
    )
    def test_flags_the_approach_would_ignore_are_usage_errors(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and errors[0].startswith(f"repro: error: {flag} ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--metablock", "wnp"],
            ["serve", "--metablock-ratio", "0.3"],
            ["submit", "--snapshot", "state.json", "--metablock", "bf"],
        ],
    )
    def test_flags_a_command_would_ignore_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["serve"], ["submit", "--snapshot", "state.json"]])
    def test_balance_is_not_a_service_flag(self, command, capsys):
        # Delta jobs place exact pair counts one way: nothing to choose.
        with pytest.raises(SystemExit) as caught:
            main(command + ["--balance", "slack"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "repro: error: unrecognized arguments: --balance slack"
        ]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--size", "60", "--points", "0"],
            ["generate", "--size", "0", "--out", "never-written.jsonl"],
            # A window below 2 compares nothing: Basic would report recall 0.
            ["run", "--size", "60", "--approach", "basic", "--window", "0"],
            ["compare", "--size", "60", "--window", "0"],
            ["run", "--size", "60", "--fault-rate", "2"],
            ["compare", "--size", "60", "--fault-rate", "-0.1"],
            ["serve", "--fault-rate", "1.5"],
            ["submit", "--snapshot", "state.json", "--fault-rate", "2"],
            ["run", "--size", "60", "--metablock-ratio", "0"],
            ["calibrate", "--metablock-ratio", "1.5"],
            ["run", "--size", "60", "--approach", "basic", "--threshold", "-1"],
            ["compare", "--size", "60", "--threshold", "1.5"],
            # The popcorn threshold's interval is open at both ends.
            ["compare", "--size", "60", "--threshold", "1"],
            ["run", "--size", "60", "--approach", "basic", "--threshold", "0"],
            ["serve", "--batch-size", "0"],
            ["calibrate", "--repeats", "0"],
            ["serve", "--min-family-matches", "0"],
            ["submit", "--snapshot", "state.json", "--min-family-matches", "0"],
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "repro: error: argument --" in err
        assert "Traceback" not in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_linkage_over_one_source_is_a_usage_error(self, tmp_path, capsys):
        books = tmp_path / "books.jsonl"
        main(["generate", "--family", "books", "--size", "60", "--out", str(books)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as caught:
            main(["compare", "--dataset", str(books), "--family", "linkage",
                  "--machines", "2"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "repro: error: invalid RunSpec: linkage mode compares only across "
            "sources, but the dataset has 0 distinct source tag(s)"
        ]
        assert "Traceback" not in err

    def test_sched_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["sched"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "argument command: invalid choice: 'sched'" in err
        assert "Traceback" not in err

    def test_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["--help"])
        assert caught.value.code == 0
        assert (
            "{generate,run,compare,profile,serve,submit,calibrate}"
            in capsys.readouterr().out
        )

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            main(["generate"])

    def test_invalid_run_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "--family", "citeseer", "--size", "50",
                  "--backend", "process", "--workers", "0"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "error: invalid RunSpec: workers must be a positive" in err
        assert "Traceback" not in err
