"""Unit tests for the ASCII reporting helpers and the experiment harness."""

import pytest

from repro.baselines import BasicConfig
from repro.core import citeseer_config
from repro.evaluation import (
    ExperimentRun,
    RunSpec,
    format_curves,
    format_final_summary,
    format_table,
    sample_times,
)


class TestFormatTable:
    def test_headers_and_rows_aligned(self):
        text = format_table(["name", "value"], [["a", 1], ["bbbb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_title(self):
        text = format_table(["h"], [["x"]], title="Table III")
        assert text.splitlines()[0] == "Table III"

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestSampleTimes:
    def test_even_spacing(self):
        times = sample_times(100.0, points=4)
        assert times == [25.0, 50.0, 75.0, 100.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_times(10.0, points=0)


class TestHarness:
    def test_progressive_run_produces_labeled_curve(
        self, citeseer_small, citeseer_cfg
    ):
        run = ExperimentRun(RunSpec(citeseer_small, citeseer_cfg, machines=2)).run()
        assert run.label == "ours[ours]"
        assert run.final_recall > 0.5
        assert run.total_time > 0

    def test_basic_run_label_includes_threshold(
        self, citeseer_small, shared_citeseer_matcher
    ):
        config = BasicConfig(
            citeseer_config(matcher=shared_citeseer_matcher),
            window=15,
            popcorn_threshold=0.1,
        )
        run = ExperimentRun(RunSpec(citeseer_small, config, machines=2)).run()
        assert run.label == "basic[0.1]"

    def test_format_curves_and_summary(self, citeseer_small, citeseer_cfg):
        run = ExperimentRun(
            RunSpec(citeseer_small, citeseer_cfg, machines=2, label="ours")
        ).run()
        times = sample_times(run.total_time, points=3)
        curves_text = format_curves([run], times, title="Fig")
        assert "ours" in curves_text
        assert len(curves_text.splitlines()) == 6  # title + hdr + rule + 3
        summary = format_final_summary([run])
        assert "ours" in summary
