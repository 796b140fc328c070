"""CLI tests for the multi-tenant scheduler demo: `repro sched`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.observability import validate_chrome_trace


class TestSched:
    def test_demo_prints_report_and_writes_artifacts(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "sched", "--family", "citeseer", "--size", "160",
                "--jobs", "5", "--tenants", "2", "--machines", "2",
                "--policy", "fair", "--interactive-fraction", "0.4",
                "--trace", str(trace), "--report-out", str(report_path),
                "--metrics", str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy" in out and "fair" in out
        assert "job-0" in out

        report = json.loads(report_path.read_text())
        assert len(report["outcomes"]) == 5
        assert all(o["finished_at"] is not None for o in report["outcomes"])
        # Every placed phase is charged exactly once.
        assert sum(t["slot_seconds"] for t in report["tenants"]) == pytest.approx(
            sum(report["busy"].values())
        )

        events = json.loads(trace.read_text())
        validate_chrome_trace(events)
        assert any(e.get("cat") == "sched-lease" for e in events)

        snapshots = json.loads(metrics.read_text())["snapshots"]
        assert any(s["scope"] == "sched" for s in snapshots)
        assert any(s["scope"].startswith("sched.tenant.") for s in snapshots)

    def test_fifo_policy_and_admission_caps(self, capsys):
        code = main(
            [
                "sched", "--family", "citeseer", "--size", "120",
                "--jobs", "4", "--tenants", "2", "--machines", "2",
                "--policy", "fifo", "--max-active", "2", "--max-queued", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fifo" in out
