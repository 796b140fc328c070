"""Golden output of the `repro sched` demo, one small run per policy.

`repro sched` is the one caller that schedules :class:`ResolverService`
batches: each tenant's batches chain on its service's clock while they
compete with the other tenants' batches for the shared slot pool.  The
fixture pins the printed report and the ``--report-out`` JSON byte for
byte (decision log, outcomes, tenant usage, latencies), so any change in
how service batches interleave shows up as a readable diff.

The expected output is stored in ``tests/fixtures/golden_sched_cli.json``.
Regenerate after an intentional change with::

    PYTHONPATH=src python tests/test_golden_sched_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from repro.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "golden_sched_cli.json"

POLICIES = ("fair", "fifo")

#: Three tenants, six arrivals on two machines; the active-job cap queues
#: part of the burst, so admission release is pinned too.
ARGS = [
    "sched", "--family", "citeseer", "--size", "150", "--seed", "7",
    "--jobs", "6", "--tenants", "3", "--machines", "2",
    "--rate", "0.1", "--interactive-fraction", "0.4", "--max-active", "2",
]


def run_sched(policy: str) -> dict:
    """Stdout and report JSON of one `repro sched` run under ``policy``."""
    with tempfile.TemporaryDirectory() as tmp:
        report_path = Path(tmp) / "report.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(ARGS + ["--policy", policy,
                                "--report-out", str(report_path)])
        assert code == 0
        return {"stdout": stdout.getvalue(),
                "report": report_path.read_text(encoding="utf-8")}


def build_golden() -> dict:
    return {policy: run_sched(policy) for policy in POLICIES}


@pytest.mark.parametrize("policy", POLICIES)
def test_sched_demo_output_is_stable(policy):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[policy]
    actual = run_sched(policy)
    assert actual["stdout"] == expected["stdout"]
    assert actual["report"] == expected["report"]


def test_golden_runs_interleave_and_queue_batches():
    """Guard against a vacuous fixture: every batch ran, the active cap
    queued some, phases of different batches waited on each other, and
    the two policies ordered them differently."""
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    reports = {p: json.loads(golden[p]["report"]) for p in POLICIES}
    for report in reports.values():
        outcomes = report["outcomes"]
        assert len(outcomes) == 6
        assert all(o["finished_at"] is not None for o in outcomes)
        assert any(o["decision"] == "queued" for o in outcomes)
        assert any(o["wait_total"] > 0 for o in outcomes)
        assert report["queue_depth_peak"] >= 2
    assert reports["fair"]["outcomes"] != reports["fifo"]["outcomes"]


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(build_golden(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
