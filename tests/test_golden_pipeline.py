"""Golden end-to-end fixture for the full progressive pipeline.

One pinned run — the books dataset under the default configuration, serial
backend, ``slack`` balance — is reduced to a JSON *shape*: a digest of the
generated schedule, the first duplicate discoveries with their virtual
timestamps, the final counts, and the driver/balance counters.  The shape
is stored in ``tests/fixtures/golden_pipeline.json``; any drift in
blocking, estimation, scheduling, the resolution mechanisms, virtual-time
accounting or the balance post-pass shows up as a readable JSON diff.

This is the differential harness's fixed reference point: the differential
suites prove strategies and backends agree with *each other*, this fixture
pins what they all agree *on* across commits.

Regenerate after an intentional behavior change with::

    PYTHONPATH=src python tests/test_golden_pipeline.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import books_config
from repro.data.books import make_books
from repro.evaluation import ExperimentRun, RunSpec

FIXTURE = Path(__file__).parent / "fixtures" / "golden_pipeline.json"

#: The pinned scenario (matches the shared ``books_small`` fixture shape).
GOLDEN_SIZE = 600
GOLDEN_SEED = 11
GOLDEN_MACHINES = 3
EVENT_PREFIX = 25


def _golden_run():
    dataset = make_books(GOLDEN_SIZE, seed=GOLDEN_SEED)
    spec = RunSpec(dataset, books_config(), machines=GOLDEN_MACHINES)
    return ExperimentRun(spec).run()


def _schedule_digest(schedule) -> str:
    """A stable digest of the scheduler's decisions (not the estimates:
    those are floats whose exact values the counters already pin)."""
    canonical = json.dumps(
        {
            "num_tasks": schedule.num_tasks,
            "assignment": dict(sorted(schedule.assignment.items())),
            "block_order": schedule.block_order,
            # Key and value kept from the retired SQ stride so the pinned
            # digests stay byte-identical.
            "sequence_stride": sum(len(o) for o in schedule.block_order) + 1,
            "shards": sorted(schedule.shards),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_golden_shape() -> dict:
    """Run the pinned scenario and reduce it to a JSON-stable shape."""
    run = _golden_run()
    result = run.result
    schedule = result.schedule
    counters = {
        key: value
        for key, value in sorted(result.job2.counters.as_flat_dict().items())
        if key.startswith(("driver.", "balance."))
    }
    return {
        "dataset": {
            "name": result.dataset.name,
            "entities": len(result.dataset.entities),
            "true_pairs": len(result.dataset.true_pairs),
        },
        "schedule": {
            "digest": _schedule_digest(schedule),
            "num_tasks": schedule.num_tasks,
            "num_trees": schedule.num_trees,
            "num_blocks": schedule.num_blocks,
        },
        "first_events": [
            [round(event.time, 6), list(event.payload)]
            for event in result.duplicate_events[:EVENT_PREFIX]
        ],
        "found_pairs": len(run.found_pairs),
        "final_recall": round(run.final_recall, 9),
        "total_time": round(run.total_time, 6),
        "counters": counters,
    }


def test_golden_pipeline_shape_is_stable():
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_pipeline.py`"
    )
    expected = json.loads(FIXTURE.read_text())
    actual = build_golden_shape()
    assert actual["dataset"] == expected["dataset"]
    assert actual["schedule"] == expected["schedule"]
    assert actual["counters"] == expected["counters"]
    assert actual["first_events"] == expected["first_events"]
    assert actual["found_pairs"] == expected["found_pairs"]
    assert actual["final_recall"] == pytest.approx(
        expected["final_recall"], abs=1e-9
    )
    assert actual["total_time"] == pytest.approx(expected["total_time"], abs=1e-6)


def test_golden_scenario_is_not_vacuous():
    """Guard against the fixture pinning a run that resolves nothing."""
    shape = build_golden_shape()
    assert shape["found_pairs"] > 0
    assert shape["final_recall"] > 0.5
    assert len(shape["first_events"]) == EVENT_PREFIX
    assert shape["counters"].get("driver.blocks_resolved", 0) > 0
    # The default run uses slack balance: present in counters, no shards.
    assert shape["counters"].get("balance.shards") == 0
    assert "balance.gini_before_milli" in shape["counters"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(build_golden_shape(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")
