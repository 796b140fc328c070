"""Golden-trace regression test for a fixed-seed faulty run.

A small wordcount job runs under a pinned :class:`FaultPlan` (crashes
retried with backoff) and its exported Chrome trace is reduced to
a *shape*: event names, categories, phase letters, track assignments and
fault annotations — everything except timestamps, which are a separate
concern (pinned numerically by the parity suites).  The shape is stored in
``tests/fixtures/golden_fault_trace.json``; any change to span naming,
attempt emission or fault accounting shows up as a readable JSON diff.

Regenerate the fixture after an intentional change with::

    PYTHONPATH=src python tests/test_golden_fault_trace.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.mapreduce import (
    Cluster,
    FaultPlan,
    MapReduceJob,
    Mapper,
    Reducer,
    RetryPolicy,
)
from repro.observability import Tracer, chrome_trace_events

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fault_trace.json"

#: The pinned scenario: moderate crash rate, retries with backoff.
GOLDEN_PLAN = FaultPlan(
    seed=2024,
    fault_rate=0.25,
    retry=RetryPolicy(max_attempts=20, backoff_base=0.5),
)

_LINES = [
    "the quick brown fox",
    "jumps over the lazy dog",
    "the dog barks",
    "fox fox fox",
    "pack my box with five dozen jugs",
    "sphinx of black quartz judge my vow",
] * 3


class _WordMapper(Mapper):
    def map(self, record, context):
        for word in record.split():
            context.emit(word, 1)


class _SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.charge(0.5 * len(values))
        context.write((key, sum(values)))


def _golden_job():
    return MapReduceJob(_WordMapper, _SumReducer, name="golden", alpha=2.0)


def build_golden_shape() -> dict:
    """Run the pinned scenario and reduce its trace to a timestamp-free
    shape (plus the fault counters, which the trace must agree with)."""
    tracer = Tracer()
    result = Cluster(2, tracer=tracer, faults=GOLDEN_PLAN).run_job(
        _golden_job(), _LINES
    )
    events = []
    for event in chrome_trace_events(tracer):
        args = event.get("args", {})
        shape = {
            "name": event["name"],
            "ph": event["ph"],
            "tid": event["tid"],
        }
        if "cat" in event:
            shape["cat"] = event["cat"]
        for marker in ("failed", "attempt"):
            if args.get(marker):
                shape[marker] = args[marker]
        events.append(shape)
    events.sort(key=lambda e: json.dumps(e, sort_keys=True))
    fault_counters = {
        key: value
        for key, value in sorted(result.counters.as_flat_dict().items())
        if key.startswith("fault.")
    }
    return {"events": events, "fault_counters": fault_counters}


def test_golden_fault_trace_shape_is_stable():
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        "`PYTHONPATH=src python tests/test_golden_fault_trace.py`"
    )
    expected = json.loads(FIXTURE.read_text())
    actual = build_golden_shape()
    assert actual["fault_counters"] == expected["fault_counters"]
    assert actual["events"] == expected["events"]


def test_golden_scenario_actually_exercises_faults():
    """Guard against the fixture silently pinning a fault-free run."""
    shape = build_golden_shape()
    counters = shape["fault_counters"]
    assert counters.get("fault.map_failed_attempts", 0) + counters.get(
        "fault.reduce_failed_attempts", 0
    ) > 0
    assert any(e.get("failed") for e in shape["events"])
    assert any(e.get("cat") == "task" and e.get("attempt") for e in shape["events"])


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(build_golden_shape(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")
