"""Unit tests for the observability layer: tracer, exporters, metrics."""

from __future__ import annotations

import json

import pytest

from repro.mapreduce import Counters
from repro.observability import (
    CHROME_PHASES,
    SCHEDULER_TRACK,
    MetricsRegistry,
    Span,
    TS_SCALE,
    Tracer,
    chrome_trace_events,
    format_trace_summary,
    validate_chrome_trace,
    write_chrome_trace,
)


def _sample_tracer() -> Tracer:
    """A tiny hand-built trace: one run, one job, two slots."""
    tracer = Tracer()
    tracer.begin_run("demo")
    tracer.record_span("wordcount", "job", 0.0, 20.0, job="wordcount")
    tracer.record_span("map", "phase", 0.0, 8.0, job="wordcount")
    tracer.record_span("reduce", "phase", 8.0, 20.0, job="wordcount")
    tracer.record_span(
        "map-0", "task", 0.0, 8.0, job="wordcount", track=1, task=0, phase="map"
    )
    tracer.record_span(
        "reduce-0", "task", 8.0, 20.0, job="wordcount", track=1, task=0, phase="reduce"
    )
    tracer.record_span(
        "resolve:X1:a", "block", 9.0, 15.0, job="wordcount", track=1,
        task=0, duplicates=3,
    )
    tracer.record_instant(
        "flush-0.0", "flush", 15.0, job="wordcount", track=1, task=0
    )
    return tracer


class TestTracer:
    def test_record_and_query(self):
        tracer = _sample_tracer()
        assert len(tracer) == 7  # six spans + one instant
        assert tracer.jobs() == [("demo", "wordcount")]
        assert len(tracer.spans_of("demo", "wordcount")) == 6
        tasks = tracer.spans_of("demo", "wordcount", category="task")
        assert [s.name for s in tasks] == ["map-0", "reduce-0"]

    def test_run_label_applies_from_begin_run(self):
        tracer = Tracer()
        tracer.record_span("early", "job", 0.0, 1.0, job="j")
        tracer.begin_run("second")
        tracer.record_span("late", "job", 0.0, 1.0, job="j")
        assert [s.run for s in tracer.spans] == ["", "second"]
        assert tracer.jobs() == [("", "j"), ("second", "j")]

    def test_span_args_sorted_and_queryable(self):
        tracer = Tracer()
        tracer.record_span("s", "block", 0.0, 1.0, job="j", zeta=1, alpha=2)
        span = tracer.spans[0]
        assert span.args == (("alpha", 2), ("zeta", 1))
        assert span.arg("zeta") == 1
        assert span.arg("missing", 42) == 42
        assert span.duration == pytest.approx(1.0)

    def test_span_set_is_order_independent(self):
        a, b = Tracer(), Tracer()
        a.record_span("x", "task", 0.0, 1.0, job="j")
        a.record_span("y", "task", 1.0, 2.0, job="j")
        b.record_span("y", "task", 1.0, 2.0, job="j")
        b.record_span("x", "task", 0.0, 1.0, job="j")
        assert a.span_set() == b.span_set()


class TestChromeExport:
    def test_export_validates(self):
        events = chrome_trace_events(_sample_tracer())
        validate_chrome_trace(events)  # must not raise
        assert {e["ph"] for e in events} <= set(CHROME_PHASES)

    def test_scheduler_lane_has_nested_b_e_pairs(self):
        events = chrome_trace_events(_sample_tracer())
        lane = [
            e["ph"]
            for e in events
            if e["tid"] == SCHEDULER_TRACK and e["ph"] in ("B", "E")
        ]
        # job opens, two phases open/close in order, job closes
        assert lane == ["B", "B", "E", "B", "E", "E"]

    def test_task_spans_become_complete_events(self):
        events = chrome_trace_events(_sample_tracer())
        x_events = [e for e in events if e["ph"] == "X"]
        names = {e["name"] for e in x_events}
        assert {"map-0", "reduce-0", "resolve:X1:a"} <= names
        block = next(e for e in x_events if e["name"] == "resolve:X1:a")
        assert block["ts"] == pytest.approx(9.0 * TS_SCALE)
        assert block["dur"] == pytest.approx(6.0 * TS_SCALE)
        assert block["args"]["duplicates"] == 3

    def test_write_round_trips_through_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(_sample_tracer(), str(path))
        loaded = json.loads(path.read_text())
        validate_chrome_trace(loaded)
        assert loaded == chrome_trace_events(_sample_tracer())


class TestChromeValidation:
    def test_rejects_non_array(self):
        with pytest.raises(ValueError, match="JSON array"):
            validate_chrome_trace({"not": "a list"})

    def test_rejects_non_object_event(self):
        with pytest.raises(ValueError, match="not an object"):
            validate_chrome_trace(["bare string"])

    def test_rejects_missing_required_key(self):
        with pytest.raises(ValueError, match="required key"):
            validate_chrome_trace([{"name": "x", "ph": "X", "pid": 0, "tid": 0}])

    def test_rejects_unknown_phase_letter(self):
        event = {"name": "x", "ph": "Q", "pid": 0, "tid": 0, "ts": 0.0}
        with pytest.raises(ValueError, match="phase letter"):
            validate_chrome_trace([event])

    def test_rejects_x_without_dur(self):
        event = {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 0.0}
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace([event])

    def test_rejects_unbalanced_end(self):
        event = {"name": "x", "ph": "E", "pid": 0, "tid": 0, "ts": 0.0}
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace([event])

    def test_rejects_unclosed_begin(self):
        event = {"name": "x", "ph": "B", "pid": 0, "tid": 0, "ts": 0.0}
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace([event])


class TestTraceSummary:
    def test_summary_shows_phases_and_block_counts(self):
        text = format_trace_summary(_sample_tracer())
        assert "demo:wordcount" in text
        assert "map" in text and "reduce" in text
        assert "blocks    1" in text
        assert "dups    3" in text

    def test_empty_tracer(self):
        assert format_trace_summary(Tracer()) == "(empty trace)"

    def test_rejects_unreadable_width(self):
        with pytest.raises(ValueError):
            format_trace_summary(_sample_tracer(), width=4)


class TestMetricsRegistry:
    def test_snapshot_flattens_counters(self):
        counters = Counters()
        counters.increment("engine", "map_records", 7)
        counters.increment("driver", "duplicates", 2)
        registry = MetricsRegistry()
        registry.snapshot("job/map", counters, backend="serial")
        assert len(registry) == 1
        snap = registry.snapshots[0]
        assert snap.scope == "job/map"
        assert snap.get("engine.map_records") == 7
        assert snap.get("driver.duplicates") == 2
        assert snap.get("absent") == 0
        assert snap.as_dict() == {
            "scope": "job/map",
            "counters": {"driver.duplicates": 2, "engine.map_records": 7},
            "backend": "serial",
        }

    def test_snapshot_accepts_flat_mapping(self):
        registry = MetricsRegistry()
        registry.snapshot("matcher", {"matcher.cache_hits": 5})
        assert registry.snapshots[0].get("matcher.cache_hits") == 5

    def test_begin_run_prefixes_scope(self):
        registry = MetricsRegistry()
        registry.begin_run("ours[lpt]")
        registry.snapshot("job/map")
        assert registry.snapshots[0].scope == "ours[lpt]:job/map"
        assert registry.scoped("job/map") == [registry.snapshots[0]]
        assert registry.scoped("job/reduce") == []

    def test_write_json_round_trips(self, tmp_path):
        registry = MetricsRegistry()
        registry.snapshot("a", {"x.y": 1}, note="n")
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        assert json.loads(path.read_text()) == registry.as_dict()


class TestEndToEndExport:
    """A real (small) run exports a valid Chrome trace with full coverage."""

    def test_progressive_run_trace_is_perfetto_loadable(
        self, citeseer_small, citeseer_cfg, tmp_path
    ):
        from repro.evaluation import ExperimentRun, RunSpec

        tracer = Tracer()
        metrics = MetricsRegistry()
        run = ExperimentRun(
            RunSpec(
                citeseer_small, citeseer_cfg, machines=3,
                tracer=tracer, metrics=metrics,
            )
        ).run()

        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        events = json.loads(path.read_text())
        validate_chrome_trace(events)

        x_names = {e["name"] for e in events if e["ph"] == "X"}
        assert "schedule-generation" in x_names
        assert any(name.startswith("resolve:") for name in x_names)
        assert any(name.startswith("stats:") for name in x_names)
        # Both jobs appear as named processes.
        process_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert process_names == {
            f"{run.label}:progressive-blocking-statistics",
            f"{run.label}:progressive-resolution",
        }
        # Per-phase engine snapshots of both jobs plus the balance snapshot.
        scopes = {s.scope for s in metrics.snapshots}
        assert scopes == {
            f"{run.label}:{job}/{phase}"
            for job in ("progressive-blocking-statistics", "progressive-resolution")
            for phase in ("map", "reduce")
        } | {f"{run.label}:balance"}
