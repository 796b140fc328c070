"""Smoke checks of the benchmark harness itself: ``pytest benchmarks/e2e -q``.

Not part of tier-1 (``testpaths`` stays ``tests``).  One ``--smoke`` run of
two rounds is shared by the tests that read its report; sizes are a tenth
of the real ones, so the numbers mean nothing — only their shape does.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
ROUNDS = 2


def run_harness(*arguments: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *arguments],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    done = run_harness("--smoke", "--rounds", str(ROUNDS), "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


def test_benchmark_json_is_the_spec_and_fits_the_schema():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert benchmark == spec.benchmark_json()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    assert isinstance(benchmark["run_seconds"], int) and 1 <= benchmark["run_seconds"] <= 60
    for workload in benchmark["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in benchmark["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in benchmark["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])


def test_every_name_and_unit_is_well_formed_and_used_once():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + list(spec.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec.END_TO_END + spec.PER_LAYER:
        assert UNIT.match(metric.unit), metric
        assert metric.better in ("higher", "lower"), metric
    layer_names = {m.name for m in spec.PER_LAYER}
    assert set(spec.SELF_TIME_OF.values()) <= layer_names


def test_self_times_add_up_to_the_root_span():
    class Layers:
        @staticmethod
        def kernel():
            return sum(range(2000))

        @staticmethod
        def inner():
            return [Layers.kernel() for _ in range(20)]

        @staticmethod
        def outer():
            return Layers.inner(), Layers.inner()

    tracer = spans.SpanTracer()
    tracer.wrap(Layers, "outer", "outer")
    tracer.wrap(Layers, "inner", "inner", keep=False)
    tracer.wrap_leaf(Layers, "kernel", "kernel")
    with tracer.span("run"):
        Layers.outer()
    tracer.restore()
    assert Layers.kernel.__qualname__.endswith("Layers.kernel")  # originals are back
    assert (tracer.calls("outer"), tracer.calls("inner"), tracer.calls("kernel")) == (1, 2, 40)
    assert sum(t[2] for t in tracer.totals.values()) == pytest.approx(tracer.inclusive("run"))
    assert tracer.self_time("inner") == pytest.approx(
        tracer.inclusive("inner") - tracer.inclusive("kernel")
    )
    assert [s[1] for s in tracer.spans] == ["outer", "run"]  # inner keeps totals only
    assert tracer.spans[0][4] == tracer.spans[1][0]  # outer's parent is the root


def test_smoke_report_has_every_metric_where_it_is_defined(smoke):
    assert smoke["ok"], smoke["problems"]
    assert set(smoke["workloads"]) == set(spec.WORKLOAD_NAMES)
    for name, entry in smoke["workloads"].items():
        expected = {m.name for m in spec.END_TO_END if spec.defined_on(m, name)}
        assert set(entry["end_to_end"]) == expected
        for row in entry["end_to_end"].values():
            assert row["n"] == ROUNDS and row["q1"] <= row["median"] <= row["q3"]
        assert set(entry["per_layer"]) == {m.name for m in spec.PER_LAYER}
        assert entry["ops_attempted"] >= ROUNDS + 1
        for key in ("cpus_visible", "python", "numpy", "load1_start", "load1_end",
                    "parallelism_limited", "noisy"):
            assert key in entry["host"]


def test_smoke_layer_table_sums_to_the_traced_run(smoke):
    for name, entry in smoke["workloads"].items():
        assert entry["per_layer"]["trace.layer_sum_frac"] == pytest.approx(1.0, abs=0.02), name


def test_smoke_digests_repeat_and_cross_checks_hold(smoke):
    # A digest that differs between the two rounds (or the traced repeat)
    # counts as a failed operation; process == serial and stream == one
    # submit are the verification pass, reported under "problems".
    assert smoke["problems"] == []
    workloads = smoke["workloads"]
    assert all(entry["ops_failed"] == 0 for entry in workloads.values())
    assert workloads["books_process"]["digest"] == workloads["books_oneshot"]["digest"]
    for metric in ("final_recall", "virt_makespan_vu", "virt_t50_vu"):
        assert (
            workloads["books_process"]["end_to_end"][metric]["values"]
            == workloads["books_oneshot"]["end_to_end"][metric]["values"]
        )


def test_smoke_chrome_trace_loads(smoke):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.observability import validate_chrome_trace

    for entry in smoke["workloads"].values():
        events = json.loads(Path(entry["trace_file"]).read_text())
        validate_chrome_trace(events)
        assert any(e["ph"] == "X" and e["name"] == "run" for e in events)


@pytest.mark.parametrize("trace, metrics", [("0", spec.END_TO_END), ("1", spec.PER_LAYER)])
def test_driver_line_has_exactly_the_contract_keys(trace, metrics):
    done = run_harness(
        "--workload", "citeseer_oneshot", "--smoke", "--seed", "4",
        "--seconds", "1", "--trace", trace,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in metrics}
    units = {m.name: m.unit for m in metrics}
    for name, value in result["metrics"].items():
        assert set(value) == {"value", "unit"} and value["unit"] == units[name]
        assert isinstance(value["value"], (int, float))


def test_refuses_to_report_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_harness(
        "--workload", "books_oneshot", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
