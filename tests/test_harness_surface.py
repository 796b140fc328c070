"""The wall-clock harness's wrap points stay live.

``benchmarks/e2e/spans.py`` times each layer by swapping a module or class
attribute for a wrapper while a run is going, so a layer is only measured
if the program looks that name up at call time.  A refactor that binds
one of them at import time (``from ... import recall_curve``) makes its
span read zero on every workload without failing anything else.  This
test installs the harness's wrappers, runs the three kinds of work the
benchmark runs — a one-shot run, a meta-blocked linkage run and a
two-batch incremental service — and checks that every span recorded a
call.  ``edit_distance.levenshtein`` is left out: every compared pair
goes through the packed kernel, which the harness does not wrap.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import ExperimentRun, ResolverService, RunSpec, books_config
from repro.core.config import linkage_config
from repro.data import make_books, make_linkage

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "spans.py"

#: Spans every run of the benchmark's workload kinds together must record.
LIVE_SPANS = (
    "statistics.job1",
    "estimation.fit",
    "estimation.model",
    "schedule.generate",
    "balance.apply",
    "mechanisms.resolve_block",
    "engine.run_job",
    "similarity.decisions",
    "evaluation.recall_curve",
    "service.submit",
    "service.plan_delta",
    "service.run_job",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_entry_point_is_reached():
    spans = load_spans()
    tracer = spans.SpanTracer()
    try:
        spans.install(tracer, spans.Tally(), capture_payloads=False)
        ExperimentRun(RunSpec(make_books(600, seed=1), books_config(), machines=3)).run()
        assert tracer.calls("metablock.plan") == 0
        ExperimentRun(
            RunSpec(make_linkage(600, seed=1), linkage_config(), machines=3, metablock="wnp")
        ).run()
        assert tracer.calls("metablock.plan") == 1
        stream = make_books(300, seed=2).entities
        service = ResolverService(books_config(), machines=2)
        service.submit(stream[:150])
        service.submit(stream[150:])
    finally:
        tracer.restore()
    silent = [name for name in LIVE_SPANS if tracer.calls(name) == 0]
    assert not silent, f"spans that recorded no call: {silent}"
