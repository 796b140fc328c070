"""Wall-clock spans around each layer's entry point, recorded from outside.

Nothing under ``src/`` knows it is being traced: for the length of one
traced run, ``install`` swaps a layer's public entry point (the name its
caller imported) for a timing wrapper and ``SpanTracer.restore`` puts the
originals back.  A span records name, start, end and parent; a layer's
*self time* is its span minus what its child spans cover, so the self
times of one run add up to that run's wall time by construction.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``MapReduceJob.name`` prefix -> the job kind used in span names.  Longest
#: prefix first: Job 1's name starts with Job 2's.
JOB_KINDS = (
    ("progressive-blocking-statistics", "job1"),
    ("progressive-resolution", "job2"),
    ("delta-resolution", "delta"),
)


def job_kind(job_name: str) -> str:
    for prefix, kind in JOB_KINDS:
        if job_name.startswith(prefix):
            return kind
    raise KeyError(f"no span name for job {job_name!r}; add it to JOB_KINDS")


class SpanTracer:
    """In-memory spans plus per-name totals; written out when the run ends."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id or None), in closing order.
        self.spans: List[Tuple[int, str, float, float, Optional[int]]] = []
        #: name -> [calls, inclusive seconds, self seconds].
        self.totals: Dict[str, List[float]] = {}
        #: Open spans, innermost last: [id, seconds its children covered].
        self._stack: List[List[float]] = []
        self._next_id = 0
        self._originals: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the ``with`` body (the run's root)."""
        frame, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, parent, start, perf_counter(), True)

    def _open(self) -> Tuple[List[float], Optional[int]]:
        stack = self._stack
        parent = int(stack[-1][0]) if stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        stack.append(frame)
        return frame, parent

    def _close(
        self, name: str, frame: List[float], parent: Optional[int],
        start: float, end: float, keep: bool,
    ) -> None:
        stack = self._stack
        stack.pop()
        spent = end - start
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += spent
        total[2] += spent - frame[1]
        if stack:
            stack[-1][1] += spent
        if keep:
            self.spans.append((int(frame[0]), name, start, end, parent))

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        *,
        keep: bool = True,
        name_of: Optional[Callable[..., str]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records ``span``.

        ``name_of(*args)`` derives the span name per call (executor phases
        are split by job); ``after(result)`` sees each return value
        outside the span; ``keep=False`` books totals only, for entry
        points called tens of thousands of times.
        """
        original = getattr(owner, attr)
        tracer = self

        def timed(*args: Any, **kwargs: Any) -> Any:
            name = span if name_of is None else name_of(*args)
            frame, parent = tracer._open()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(name, frame, parent, start, perf_counter(), keep)
            if after is not None:
                after(result)
            return result

        self._swap(owner, attr, original, timed)

    def wrap_leaf(self, owner: Any, attr: str, span: str) -> None:
        """Count + total only, for a kernel called >10^4 times that calls
        nothing traced: no stack frame, no span record."""
        original = getattr(owner, attr)
        total = self.totals.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            result = original(*args, **kwargs)
            spent = perf_counter() - start
            total[0] += 1
            total[1] += spent
            total[2] += spent
            if stack:
                stack[-1][1] += spent
            return result

        self._swap(owner, attr, original, timed)

    def tap(self, owner: Any, attr: str, after: Callable[[Any], None]) -> None:
        """Let ``after`` see every return value of ``owner.attr``, untimed."""
        original = getattr(owner, attr)

        def tapped(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            after(result)
            return result

        self._swap(owner, attr, original, tapped)

    def _swap(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        self._originals.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def write_chrome_trace(self, path: Path, *, process_name: str) -> None:
        """Chrome ``trace_event`` JSON (load in Perfetto or chrome://tracing).

        One ``X`` event per kept span on one lane; ``args`` carry the span
        and parent ids.  Totals-only names (the kernels) ride as one
        instant event each at time zero, so their weight is still visible.
        """
        origin = min((s[2] for s in self.spans), default=0.0)
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "ts": 0,
             "args": {"name": process_name}},
        ]
        for span_id, name, start, end, parent in sorted(self.spans, key=lambda s: s[2]):
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent},
            })
        kept = {s[1] for s in self.spans}
        for name, (calls, inclusive, own) in sorted(self.totals.items()):
            if name not in kept:
                events.append({
                    "name": f"{name} (totals only)", "cat": "totals", "ph": "i",
                    "s": "p", "pid": 1, "tid": 1, "ts": 0,
                    "args": {"calls": calls, "inclusive_s": inclusive, "self_s": own},
                })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(events))


class Tally:
    """What the taps collect while a traced run is going."""

    def __init__(self) -> None:
        self.drained: Dict[str, int] = {}
        self.task_busy_ns = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.map_payloads: List[Any] = []
        self.reduce_payloads: List[Any] = []


def install(tracer: SpanTracer, tally: Tally, *, capture_payloads: bool) -> None:
    """Wrap every layer boundary the benchmark reports on.

    The targets are the names each caller imported (``core.driver``'s view
    of the pipeline stages, ``service.resolver``'s view of ``plan_delta``),
    so the program's own call sites pick the wrappers up unchanged.
    """
    from repro.core import driver
    from repro.core.estimation import LearnedEstimator
    from repro.evaluation import metrics as evaluation_metrics
    from repro.mapreduce.engine import Cluster
    from repro.mapreduce.executors import ParallelExecutor, SerialExecutor
    from repro.service import resolver
    from repro.service.session import ResolverSession
    from repro.similarity import edit_distance, matchers
    from repro.similarity.batch import BatchMatcher
    from repro.similarity.matchers import similarity_cache_counters

    tracer.wrap(driver, "build_metablock_plan", "metablock.plan")
    tracer.wrap(driver, "run_statistics_job", "statistics.job1")
    tracer.wrap(LearnedEstimator, "fit", "estimation.fit")
    tracer.wrap(driver, "EstimationModel", "estimation.model")
    tracer.wrap(driver, "generate_schedule", "schedule.generate")
    tracer.wrap(driver, "apply_balance", "balance.apply")
    tracer.wrap(driver, "resolve_block", "mechanisms.resolve_block")

    def job_done(result: Any) -> None:
        # The similarity memo is reset when a job starts, so its counters
        # are read once per job, as the job ends.
        for task in result.map_tasks + result.reduce_tasks:
            tally.task_busy_ns += task.wall_ns
        memo = similarity_cache_counters()
        tally.memo_hits += memo.get("matcher", "cache_hits")
        tally.memo_misses += memo.get("matcher", "cache_misses")

    tracer.wrap(Cluster, "run_job", "engine.run_job", after=job_done)

    def drained(stats: Dict[str, int]) -> None:
        for name, value in stats.items():
            tally.drained[name] = tally.drained.get(name, 0) + value

    for executor in (SerialExecutor, ParallelExecutor):
        tracer.wrap(
            executor, "run_map_phase", "map",
            name_of=lambda self, job, *rest: f"{job_kind(job.name)}.map",
            after=tally.map_payloads.extend if capture_payloads else None,
        )
        tracer.wrap(
            executor, "run_reduce_phase", "reduce",
            name_of=lambda self, job, *rest: f"{job_kind(job.name)}.reduce",
            after=tally.reduce_payloads.extend if capture_payloads else None,
        )
    tracer.tap(ParallelExecutor, "drain_stats", drained)

    tracer.wrap(BatchMatcher, "decisions", "similarity.decisions", keep=False)
    tracer.wrap_leaf(edit_distance, "levenshtein", "edit_distance.levenshtein")
    tracer.wrap_leaf(matchers, "levenshtein", "edit_distance.levenshtein")

    tracer.wrap(resolver.ResolverService, "submit", "service.submit")
    tracer.wrap(resolver, "plan_delta", "service.plan_delta")
    tracer.wrap(ResolverSession, "run_job", "service.run_job")
    tracer.wrap(evaluation_metrics, "recall_curve", "evaluation.recall_curve")
