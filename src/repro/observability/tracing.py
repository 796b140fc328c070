"""Structured tracing of the simulated cluster, in virtual time.

The paper's contribution is a *rate* — recall as a function of time — so
understanding a run means seeing where that time goes: which map wave
stalls the shuffle, which reduce task grinds through an overflowed tree,
which blocks dominate a schedule.  A :class:`Tracer` records a hierarchy
of spans over the **virtual** timeline the engine already computes:

``job → phase → task attempt → per-block resolution``

* **job / phase** spans come straight from the engine's phase boundaries
  (``start_time`` / ``map_phase_end`` / ``end_time``);
* **task / attempt** spans come from
  :class:`~repro.mapreduce.faults.FaultScheduler` placements (one span per
  attempt, failed attempts included), carrying the slot index so a viewer
  lays tasks out one row per slot.  Each crashed attempt is an
  ``"attempt"`` span flagged ``failed=True`` and the winning attempt is
  the ``"task"`` span, annotated with its attempt ordinal only when it is
  a retry — so a fault-free run carries no fault markers;
* **block / setup** spans are recorded *inside* tasks as
  :class:`~repro.mapreduce.types.SpanFragment` objects in task-local time
  and rebased by the engine — they travel in the task payload, so the
  serial and process backends emit bit-identical traces.

Tracing is strictly an observer: recording a span never charges virtual
cost, so events, counters and recall curves are identical with and without
a tracer attached (pinned by ``tests/test_trace_parity.py``).  When no
tracer is attached the engine skips every recording call — zero cost.

Exporters live in :mod:`repro.observability.export`: Chrome
``trace_event`` JSON (open in ``chrome://tracing`` or https://ui.perfetto.dev),
a JSONL event log, and a terminal per-task Gantt/skew summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Track index reserved for job- and phase-level spans; slot ``s`` of a
#: phase's slot pool maps to track ``s + 1``.
SCHEDULER_TRACK = 0


@dataclass(frozen=True)
class Span:
    """One closed interval of virtual time on a track.

    Attributes:
        name: human-readable label (``"map-3"``, ``"resolve:X2:ab"``).
        category: span class — ``"job"``, ``"phase"``, ``"task"``,
            ``"attempt"``, ``"block"`` or ``"setup"``.
        start / end: global virtual time bounds.
        job: name of the job the span belongs to.
        run: experiment-run label (empty outside an experiment harness).
        track: rendering lane — :data:`SCHEDULER_TRACK` for job/phase
            spans, ``slot + 1`` for spans executed on a slot.
        args: sorted ``(key, value)`` annotations (hashable, JSON-safe).
    """

    name: str
    category: str
    start: float
    end: float
    job: str
    run: str = ""
    track: int = SCHEDULER_TRACK
    args: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def arg(self, key: str, default: Any = None) -> Any:
        """Value of one annotation key."""
        for k, v in self.args:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class Instant:
    """A point occurrence on the virtual timeline (e.g. an output-file
    flush making incremental duplicates readable)."""

    name: str
    category: str
    time: float
    job: str
    run: str = ""
    track: int = SCHEDULER_TRACK
    args: Tuple[Tuple[str, Any], ...] = ()

    def arg(self, key: str, default: Any = None) -> Any:
        for k, v in self.args:
            if k == key:
                return v
        return default


def freeze_args(args: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Normalize an annotation dict into the sorted-tuple form spans use."""
    return tuple(sorted(args.items()))


class Tracer:
    """Append-only sink for spans and instants, in recording order.

    One tracer can span several runs (the CLI's ``compare`` records every
    approach into one file); :meth:`begin_run` labels everything recorded
    until the next call.  The tracer itself is passive — the engine and the
    task contexts decide *what* to record; see the module docstring for the
    span hierarchy.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self._run_label = ""

    # -- recording ------------------------------------------------------

    def begin_run(self, label: str) -> None:
        """Label subsequently recorded spans with ``label``."""
        self._run_label = label

    def record_span(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        *,
        job: str,
        track: int = SCHEDULER_TRACK,
        **args: Any,
    ) -> None:
        """Record one closed span (global virtual time)."""
        self.spans.append(
            Span(
                name=name,
                category=category,
                start=start,
                end=end,
                job=job,
                run=self._run_label,
                track=track,
                args=freeze_args(args),
            )
        )

    def record_instant(
        self,
        name: str,
        category: str,
        time: float,
        *,
        job: str,
        track: int = SCHEDULER_TRACK,
        **args: Any,
    ) -> None:
        """Record one point event (global virtual time)."""
        self.instants.append(
            Instant(
                name=name,
                category=category,
                time=time,
                job=job,
                run=self._run_label,
                track=track,
                args=freeze_args(args),
            )
        )

    # -- queries --------------------------------------------------------

    def jobs(self) -> List[Tuple[str, str]]:
        """Distinct ``(run, job)`` pairs in first-recorded order."""
        seen: Dict[Tuple[str, str], None] = {}
        for span in self.spans:
            seen.setdefault((span.run, span.job), None)
        for instant in self.instants:
            seen.setdefault((instant.run, instant.job), None)
        return list(seen)

    def spans_of(
        self, run: str, job: str, *, category: str | None = None
    ) -> List[Span]:
        """Spans of one job, optionally filtered by category."""
        return [
            s
            for s in self.spans
            if s.run == run
            and s.job == job
            and (category is None or s.category == category)
        ]

    def span_set(self) -> "frozenset[Span]":
        """Order-independent span identity — the cross-backend parity
        invariant (`serial` and `process` must emit the same set)."""
        return frozenset(self.spans)

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(spans={len(self.spans)}, instants={len(self.instants)})"


__all__ = [
    "SCHEDULER_TRACK",
    "Span",
    "Instant",
    "Tracer",
    "freeze_args",
]
