"""Helpers for consuming incremental job output.

Section III-B: "the resolution results at any instance of time during the
resolution process can be simply obtained by merging all completely written
files up to that time."
"""

from __future__ import annotations

from typing import Any, List

from .types import JobResult


def results_available_at(job: JobResult, time: float) -> List[Any]:
    """Merge all output files completely written by ``time``.

    This is the consumer-side view of progressive output: a file's records
    become visible only once the file is closed.
    """
    merged: List[Any] = []
    for f in sorted(job.output_files, key=lambda f: (f.close_time, f.task_id, f.index)):
        if f.close_time <= time:
            merged.extend(f.records)
    return merged


__all__ = ["results_available_at"]
