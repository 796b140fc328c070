"""The configured cluster a run executes on.

A :class:`ResolverSession` owns exactly one cluster — executor backend,
fault plan, tracer, metrics — built from a
:class:`~repro.evaluation.experiment.RunSpec`.  Both run APIs hold one:
:class:`~repro.evaluation.experiment.ExperimentRun` runs an approach's
driver on its cluster, and
:class:`~repro.service.resolver.ResolverService` calls :meth:`run_job`
once per submitted batch.  Every job goes through the same
:meth:`~repro.mapreduce.engine.Cluster.run_job`, so a fault plan stretches
delta timelines exactly as it stretches one-shot timelines, and tracer
spans land in one timeline whichever API drove the work.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..mapreduce.engine import Cluster, JobResult
from ..mapreduce.executors import make_executor
from ..mapreduce.job import MapReduceJob


def build_cluster(spec: "RunSpec") -> Cluster:
    """A paper-shaped cluster configured from the spec."""
    return Cluster(
        spec.machines,
        cost_model=spec.cost_model,
        executor=make_executor(spec.backend, spec.workers),
        tracer=spec.tracer,
        metrics=spec.metrics,
        faults=spec.faults,
    )


class ResolverSession:
    """One configured cluster, and the labeled runs recorded on it."""

    def __init__(self, spec: "RunSpec") -> None:
        spec.validate()
        self.spec = spec
        self.cluster = build_cluster(spec)

    def begin_run(self, label: str) -> None:
        """Open a labeled run on the attached tracer/metrics (if any)."""
        if self.spec.tracer is not None:
            self.spec.tracer.begin_run(label)
        if self.spec.metrics is not None:
            self.spec.metrics.begin_run(label)

    def run_job(
        self, job: MapReduceJob, records: Sequence[Any], *, start_time: float = 0.0
    ) -> JobResult:
        """Run one job on the session cluster (delta path entry point)."""
        return self.cluster.run_job(job, records, start_time=start_time)


__all__ = ["build_cluster", "ResolverSession"]
