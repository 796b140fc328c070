"""The driver seam shared by batch experiments and the incremental service.

A :class:`ResolverSession` owns exactly one configured cluster — executor
backend, fault plan, tracer, metrics, balance strategy — built from a
:class:`~repro.evaluation.experiment.RunSpec`.  Two consumers sit on top:

* :class:`~repro.evaluation.experiment.ExperimentRun` calls
  :meth:`run_one_shot` — the classic resolve-everything batch run;
* :class:`~repro.service.resolver.ResolverService` calls :meth:`run_job`
  per submitted batch — the incremental delta path.

Both go through the same :meth:`~repro.mapreduce.engine.Cluster.run_job`,
so a fault plan stretches delta timelines exactly as it stretches batch
timelines, and tracer spans land in one timeline regardless of which API
drove the work.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..baselines.basic import BasicER
from ..core.driver import ProgressiveER
from ..mapreduce.clock import CostModel
from ..mapreduce.engine import Cluster, JobResult
from ..mapreduce.executors import make_executor
from ..mapreduce.job import MapReduceJob

#: Slots per machine of the paper's cluster (Section VI-A1).
PAPER_MAP_SLOTS = 2
PAPER_REDUCE_SLOTS = 2


def build_cluster(spec: "RunSpec") -> Cluster:
    """A paper-shaped cluster configured from the spec."""
    executor = spec.executor
    if executor is None and spec.backend is not None:
        executor = make_executor(spec.backend, spec.workers)
    return Cluster(
        spec.machines,
        map_slots=PAPER_MAP_SLOTS,
        reduce_slots=PAPER_REDUCE_SLOTS,
        cost_model=spec.cost_model if spec.cost_model is not None else CostModel(),
        executor=executor,
        tracer=spec.tracer,
        metrics=spec.metrics,
        faults=spec.faults,
    )


class ResolverSession:
    """One configured cluster plus the drivers that run work on it."""

    def __init__(self, spec: "RunSpec") -> None:
        spec.validate()
        self.spec = spec
        self.cluster = build_cluster(spec)

    # -- shared plumbing ---------------------------------------------------

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

    # -- the one-shot batch driver ----------------------------------------

    def run_one_shot(self) -> "RunResult":
        """Resolve ``spec.dataset`` end to end and build its recall curve."""
        from ..evaluation.experiment import RunResult
        from ..evaluation.metrics import recall_curve

        spec = self.spec
        if spec.dataset is None:
            raise ValueError(
                "one-shot runs need spec.dataset; the incremental service "
                "is the API for dataset-less sessions"
            )
        label = spec.resolved_label()
        self.begin_run(label)
        if spec.is_basic:
            result = BasicER(spec.config, self.cluster).run(spec.dataset)
        else:
            result = ProgressiveER(
                spec.config,
                self.cluster,
                strategy=spec.strategy,
                seed=spec.seed,
                balance=spec.balance,
                metablock=spec.metablock,
            ).run(spec.dataset)
        if spec.metrics is not None and getattr(result, "balance", None) is not None:
            spec.metrics.snapshot(
                "balance",
                {
                    f"balance.{name}": value
                    for name, value in result.balance.counter_items().items()
                },
                strategy=result.balance.strategy,
            )
        curve = recall_curve(
            result.duplicate_events, spec.dataset, end_time=result.total_time
        )
        return RunResult(
            label=label,
            curve=curve,
            result=result,
            spec=spec,
            tracer=spec.tracer,
            metrics=spec.metrics,
        )


__all__ = [
    "PAPER_MAP_SLOTS",
    "PAPER_REDUCE_SLOTS",
    "build_cluster",
    "ResolverSession",
]
