"""Experiment harness: the unified run API behind the benchmarks and CLI.

Describe a run with a :class:`RunSpec`, execute it with
:class:`ExperimentRun`, get a :class:`RunResult` back — the same shape for
the progressive approach, its scheduler variants, and the Basic baseline.
Everything is seeded and deterministic::

    spec = RunSpec(dataset, citeseer_config(), machines=10)
    run = ExperimentRun(spec).run()
    run.final_recall, run.total_time, run.found_pairs

Attach a :class:`~repro.observability.Tracer` or
:class:`~repro.observability.MetricsRegistry` to the spec and the run is
recorded (see :mod:`repro.observability`); several specs may share one
tracer — each run is labeled via ``begin_run``.

``ExperimentRun`` is a thin one-shot wrapper over the
:class:`~repro.service.session.ResolverSession` seam — the same driver
path the incremental :class:`~repro.service.resolver.ResolverService`
uses, so batch experiments and streaming sessions share executor backends,
balance strategies, fault plans and tracer plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Set, Union

from ..baselines.basic import BasicConfig, BasicResult
from ..core.balance import BALANCE_STRATEGIES
from ..core.config import ApproachConfig
from ..core.driver import ProgressiveResult
from ..core.metablock import METABLOCK_MODES
from ..data.dataset import Dataset
from ..data.entity import Pair
from ..mapreduce.clock import CostModel
from ..mapreduce.executors import BACKENDS
from ..mapreduce.faults import FaultPlan
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import Tracer
from ..service.session import PAPER_MAP_SLOTS, PAPER_REDUCE_SLOTS, ResolverSession
from .metrics import RecallCurve

#: Tree schedulers of the progressive approach.
SCHEDULE_STRATEGIES = ("ours", "nosplit", "lpt")


@dataclass
class RunSpec:
    """Declarative description of one experiment run.

    The approach is inferred from ``config``'s type: a
    :class:`~repro.baselines.basic.BasicConfig` runs the Basic baseline, an
    :class:`~repro.core.config.ApproachConfig` runs the progressive
    approach under ``strategy``.

    Specs are validated at construction (see :meth:`validate`): strategy,
    balance, backend and the numeric knobs are checked up front so a typo
    fails with an actionable message instead of a deep-in-engine error.

    Attributes:
        dataset: the dataset to resolve (``None`` is allowed for specs that
            only configure a session, e.g. the incremental service).
        config: approach configuration (selects the approach, see above).
        machines: simulated cluster size (2 map + 2 reduce slots each).
        strategy: tree scheduler for the progressive approach — ``"ours"``,
            ``"nosplit"`` or ``"lpt"`` (ignored by Basic).
        balance: load-balancing post-pass for the progressive approach —
            ``"slack"`` (paper baseline, schedule untouched) or the global
            ``"pairrange"`` (ignored by Basic; see :mod:`repro.core.balance`).
        seed: seed for training-sample and cost-factor sampling.
        label: run label for reports and traces (default: derived).
        cost_model: virtual-time cost model (default: :class:`CostModel`).
        backend: execution-backend name, ``"serial"`` (the default) or
            ``"process"``.
        workers: worker processes for the ``process`` backend.
        tracer: record spans of this run (shared tracers accumulate).
        metrics: snapshot counters per phase (shared registries accumulate).
        faults: optional :class:`~repro.mapreduce.faults.FaultPlan`
            injecting seeded crashes and retries into every job of the
            run.  Deterministic and
            backend-independent; ``None`` (the default) runs fault-free.
        metablock: meta-blocking pre-pass for the progressive approach —
            ``"off"`` (default), ``"bf"`` (block filtering) or ``"wnp"``
            (weighted node pruning); ``bf``'s ratio lives on the config
            (``metablock_ratio``).  Rejected for
            Basic runs — the baseline has no schedule to prune.
    """

    dataset: Optional[Dataset]
    config: Union[ApproachConfig, BasicConfig]
    machines: int = 10
    strategy: str = "ours"
    balance: str = "slack"
    seed: int = 0
    label: Optional[str] = None
    cost_model: Optional[CostModel] = None
    backend: str = "serial"
    workers: Optional[int] = None
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    faults: Optional[FaultPlan] = None
    metablock: str = "off"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> "RunSpec":
        """Reject incoherent specs with actionable messages.

        Returns ``self`` so callers can chain:
        ``ExperimentRun(spec.validate())``.  Runs automatically at
        construction; call it again after mutating a spec in place.
        """
        problems: List[str] = []
        if not isinstance(self.config, (ApproachConfig, BasicConfig)):
            problems.append(
                f"config must be an ApproachConfig or BasicConfig, got "
                f"{type(self.config).__name__}"
            )
        if not isinstance(self.machines, int) or self.machines < 1:
            problems.append(
                f"machines must be a positive integer, got {self.machines!r}"
            )
        if self.strategy not in SCHEDULE_STRATEGIES:
            problems.append(
                f"unknown strategy {self.strategy!r}; pick one of "
                f"{SCHEDULE_STRATEGIES}"
            )
        if self.balance not in BALANCE_STRATEGIES:
            problems.append(
                f"unknown balance strategy {self.balance!r}; pick one of "
                f"{BALANCE_STRATEGIES}"
            )
        if self.backend not in BACKENDS:
            problems.append(
                f"unknown backend {self.backend!r}; pick one of {BACKENDS}"
            )
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < 1
        ):
            problems.append(
                f"workers must be a positive integer or None, got "
                f"{self.workers!r}"
            )
        if self.metablock not in METABLOCK_MODES:
            problems.append(
                f"unknown metablock mode {self.metablock!r}; pick one of "
                f"{METABLOCK_MODES}"
            )
        elif self.metablock != "off" and self.is_basic:
            problems.append(
                f"metablock={self.metablock!r} needs the progressive "
                "approach; the Basic baseline has no schedule to prune"
            )
        approach = self.config.approach if self.is_basic else self.config
        if (
            isinstance(approach, ApproachConfig)
            and approach.mode == "linkage"
            and self.dataset is not None
        ):
            # Linkage compares only across sources: with fewer than two
            # there is no pair to compare, and the run would find nothing.
            sources = {e.source for e in self.dataset.entities} - {None}
            if len(sources) < 2:
                problems.append(
                    f"linkage mode compares only across sources, but the "
                    f"dataset has {len(sources)} distinct source tag(s)"
                )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            problems.append(
                f"faults must be a FaultPlan or None, got "
                f"{type(self.faults).__name__}"
            )
        if problems:
            raise ValueError("invalid RunSpec: " + "; ".join(problems))
        return self

    @property
    def is_basic(self) -> bool:
        """True when ``config`` selects the Basic baseline."""
        return isinstance(self.config, BasicConfig)

    def resolved_label(self) -> str:
        """The explicit label, or one derived from the approach."""
        if self.label is not None:
            return self.label
        if self.is_basic:
            threshold = self.config.popcorn_threshold
            return f"basic[{'F' if threshold is None else threshold}]"
        if self.metablock != "off":
            return f"ours[{self.strategy}+{self.metablock}]"
        return f"ours[{self.strategy}]"


@dataclass
class RunResult:
    """One executed run: a labeled recall curve plus the raw result.

    ``result`` is the approach-specific object
    (:class:`~repro.core.driver.ProgressiveResult` or
    :class:`~repro.baselines.basic.BasicResult`); the properties below
    expose the fields every consumer needs without caring which.
    """

    label: str
    curve: RecallCurve
    result: Union[ProgressiveResult, BasicResult, object]
    spec: Optional[RunSpec] = field(default=None, repr=False)
    tracer: Optional[Tracer] = field(default=None, repr=False)
    metrics: Optional[MetricsRegistry] = field(default=None, repr=False)

    @property
    def final_recall(self) -> float:
        return self.curve.final_recall

    @property
    def total_time(self) -> float:
        return self.curve.end_time

    @property
    def duplicate_events(self):
        """The run's first-discovery duplicate events, in time order."""
        return self.result.duplicate_events

    @cached_property
    def found_pairs(self) -> Set[Pair]:
        """Distinct duplicate pairs the run reported (computed once)."""
        return self.result.found_pairs


class ExperimentRun:
    """Executes one :class:`RunSpec` on a freshly built session.

    A thin one-shot wrapper over :class:`ResolverSession`: construction
    builds the session (and its cluster — kept explicit so callers can
    inspect :attr:`cluster`, or re-run the same spec on a fresh cluster by
    constructing a new ``ExperimentRun``); :meth:`run` delegates to
    :meth:`ResolverSession.run_one_shot`.
    """

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        self.session = ResolverSession(spec)
        self.cluster = self.session.cluster

    def run(self) -> RunResult:
        """Execute the run and build its recall curve."""
        return self.session.run_one_shot()


def sample_times(end_time: float, points: int = 12) -> List[float]:
    """Evenly spaced sampling times over (0, end_time] for curve tables."""
    if points < 1:
        raise ValueError("need at least one sample point")
    return [end_time * (i + 1) / points for i in range(points)]


__all__ = [
    "RunSpec",
    "RunResult",
    "ExperimentRun",
    "PAPER_MAP_SLOTS",
    "PAPER_REDUCE_SLOTS",
    "SCHEDULE_STRATEGIES",
    "sample_times",
]
