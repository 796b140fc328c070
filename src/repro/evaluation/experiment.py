"""Experiment harness: the one run API behind the benchmarks and CLI.

A run is described by a :class:`RunSpec`, executed by
:class:`ExperimentRun` and returned as a :class:`RunResult`, the same way
for every approach.  The spec's ``config`` type picks the approach: an
:class:`~repro.core.config.ApproachConfig` runs ours (under the spec's
``strategy``, ``balance`` and ``metablock``), a
:class:`~repro.baselines.basic.BasicConfig` the Basic baseline, a
:class:`~repro.baselines.mrsn.MrsnConfig` multi-pass MR-SN.  Every
driver returns a :class:`~repro.core.driver.Resolution` — the dataset, the
run's jobs in order and the first discovery of each duplicate pair — and
the run adds its label and recall curve.  Everything is seeded and
deterministic::

    spec = RunSpec(dataset, citeseer_config(), machines=10)
    run = ExperimentRun(spec).run()
    run.final_recall, run.total_time, run.found_pairs, run.result.jobs

Attach a :class:`~repro.observability.Tracer` or
:class:`~repro.observability.MetricsRegistry` to the spec and the run is
recorded (see :mod:`repro.observability`); several specs may share one
tracer — each run is labeled via ``begin_run``.  The run executes on a
:class:`~repro.service.session.ResolverSession`, the configured cluster
the incremental :class:`~repro.service.resolver.ResolverService` runs its
delta jobs on too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Set, Union

from ..baselines.basic import BasicConfig, BasicER
from ..baselines.mrsn import MrsnConfig, MultiPassMRSN
from ..core.balance import BALANCE_STRATEGIES
from ..core.config import ApproachConfig
from ..core.driver import ProgressiveER, ProgressiveResult, Resolution
from ..core.metablock import METABLOCK_MODES
from ..data.dataset import Dataset
from ..data.entity import Pair
from ..mapreduce.clock import CostModel
from ..mapreduce.executors import BACKENDS
from ..mapreduce.faults import FaultPlan
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import Tracer
from ..service.session import ResolverSession
from . import metrics as evaluation_metrics
from .metrics import RecallCurve

#: Tree schedulers of the progressive approach.
SCHEDULE_STRATEGIES = ("ours", "nosplit", "lpt")


@dataclass
class RunSpec:
    """Declarative description of one experiment run.

    Specs are validated at construction (see :meth:`validate`): strategy,
    balance, backend and the numeric knobs are checked up front so a typo
    fails with an actionable message instead of a deep-in-engine error.

    Attributes:
        dataset: the dataset to resolve (``None`` is allowed for specs that
            only configure a session, e.g. the incremental service).
        config: approach configuration; its type selects the approach (see
            the module docstring).
        machines: simulated cluster size (2 map + 2 reduce slots each).
        strategy: tree scheduler for the progressive approach — ``"ours"``,
            ``"nosplit"`` or ``"lpt"``.
        balance: load-balancing post-pass for the progressive approach —
            ``"slack"`` (paper baseline, schedule untouched) or the global
            ``"pairrange"`` (see :mod:`repro.core.balance`).
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
            (``metablock_ratio``).

    A baseline has no progressive schedule: a baseline spec whose
    ``strategy``, ``balance`` or ``metablock`` is not the default is
    rejected rather than run as if it were.
    """

    dataset: Optional[Dataset]
    config: Union[ApproachConfig, BasicConfig, MrsnConfig]
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
        if not isinstance(self.config, (ApproachConfig, BasicConfig, MrsnConfig)):
            problems.append(
                f"config must be an ApproachConfig, BasicConfig or MrsnConfig, "
                f"got {type(self.config).__name__}"
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
        if self.is_baseline:
            defaults = {f.name: f.default for f in fields(self)}
            schedule = [
                f"{name}={getattr(self, name)!r}"
                for name in ("strategy", "balance", "metablock")
                if getattr(self, name) != defaults[name]
            ]
            if schedule:
                problems.append(
                    f"{', '.join(schedule)} needs the progressive approach; "
                    "a baseline has no progressive schedule"
                )
        approach = getattr(self.config, "approach", self.config)
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
    def is_baseline(self) -> bool:
        """True when ``config`` selects a baseline (Basic or MR-SN)."""
        return isinstance(self.config, (BasicConfig, MrsnConfig))

    def resolved_label(self) -> str:
        """The explicit label, or one derived from the approach."""
        if self.label is not None:
            return self.label
        if isinstance(self.config, BasicConfig):
            threshold = self.config.popcorn_threshold
            return f"basic[{'F' if threshold is None else threshold}]"
        if isinstance(self.config, MrsnConfig):
            return f"mrsn[w={self.config.window}]"
        if self.metablock != "off":
            return f"ours[{self.strategy}+{self.metablock}]"
        return f"ours[{self.strategy}]"


@dataclass
class RunResult:
    """One executed run: a labeled recall curve plus the approach's
    :class:`~repro.core.driver.Resolution`; the properties below expose
    the fields every consumer needs."""

    label: str
    curve: RecallCurve
    result: Resolution
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

    @property
    def found_pairs(self) -> Set[Pair]:
        """Distinct duplicate pairs the run reported (computed once)."""
        return self.result.found_pairs


class ExperimentRun:
    """Executes one :class:`RunSpec` on a freshly built session.

    Construction builds the session and its cluster, kept explicit so
    callers can inspect :attr:`cluster`; re-running the same spec on a
    fresh cluster is constructing a new ``ExperimentRun``.
    """

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        self.session = ResolverSession(spec)
        self.cluster = self.session.cluster

    def run(self) -> RunResult:
        """Resolve ``spec.dataset`` end to end and build its recall curve."""
        spec = self.spec
        if spec.dataset is None:
            raise ValueError(
                "one-shot runs need spec.dataset; the incremental service "
                "is the API for dataset-less sessions"
            )
        label = spec.resolved_label()
        self.session.begin_run(label)
        result = self._driver().run(spec.dataset)
        if spec.metrics is not None and isinstance(result, ProgressiveResult):
            spec.metrics.snapshot(
                "balance",
                {
                    f"balance.{name}": value
                    for name, value in result.balance.counter_items().items()
                },
                strategy=result.balance.strategy,
            )
        # Looked up at call time, so a wrapper installed on the module
        # sees every run's curve.
        curve = evaluation_metrics.recall_curve(
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

    def _driver(self) -> Union[ProgressiveER, BasicER, MultiPassMRSN]:
        """The driver ``spec.config``'s type selects, on this run's cluster."""
        spec = self.spec
        if isinstance(spec.config, BasicConfig):
            return BasicER(spec.config, self.cluster)
        if isinstance(spec.config, MrsnConfig):
            return MultiPassMRSN(spec.config, self.cluster)
        return ProgressiveER(
            spec.config,
            self.cluster,
            strategy=spec.strategy,
            seed=spec.seed,
            balance=spec.balance,
            metablock=spec.metablock,
        )


def sample_times(end_time: float, points: int = 12) -> List[float]:
    """Evenly spaced sampling times over (0, end_time] for curve tables."""
    if points < 1:
        raise ValueError("need at least one sample point")
    return [end_time * (i + 1) / points for i in range(points)]


__all__ = [
    "RunSpec",
    "RunResult",
    "ExperimentRun",
    "SCHEDULE_STRATEGIES",
    "sample_times",
]
