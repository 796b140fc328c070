"""Cost-model calibration: fit virtual-cost constants to real wall-clock.

The simulator's :class:`~repro.mapreduce.clock.CostModel` prices every
operation in abstract units; the paper's curves are recall versus *real*
seconds.  This module closes that gap.  Every task computation records its
wall-clock duration (``wall_ns``) and a category breakdown of its virtual
charges (``charge_profile``: compare / emit / shuffle / sort / read, plus
an untagged remainder) — both ride the existing payload path through the
engine into :class:`~repro.mapreduce.types.TaskResult`, in the serial and
the process backend alike.  :func:`fit_cost_model` then solves the least
squares problem

    ``wall_seconds(task)  ≈  Σ_k  seconds_per_unit[k] · units[k](task)``

over the observed tasks, yielding a real-seconds price for each virtual
unit by category.  From those, :func:`calibration_report` derives

* *fitted CostModel constants*: the categories re-expressed in compare
  units (what :class:`CostModel` would look like if its ratios matched
  this machine), and
* an *error band*: the median absolute percentage error between predicted
  and observed task seconds — the factor within which virtual makespans
  predict real time on this host.

The fit is observational: nothing here feeds back into virtual time, so
calibrated and uncalibrated runs remain bit-identical.  Fits from hosts
whose CPU affinity cannot actually run the requested workers in parallel
are flagged ``parallelism_limited`` (queueing inflates per-task wall time
under contention) rather than silently trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..mapreduce.clock import CostModel
from ..mapreduce.executors import visible_cpus
from ..mapreduce.types import JobResult, TaskResult

#: Charge categories the fit solves for, in reporting order.  ``other`` is
#: the untagged remainder of a task's cost (mechanism setup, bookkeeping);
#: ``task`` is a constant 1 per task — an intercept absorbing fixed
#: per-task overhead (dispatch, deserialization, interpreter warm-up) that
#: no virtual charge scales with.
CATEGORIES = ("compare", "emit", "shuffle", "sort", "read", "other", "task")

#: Tasks whose wall clock is below this floor are excluded from the error
#: statistic (not from the fit): timer resolution and interpreter noise
#: dominate sub-millisecond tasks.
MIN_WALL_SECONDS = 1e-3

#: Tiny ridge keeping the normal equations solvable when categories are
#: collinear on a small workload.
_RIDGE = 1e-9


@dataclass(frozen=True)
class TaskSample:
    """One task's calibration observation."""

    phase: str
    task_id: int
    cost: float
    wall_seconds: float
    units: Tuple[float, ...]  # per CATEGORIES


@dataclass
class CalibrationFit:
    """Result of one least-squares calibration fit.

    Attributes:
        seconds_per_unit: fitted real seconds per virtual unit, keyed by
            category (0.0 for categories absent from the workload).
        samples_used: tasks that entered the fit.
        samples_scored: tasks (wall >= :data:`MIN_WALL_SECONDS`) that
            entered the error statistic.
        median_ape: median absolute percentage error of predicted versus
            observed task seconds over the scored tasks.
        residual_rms: root-mean-square residual in seconds over all fit
            samples (finite by construction, asserted by CI).
    """

    seconds_per_unit: Dict[str, float]
    samples_used: int
    samples_scored: int
    median_ape: float
    residual_rms: float
    predictions: List[Tuple[float, float]] = field(default_factory=list)

    def predict_seconds(self, units: Mapping[str, float]) -> float:
        """Predicted wall seconds for a per-category unit vector."""
        return sum(
            self.seconds_per_unit.get(cat, 0.0) * value
            for cat, value in units.items()
        )


def task_samples(
    results: Iterable[JobResult], *, phases: Sequence[str] = ("map", "reduce")
) -> List[TaskSample]:
    """Extract calibration samples from executed job results."""
    samples: List[TaskSample] = []
    for result in results:
        for phase, tasks in (("map", result.map_tasks), ("reduce", result.reduce_tasks)):
            if phase not in phases:
                continue
            for task in tasks:
                sample = _sample_of(phase, task)
                if sample is not None:
                    samples.append(sample)
    return samples


def _sample_of(phase: str, task: TaskResult) -> Optional[TaskSample]:
    if task.wall_ns <= 0:
        return None
    profile = dict(task.charge_profile)
    tagged = sum(profile.values())
    units = [profile.get(cat, 0.0) for cat in CATEGORIES[:-2]]
    units.append(max(0.0, task.cost - tagged))
    units.append(1.0)  # intercept: fixed per-task overhead
    return TaskSample(
        phase=phase,
        task_id=task.task_id,
        cost=task.cost,
        wall_seconds=task.wall_ns / 1e9,
        units=tuple(units),
    )


def fit_cost_model(samples: Sequence[TaskSample]) -> CalibrationFit:
    """Fit per-category seconds-per-unit prices by least squares.

    Solves the normal equations with a tiny ridge (pure Python — the
    design matrix is ``len(samples) x 6``), then clamps any negative
    coefficient to zero and refits without that column: a negative price
    is always a collinearity artifact, never physics.
    """
    if not samples:
        raise ValueError("no calibration samples: run a workload first "
                         "(tasks need wall_ns > 0)")
    active = [
        k for k in range(len(CATEGORIES))
        if any(s.units[k] > 0.0 for s in samples)
    ]
    coef = _least_squares(samples, active)
    # Drop negative-price columns (collinearity artifacts) and refit.
    for _ in range(len(CATEGORIES)):
        negative = [k for k in active if coef.get(k, 0.0) < 0.0]
        if not negative:
            break
        active = [k for k in active if k not in negative]
        coef = _least_squares(samples, active) if active else {}

    seconds_per_unit = {
        cat: coef.get(k, 0.0) for k, cat in enumerate(CATEGORIES)
    }
    predictions: List[Tuple[float, float]] = []
    sq_residual = 0.0
    apes: List[float] = []
    for s in samples:
        predicted = sum(
            seconds_per_unit[CATEGORIES[k]] * s.units[k]
            for k in range(len(CATEGORIES))
        )
        predictions.append((predicted, s.wall_seconds))
        sq_residual += (predicted - s.wall_seconds) ** 2
        if s.wall_seconds >= MIN_WALL_SECONDS:
            apes.append(abs(predicted - s.wall_seconds) / s.wall_seconds)
    return CalibrationFit(
        seconds_per_unit=seconds_per_unit,
        samples_used=len(samples),
        samples_scored=len(apes),
        median_ape=_median(apes) if apes else float("inf"),
        residual_rms=(sq_residual / len(samples)) ** 0.5,
        predictions=predictions,
    )


def _least_squares(
    samples: Sequence[TaskSample], active: Sequence[int]
) -> Dict[int, float]:
    """Ridge-stabilized weighted normal equations over the active columns.

    Weights are ``1 / max(wall, floor)^2`` — relative least squares, so the
    fit minimizes squared *percentage* residuals rather than absolute ones
    (the error band is a percentage statistic; unweighted LS would let the
    few largest tasks dominate and leave small tasks badly mispredicted).
    """
    if not active:
        return {}
    n = len(active)
    ata = [[0.0] * n for _ in range(n)]
    aty = [0.0] * n
    for s in samples:
        weight = 1.0 / max(s.wall_seconds, MIN_WALL_SECONDS) ** 2
        row = [s.units[k] for k in active]
        for i in range(n):
            if row[i] == 0.0:
                continue
            aty[i] += weight * row[i] * s.wall_seconds
            for j in range(n):
                ata[i][j] += weight * row[i] * row[j]
    scale = max(ata[i][i] for i in range(n))
    ridge = _RIDGE * (scale if scale > 0 else 1.0)
    for i in range(n):
        ata[i][i] += ridge
    solution = _solve(ata, aty)
    return {k: solution[i] for i, k in enumerate(active)}


def _solve(matrix: List[List[float]], vector: List[float]) -> List[float]:
    """Gaussian elimination with partial pivoting (matrix is tiny)."""
    n = len(vector)
    a = [row[:] + [vector[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        if a[col][col] == 0.0:
            continue
        for r in range(n):
            if r == col:
                continue
            factor = a[r][col] / a[col][col]
            if factor == 0.0:
                continue
            for c in range(col, n + 1):
                a[r][c] -= factor * a[col][c]
    return [
        a[i][n] / a[i][i] if a[i][i] != 0.0 else 0.0 for i in range(n)
    ]


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def calibration_report(
    fit: CalibrationFit,
    *,
    cost_model: Optional[CostModel] = None,
    workload: Optional[Mapping[str, Any]] = None,
    workers: int = 1,
    backend: str = "process",
) -> Dict[str, Any]:
    """JSON-ready calibration report.

    ``fitted_constants`` re-expresses the per-category prices in compare
    units — what the :class:`CostModel` ratios *would* be if they matched
    this machine (``compare`` itself stays the 1.0 reference).  The
    ``parallelism_limited`` flag marks fits taken on hosts that cannot run
    the requested workers in parallel: under contention, queueing inflates
    per-task wall time, so such fits are contention-biased upper bounds,
    not hardware truth.
    """
    cost_model = cost_model or CostModel()
    cpus = visible_cpus()
    per_unit = fit.seconds_per_unit
    compare_price = per_unit.get("compare", 0.0)
    # Seconds per *operation* at the cost model's unit prices.
    per_op = {
        "compare": compare_price * cost_model.compare,
        "emit": per_unit.get("emit", 0.0) * cost_model.emit_pair,
        "shuffle": per_unit.get("shuffle", 0.0) * cost_model.shuffle_record,
        "read": per_unit.get("read", 0.0) * cost_model.read_record,
        "sort_item": per_unit.get("sort", 0.0) * cost_model.sort_item,
    }
    fitted_constants = {
        cat: (per_unit.get(cat, 0.0) / compare_price if compare_price > 0 else 0.0)
        for cat in CATEGORIES
    }
    return {
        "format": 1,
        "backend": backend,
        "workers": workers,
        "cpus_visible": cpus,
        "parallelism_limited": cpus < workers,
        "workload": dict(workload or {}),
        "seconds_per_unit": per_unit,
        "seconds_per_op": per_op,
        "fitted_constants": fitted_constants,
        "samples_used": fit.samples_used,
        "samples_scored": fit.samples_scored,
        "median_ape": fit.median_ape,
        "residual_rms_seconds": fit.residual_rms,
        "error_band": (
            f"virtual makespans predict real task seconds within "
            f"±{fit.median_ape * 100.0:.0f}% (median APE, "
            f"{fit.samples_scored} tasks >= {MIN_WALL_SECONDS * 1e3:.0f}ms)"
        ),
    }


__all__ = [
    "CATEGORIES",
    "MIN_WALL_SECONDS",
    "TaskSample",
    "CalibrationFit",
    "task_samples",
    "fit_cost_model",
    "calibration_report",
    "visible_cpus",
]
