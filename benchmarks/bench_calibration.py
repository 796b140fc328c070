"""Cost-model calibration benchmark: how well virtual cost predicts wall clock.

Runs the progressive approach on the citeseer workload, pools every
task's recorded wall-clock duration and tagged charge profile, and fits
real-seconds prices per virtual unit (:mod:`repro.core.calibration`).
The fit closes the loop the cost model has always hand-waved: the same
charge vectors that drive the simulated timeline must predict real task
seconds on this host within a quantified error band.

Acceptance: the median absolute percentage error of predicted versus
observed task seconds stays at or below ``ACCEPT_MEDIAN_APE`` and the
residual RMS is finite.  The fitted constants, error band and host
parallelism flags are printed, not recorded: they price this host's
seconds, so no file of them would be a function of the code alone.
"""

from __future__ import annotations

from repro.core import (
    calibration_report,
    citeseer_config,
    fit_cost_model,
    task_samples,
)
from repro.evaluation import ExperimentRun, RunSpec

MACHINES = 4
SCALE = 800
REPEATS = 2
WORKERS = 2
ACCEPT_MEDIAN_APE = 0.30


def test_calibration_bench(report):
    from repro.data import make_citeseer

    # Deliberately NOT the session-cached matcher: a cache makes the
    # second repeat's comparisons nearly free, and that cold/warm
    # heterogeneity breaks the linear fit (compare time must mean the
    # same thing in every sample).
    dataset = make_citeseer(SCALE, seed=7)
    config = citeseer_config()
    samples = []
    for _ in range(REPEATS):
        run = ExperimentRun(
            RunSpec(
                dataset,
                config,
                machines=MACHINES,
                backend="process",
                workers=WORKERS,
            )
        ).run()
        samples.extend(task_samples([run.result.job1, run.result.job2]))

    assert samples, "no task recorded a wall clock"
    fit = fit_cost_model(samples)

    # Acceptance: the calibrated model predicts real task seconds within
    # the advertised band, and the residual is a finite number.
    assert fit.median_ape <= ACCEPT_MEDIAN_APE, fit.median_ape
    assert fit.residual_rms == fit.residual_rms  # not NaN
    assert fit.residual_rms < float("inf")

    payload = calibration_report(
        fit,
        workload={
            "family": "citeseer",
            "size": SCALE,
            "seed": 7,
            "machines": MACHINES,
            "repeats": REPEATS,
        },
        workers=WORKERS,
        backend="process",
    )

    per_unit = payload["seconds_per_unit"]
    lines = [
        f"cost-model calibration (citeseer {SCALE}, {MACHINES} machines, "
        f"{REPEATS} repeats, process backend x{WORKERS})",
        f"  {fit.samples_used} tasks sampled, {fit.samples_scored} scored",
        f"  median APE {fit.median_ape * 100.0:.1f}% "
        f"(acceptance <= {ACCEPT_MEDIAN_APE * 100.0:.0f}%)",
        f"  compare price {per_unit.get('compare', 0.0):.3e} s/unit",
        f"  {payload['error_band']}",
    ]
    if payload["parallelism_limited"]:
        lines.append(
            f"  note: {payload['cpus_visible']} visible CPUs < "
            f"{payload['workers']} workers — contention-biased fit"
        )
    report("\n".join(lines))
