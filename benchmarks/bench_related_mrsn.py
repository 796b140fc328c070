"""Related-work comparison: ours versus multi-pass MR Sorted Neighborhood.

Section VII positions our approach against fixed parallel ER algorithms
such as the MapReduce SN implementations of [Kolb et al. '12]: "these
algorithms implement a fixed ER algorithm and need to run to completion
before they can produce results."

Expected shape: MRSN's recall is a late step function (results appear when
its reduce tasks complete, pass by pass) while our curve rises from the
start; our recall-curve area dominates over the common horizon.  MRSN's
*final* recall can be competitive — global sorting is a strong blocking
method — which is exactly why the comparison is about progressiveness,
not endpoints.
"""

from __future__ import annotations

from repro.baselines import MrsnConfig
from repro.core import citeseer_config
from repro.evaluation import ExperimentRun, RunSpec, format_curves, sample_times

MACHINES = 10


def test_related_mrsn(citeseer_dataset, citeseer_cached_matcher, report):
    def run_comparison():
        ours = ExperimentRun(
            RunSpec(
                citeseer_dataset,
                citeseer_config(matcher=citeseer_cached_matcher),
                machines=MACHINES,
                label="Our Approach",
            )
        ).run()
        mrsn = ExperimentRun(
            RunSpec(
                citeseer_dataset,
                MrsnConfig(citeseer_config(matcher=citeseer_cached_matcher), window=15),
                machines=MACHINES,
                label="Multi-pass MR-SN",
            )
        ).run()
        return ours, mrsn

    ours, mrsn = run_comparison()
    horizon = max(ours.total_time, mrsn.total_time)
    times = sample_times(horizon, points=10)
    report(
        format_curves(
            [ours, mrsn], times, title=f"ours vs multi-pass MR-SN (μ={MACHINES})"
        )
    )

    common = min(ours.total_time, mrsn.total_time)
    assert ours.curve.area_under(common) > mrsn.curve.area_under(common), (
        "progressiveness must beat run-to-completion SN"
    )
    # MRSN produces nothing before its first pass's reduce tasks finish.
    first_pass_end = mrsn.result.jobs[0].end_time
    earliest_mrsn = mrsn.curve.times[0] if mrsn.curve.times else float("inf")
    earliest_ours = ours.curve.times[0]
    assert earliest_ours < earliest_mrsn
