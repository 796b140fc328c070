"""Generalization check: the approach on a third dataset family.

The paper evaluates on publications and books.  This bench runs the same
comparison (ours vs Basic with a mid popcorn threshold) on the
census-style people family — short, low-entropy attributes, a schema the
paper never touched — to confirm the approach's advantage is not an
artifact of the two paper workloads.

Expected shape: same as Figure 8/10 — ours dominates past the
preprocessing overhead and ends at least as high.
"""

from __future__ import annotations

import pytest

from repro.baselines import BasicConfig
from repro.core import people_config
from repro.data import make_people
from repro.evaluation import (
    ExperimentRun,
    RunSpec,
    format_curves,
    sample_times,
)
from repro.similarity.matchers import people_matcher

MACHINES = 10
SCALE = 2500


@pytest.fixture(scope="module")
def people_dataset():
    return make_people(SCALE, seed=13)


@pytest.fixture(scope="module")
def people_cached_matcher():
    return people_matcher(cache=True)


def test_people_generalization(people_dataset, people_cached_matcher, report):
    def run_comparison():
        runs = [
            ExperimentRun(
                RunSpec(
                    people_dataset,
                    people_config(matcher=people_cached_matcher),
                    machines=MACHINES,
                    label="Our Approach",
                )
            ).run()
        ]
        for threshold in (None, 0.01):
            config = BasicConfig(
                people_config(matcher=people_cached_matcher),
                window=15,
                popcorn_threshold=threshold,
            )
            label = f"Basic {'F' if threshold is None else threshold}"
            runs.append(
                ExperimentRun(
                    RunSpec(people_dataset, config, machines=MACHINES, label=label)
                ).run()
            )
        return runs

    runs = run_comparison()
    horizon = runs[0].total_time
    times = sample_times(horizon, points=10)
    report(
        format_curves(
            runs, times,
            title=f"generalization — people family, μ={MACHINES}, {SCALE} entities",
        )
    )

    ours, basic_f, basic_mid = runs
    late = [t for t in times if t >= horizon * 0.4]
    wins = sum(
        1 for t in late if ours.curve.recall_at(t) >= basic_f.curve.recall_at(t) - 0.02
    )
    assert wins >= len(late) - 1
    assert ours.final_recall >= basic_f.final_recall - 0.02
