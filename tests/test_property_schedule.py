"""Property-based tests: schedule-generation invariants over random
synthetic block forests.

Rather than real datasets, these tests build arbitrary statistics objects
(random tree shapes, sizes and overlaps) and assert the Figure-6 pipeline
always produces a well-formed schedule.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import BlockingScheme, prefix_function
from repro.core.config import citeseer_config
from repro.core.estimation import EstimationModel, UniformEstimator
from repro.core.schedule import generate_schedule
from repro.core.statistics import BlockRecord, DatasetStatistics
from repro.mapreduce import CostModel


def _scheme():
    return BlockingScheme(
        families={
            "X": [
                prefix_function("X", 1, "a", 2),
                prefix_function("X", 2, "a", 4),
            ],
            "Y": [prefix_function("Y", 1, "b", 2)],
        }
    )


@st.composite
def random_statistics(draw):
    """A random but well-formed DatasetStatistics."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    records = []
    n_x_roots = draw(st.integers(1, 5))
    for i in range(n_x_roots):
        root_key = f"r{i}"
        size = draw(st.integers(2, 120))
        records.append(BlockRecord("X", 1, root_key, size, None, {(): size}))
        remaining = size
        for j in range(draw(st.integers(0, 3))):
            child_size = rng.randint(2, max(2, remaining - 1)) if remaining > 2 else 2
            if child_size >= size:
                continue
            records.append(
                BlockRecord(
                    "X", 2, f"{root_key}c{j}", child_size, f"X1:{root_key}",
                    {(): child_size},
                )
            )
    n_y_roots = draw(st.integers(0, 4))
    for i in range(n_y_roots):
        size = draw(st.integers(2, 80))
        # Random overlap with X keys (None = unblocked under X).
        histogram = {}
        left = size
        while left > 0:
            key = rng.choice([None, "xa", "xb", "xc"])
            count = rng.randint(1, left)
            signature = (key,)
            histogram[signature] = histogram.get(signature, 0) + count
            left -= count
        records.append(BlockRecord("Y", 1, f"y{i}", size, None, histogram))
    return DatasetStatistics.from_records(_scheme(), records)


@given(
    random_statistics(),
    st.integers(1, 8),
    st.sampled_from(["ours", "nosplit", "lpt"]),
    st.floats(0.0, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_schedule_invariants_on_random_forests(stats, num_tasks, strategy, prob):
    config = citeseer_config()
    dataset_size = max(b.size for b in stats.blocks.values()) * 3
    model = EstimationModel(
        config, CostModel(), UniformEstimator(prob), dataset_size
    )
    schedule = generate_schedule(stats, model, num_tasks, strategy=strategy)

    # 1. Every tree assigned exactly once, to a valid task.
    assert set(schedule.assignment) == set(schedule.trees)
    assert all(0 <= t < num_tasks for t in schedule.assignment.values())

    # 2. Every surviving block scheduled exactly once, on its tree's task.
    scheduled = [uid for order in schedule.block_order for uid in order]
    assert len(scheduled) == len(set(scheduled))
    assert set(scheduled) == set(schedule.tree_of_block)
    for task, order in enumerate(schedule.block_order):
        for uid in order:
            assert schedule.assignment[schedule.tree_of_block[uid]] == task

    # 3. Children precede parents.
    for order in schedule.block_order:
        position = {uid: i for i, uid in enumerate(order)}
        for uid in order:
            for child in schedule.blocks[uid].children:
                assert position[child.uid] < position[uid]

    # 4. Dominance values unique; roots full; weights non-increasing.
    doms = list(schedule.dominance.values())
    assert len(doms) == len(set(doms))
    for uid in schedule.trees:
        assert schedule.estimates[uid].full
    weights = schedule.weights
    assert all(weights[i] >= weights[i + 1] - 1e-12 for i in range(len(weights) - 1))

    # 6. Generation cost is positive and finite.
    assert 0 < schedule.generation_cost < float("inf")
