"""Ablation: per-tree versus per-block routing (footnote 5).

The paper's actual implementation emits each entity once per *tree*
containing it and re-derives sub-block membership reduce-side; the naive
design emits once per *block*.  The naive shuffle needs no run to count:
it ships one record per block membership, i.e. the sum of the scheduled
block sizes.

Expected shape: tree routing's measured ``map_emitted`` is strictly
below that sum.
"""

from __future__ import annotations

from repro.core import ProgressiveER, citeseer_config
from repro.mapreduce import Cluster
from repro.evaluation import format_table

MACHINES = 10


def test_routing_ablation(citeseer_dataset, citeseer_cached_matcher, report):
    config = citeseer_config(matcher=citeseer_cached_matcher)
    result = ProgressiveER(config, Cluster(MACHINES)).run(citeseer_dataset)
    per_tree = result.job2.counters.get("engine", "map_emitted")
    per_block = sum(block.size for block in result.schedule.blocks.values())
    report(
        format_table(
            ["routing", "shuffled records"],
            [["tree", f"{per_tree:,d}"], ["block", f"{per_block:,d}"]],
            title="ablation — per-tree vs per-block routing (footnote 5)",
        )
    )

    assert 0 < per_tree < per_block, "per-block routing must ship more records"
