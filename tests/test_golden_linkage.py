"""Golden fixtures for the linkage scenario and the meta-blocked pipeline.

Two pinned runs, each reduced to a JSON *shape* in ``tests/fixtures``
(same scheme as ``test_golden_pipeline.py``):

* ``golden_linkage.json`` — the two-source dataset under
  ``linkage_config`` (clean-clean mode, cross-source candidates only).
  Pins the found-pair set size, the per-pair cross-source property via
  the same-source comparison counter, the schedule digest and the first
  discoveries with their virtual timestamps.
* ``golden_metablock.json`` — the books dataset under block filtering at
  ratio 0.5 (the default 0.8 keeps all three blocks of a 3-family
  scheme).  Pins the pruning summary (memberships and candidate pairs
  before/after), the found pairs, and the schedule digest — so a change
  to the filter's tie-break or the annotation masking shows up as a
  readable JSON diff.

Regenerate after an intentional behavior change with::

    PYTHONPATH=src python tests/test_golden_linkage.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.config import books_config, linkage_config
from repro.data.books import make_books
from repro.data.linkage import make_linkage
from repro.evaluation import ExperimentRun, RunSpec

FIXTURES = Path(__file__).parent / "fixtures"
LINKAGE_FIXTURE = FIXTURES / "golden_linkage.json"
METABLOCK_FIXTURE = FIXTURES / "golden_metablock.json"

LINKAGE_SIZE = 400
LINKAGE_SEED = 13
METABLOCK_SIZE = 400
METABLOCK_SEED = 11
BF_RATIO = 0.5
GOLDEN_MACHINES = 3
EVENT_PREFIX = 20


def _schedule_digest(schedule) -> str:
    canonical = json.dumps(
        {
            "num_tasks": schedule.num_tasks,
            "assignment": dict(sorted(schedule.assignment.items())),
            "block_order": schedule.block_order,
            # Key and value kept from the retired SQ stride so the pinned
            # digests stay byte-identical.
            "sequence_stride": sum(len(o) for o in schedule.block_order) + 1,
            "shards": sorted(schedule.shards),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _shape_of(run, *, counter_prefixes) -> dict:
    result = run.result
    counters = {
        key: value
        for key, value in sorted(result.job2.counters.as_flat_dict().items())
        if key.startswith(counter_prefixes)
    }
    return {
        "dataset": {
            "name": result.dataset.name,
            "entities": len(result.dataset.entities),
            "true_pairs": len(result.dataset.true_pairs),
        },
        "schedule": {
            "digest": _schedule_digest(result.schedule),
            "num_tasks": result.schedule.num_tasks,
            "num_trees": result.schedule.num_trees,
            "num_blocks": result.schedule.num_blocks,
        },
        "first_events": [
            [round(event.time, 6), list(event.payload)]
            for event in result.duplicate_events[:EVENT_PREFIX]
        ],
        "found_pairs": len(run.found_pairs),
        "final_recall": round(run.final_recall, 9),
        "total_time": round(run.total_time, 6),
        "counters": counters,
    }


def build_linkage_shape() -> dict:
    dataset = make_linkage(LINKAGE_SIZE, seed=LINKAGE_SEED)
    spec = RunSpec(dataset, linkage_config(), machines=GOLDEN_MACHINES)
    run = ExperimentRun(spec).run()
    shape = _shape_of(run, counter_prefixes=("driver.", "resolve."))
    source_of = {e.id: e.source for e in dataset.entities}
    shape["cross_source_pairs"] = sum(
        1 for a, b in run.found_pairs if source_of[a] != source_of[b]
    )
    shape["sources"] = {
        source: sum(1 for e in dataset.entities if e.source == source)
        for source in sorted({e.source for e in dataset.entities})
    }
    return shape


def build_metablock_shape() -> dict:
    dataset = make_books(METABLOCK_SIZE, seed=METABLOCK_SEED)
    spec = RunSpec(
        dataset,
        books_config(metablock_ratio=BF_RATIO),
        machines=GOLDEN_MACHINES,
        metablock="bf",
    )
    run = ExperimentRun(spec).run()
    shape = _shape_of(run, counter_prefixes=("driver.", "metablock."))
    plan = run.result.metablock
    shape["metablock"] = {
        "mode": plan.mode,
        "ratio": plan.ratio,
        "memberships": [plan.memberships_kept, plan.memberships_total],
        "pairs": [plan.pairs_kept, plan.pairs_total],
        "pair_reduction": round(plan.pair_reduction, 6),
    }
    return shape


def _assert_matches(actual: dict, expected: dict) -> None:
    for key in expected:
        if key in ("final_recall", "total_time"):
            assert actual[key] == pytest.approx(expected[key], abs=1e-6), key
        else:
            assert actual[key] == expected[key], key


class TestGoldenLinkage:
    def test_shape_is_stable(self):
        assert LINKAGE_FIXTURE.exists(), (
            f"missing fixture {LINKAGE_FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_linkage.py`"
        )
        _assert_matches(
            build_linkage_shape(), json.loads(LINKAGE_FIXTURE.read_text())
        )

    def test_scenario_is_not_vacuous(self):
        shape = build_linkage_shape()
        assert shape["found_pairs"] > 0
        assert shape["final_recall"] > 0.9
        # Every found pair joins the two sources.
        assert shape["cross_source_pairs"] == shape["found_pairs"]
        # The linkage veto actually fired on same-source candidates.
        assert shape["counters"].get("resolve.pairs_filtered", 0) > 0
        assert set(shape["sources"]) == {"a", "b"}


class TestGoldenMetablock:
    def test_shape_is_stable(self):
        assert METABLOCK_FIXTURE.exists(), (
            f"missing fixture {METABLOCK_FIXTURE}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_linkage.py`"
        )
        _assert_matches(
            build_metablock_shape(), json.loads(METABLOCK_FIXTURE.read_text())
        )

    def test_scenario_is_not_vacuous(self):
        shape = build_metablock_shape()
        assert shape["found_pairs"] > 0
        kept, total = shape["metablock"]["pairs"]
        assert 0 < kept < total
        assert shape["metablock"]["pair_reduction"] >= 2.0
        assert shape["counters"].get("metablock.pairs_pruned", 0) == total - kept

    def test_metablocked_output_is_a_subset_of_unpruned(self):
        dataset = make_books(METABLOCK_SIZE, seed=METABLOCK_SEED)
        unpruned = ExperimentRun(
            RunSpec(dataset, books_config(), machines=GOLDEN_MACHINES)
        ).run()
        pruned = ExperimentRun(
            RunSpec(
                dataset,
                books_config(metablock_ratio=BF_RATIO),
                machines=GOLDEN_MACHINES,
                metablock="bf",
            )
        ).run()
        assert pruned.found_pairs <= unpruned.found_pairs
        assert len(pruned.found_pairs) >= 0.95 * len(unpruned.found_pairs)


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    LINKAGE_FIXTURE.write_text(
        json.dumps(build_linkage_shape(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {LINKAGE_FIXTURE}")
    METABLOCK_FIXTURE.write_text(
        json.dumps(build_metablock_shape(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {METABLOCK_FIXTURE}")
