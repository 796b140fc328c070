"""Meta-blocking benchmark: candidate pairs pruned versus recall kept.

The pre-pass earns its place if it removes a large share of the level-1
candidate-pair universe *before* Job 1 ever sees it, while the resolved
output barely moves.  On the books workload with block filtering at
ratio 0.5 (each entity keeps its 2 smallest of 3 level-1 blocks — the
default 0.8 keeps all 3, a no-op for a 3-family scheme):

* **Acceptance (bf):** scheduled candidate pairs cut by at least 2x,
  retaining at least 95% of the unpruned run's duplicate recall.
* **Acceptance (wnp):** the found-pair set is a *subset* of the unpruned
  run's (structural: pruned pairs consume the distinct budget, so the
  pruned run stops no later at every stream position), again at >= 95%
  recall retention.

``bf``'s found-set containment is empirical, not structural.  The fixed
root window adds the extra pairs, not the filter: a shrunk block sorts
its kept members closer together, so a root window of 15 reaches pairs it
did not reach in the whole block.  With every root resolved whole, ``bf``
finds no pair ``off`` does not (pinned in ``tests/test_scenario_matrix.py``,
as is the small-scale containment).  The candidate-*universe*
containment — pruning only removes candidates — is structural for both
modes and pinned by the property suite.

Results are recorded in ``BENCH_metablock.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import books_config
from repro.evaluation import ExperimentRun, RunSpec

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_metablock.json"

MACHINES = 3
BF_RATIO = 0.5
ACCEPT_PAIR_REDUCTION = 2.0
ACCEPT_RECALL_RETENTION = 0.95


def test_metablock_bench(books_dataset, books_cached_matcher, report):
    config = books_config(matcher=books_cached_matcher, metablock_ratio=BF_RATIO)
    runs = {}
    for mode in ("off", "bf", "wnp"):
        spec = RunSpec(books_dataset, config, machines=MACHINES, metablock=mode)
        runs[mode] = ExperimentRun(spec).run()

    off = runs["off"]
    assert off.found_pairs, "benchmark is vacuous: nothing resolved"

    entries = {}
    for mode, run in runs.items():
        plan = run.result.metablock
        entry = {
            "found_pairs": len(run.found_pairs),
            "final_recall": run.final_recall,
            "total_time": run.total_time,
            "recall_retention": run.final_recall / off.final_recall,
            "pairs_missing_vs_off": len(off.found_pairs - run.found_pairs),
            "pairs_extra_vs_off": len(run.found_pairs - off.found_pairs),
            "is_subset_of_off": run.found_pairs <= off.found_pairs,
        }
        if plan is not None:
            entry.update(
                candidate_pairs_kept=plan.pairs_kept,
                candidate_pairs_total=plan.pairs_total,
                pair_reduction=plan.pair_reduction,
                memberships_kept=plan.memberships_kept,
                memberships_total=plan.memberships_total,
            )
        entries[mode] = entry

    # Acceptance: block filtering cuts the scheduled pair universe >= 2x
    # while keeping >= 95% of the unpruned duplicate recall.
    bf = entries["bf"]
    assert bf["pair_reduction"] >= ACCEPT_PAIR_REDUCTION, bf
    assert bf["recall_retention"] >= ACCEPT_RECALL_RETENTION, bf

    # Acceptance: wnp's structural subset guarantee holds at scale, at the
    # same recall-retention bar.
    wnp = entries["wnp"]
    assert wnp["is_subset_of_off"], wnp
    assert wnp["pairs_extra_vs_off"] == 0
    assert wnp["recall_retention"] >= ACCEPT_RECALL_RETENTION, wnp

    payload = {
        "bench": "metablock",
        "note": (
            f"Meta-blocking pre-pass on books scale "
            f"{len(books_dataset.entities)}, {MACHINES} machines; bf ratio "
            f"{BF_RATIO} (each entity keeps its 2 smallest of 3 level-1 "
            "blocks), wnp cbs weighting.  Identical dataset and matcher "
            "across modes."
        ),
        "modes": entries,
        "acceptance_pair_reduction": ACCEPT_PAIR_REDUCTION,
        "acceptance_recall_retention": ACCEPT_RECALL_RETENTION,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"meta-blocking (books {len(books_dataset.entities)}, {MACHINES} machines)"]
    for mode, e in entries.items():
        pruning = (
            f"  pairs {e['candidate_pairs_kept']}/{e['candidate_pairs_total']}"
            f" ({e['pair_reduction']:.2f}x)"
            if "pair_reduction" in e
            else "  pairs unpruned"
        )
        lines.append(
            f"  {mode:4s}: found {e['found_pairs']:4d}"
            f"  recall-retention {e['recall_retention']:.4f}"
            f"  time {e['total_time']:10.1f}{pruning}"
        )
    report("\n".join(lines) + f"\n  wrote {BENCH_PATH.name}")
