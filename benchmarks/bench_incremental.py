"""Arrival-stream benchmark: delta-path cost versus full re-resolution.

The incremental service's pitch is that a small batch against a warm
store costs what its *affected blocks* cost — not what the corpus costs.
Three measurements pin that:

* **Headline speedup.**  A 100-entity batch against a 1400-entity warm
  store must take ≥5x fewer comparisons than re-resolving all 1500
  entities from scratch, at the identical final found-pair set.
* **Scaling shape.**  The same 100-entity batch is submitted against warm
  stores of increasing size; the delta's share of the would-be full
  resolve must shrink as the corpus grows (the delta tracks affected-block
  membership, while the full resolve tracks the corpus).
* **Exact accounting.**  Warm + delta comparisons must equal the one-shot
  comparison count — the partition-invariance the differential suite pins,
  restated as arithmetic on the receipts.

``delta_affected_blocks`` counts the blocks the delta job routed: the
level-1 blocks that hold at least one of the batch's candidate pairs.

Results are recorded in ``BENCH_incremental.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import citeseer_config
from repro.service import ResolverService

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_incremental.json"

MACHINES = 3
DELTA_SIZE = 100
WARM_SIZES = (300, 700, 1400)
ACCEPT_SPEEDUP = 5.0


def test_incremental_bench(citeseer_dataset, citeseer_cached_matcher, report):
    config = citeseer_config(matcher=citeseer_cached_matcher)
    entities = citeseer_dataset.entities
    corpus = max(WARM_SIZES) + DELTA_SIZE
    delta_batch = entities[max(WARM_SIZES) : corpus]

    # The same late batch against increasingly warm stores.
    scaling = []
    final_service = None
    for warm_size in WARM_SIZES:
        service = ResolverService(config, machines=MACHINES)
        warm = service.submit(entities[:warm_size])
        delta = service.submit(delta_batch)
        scaling.append(
            {
                "warm_entities": warm_size,
                "delta_entities": DELTA_SIZE,
                "warm_comparisons": warm.comparisons,
                "delta_comparisons": delta.comparisons,
                "delta_affected_blocks": delta.affected_blocks,
                "total_comparisons": service.total_comparisons,
                "delta_fraction": delta.comparisons / service.total_comparisons,
            }
        )
        if warm_size == max(WARM_SIZES):
            final_service = service

    # Receipts must tile the one-shot cost exactly (partition invariance).
    one_shot = ResolverService(config, machines=MACHINES)
    receipt = one_shot.submit(entities[:corpus])
    assert one_shot.found_pairs == final_service.found_pairs
    assert one_shot.total_comparisons == final_service.total_comparisons
    assert one_shot.found_pairs, "benchmark is vacuous: nothing resolved"

    # Headline: the delta path beats the full re-resolve by >= 5x.
    delta_comparisons = scaling[-1]["delta_comparisons"]
    speedup = receipt.comparisons / delta_comparisons
    assert speedup >= ACCEPT_SPEEDUP, (
        f"delta path only {speedup:.2f}x below full re-resolve "
        f"({delta_comparisons} vs {receipt.comparisons} comparisons)"
    )

    # Shape: the delta's share of the full cost shrinks as the store grows.
    fractions = [entry["delta_fraction"] for entry in scaling]
    assert fractions == sorted(fractions, reverse=True), fractions

    payload = {
        "bench": "incremental",
        "note": (
            f"{DELTA_SIZE}-entity batch against warm stores of "
            f"{list(WARM_SIZES)} entities, citeseer family, "
            f"{MACHINES} machines.  Comparisons are similarity decisions "
            "(service.comparisons counter); warm + delta equals the "
            "one-shot count exactly."
        ),
        "full_comparisons": receipt.comparisons,
        "delta_comparisons": delta_comparisons,
        "speedup_vs_full": speedup,
        "equal_output": True,
        "found_pairs": len(one_shot.found_pairs),
        "scaling": scaling,
        "acceptance_speedup": ACCEPT_SPEEDUP,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"incremental delta path (citeseer {corpus}, {MACHINES} machines)",
        f"  full re-resolve : {receipt.comparisons:8d} comparisons",
        f"  {DELTA_SIZE:4d}-entity delta: {delta_comparisons:8d} comparisons"
        f"  ({speedup:.1f}x below full)",
    ]
    for entry in scaling:
        lines.append(
            f"  warm {entry['warm_entities']:5d}: delta"
            f" {entry['delta_comparisons']:7d} cmp over"
            f" {entry['delta_affected_blocks']:3d} blocks"
            f"  ({100 * entry['delta_fraction']:.1f}% of total)"
        )
    report("\n".join(lines) + f"\n  wrote {BENCH_PATH.name}")
