"""Scenario: resolving your own dataset with a custom scheme and matcher.

Everything in the pipeline is pluggable: this example builds the paper's
Table I toy people dataset by hand, defines the paper's X1 (name-prefix)
and Y1 (state) blocking functions plus a sub-blocking function, a custom
weighted matcher, and runs both the progressive pipeline and the Basic
baseline on it — then round-trips the dataset through JSONL entity rows.

Run:  python examples/custom_dataset.py
"""

import tempfile
from pathlib import Path

from repro import (
    AttributeRule,
    BasicConfig,
    BlockingScheme,
    Dataset,
    Entity,
    ExperimentRun,
    RunSpec,
    SortedNeighborHint,
    WeightedMatcher,
    prefix_function,
)
from repro.core import ApproachConfig, LevelPolicy
from repro.data.rows import read_dataset, write_dataset


def build_people() -> Dataset:
    """The paper's Table I toy dataset (with its ground-truth clusters)."""
    rows = [
        (1, "John Lopez", "HI"), (2, "John Lopez", "HI"), (3, "John Lopez", "AZ"),
        (4, "Charles Andrews", "LA"), (5, "Gharles Andrews", "LA"),
        (6, "Mary Gibson", "AZ"), (7, "Chloe Matthew", "AZ"),
        (8, "William Martin", "AZ"), (9, "Joey Brown", "LA"),
    ]
    clusters = {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 2, 7: 3, 8: 4, 9: 5}
    entities = [
        Entity(id=i, attrs={"name": name, "state": state})
        for i, name, state in rows
    ]
    return Dataset(entities=entities, clusters=clusters, name="toy-people")


def main() -> None:
    dataset = build_people()

    # Table I's functions: X1 = first two name characters (refined by a
    # 4-char sub-function), Y1 = state.  Dict order = dominance: X1 > Y1.
    scheme = BlockingScheme(
        families={
            "X": [
                prefix_function("X", 1, "name", 2),
                prefix_function("X", 2, "name", 4),
            ],
            "Y": [prefix_function("Y", 1, "state", 2)],
        }
    )
    matcher = WeightedMatcher(
        rules=[
            AttributeRule("name", weight=0.8, comparator="edit"),
            AttributeRule("state", weight=0.2, comparator="exact"),
        ],
        threshold=0.75,
    )
    config = ApproachConfig(
        scheme=scheme,
        matcher=matcher,
        mechanism=SortedNeighborHint(),
        levels=LevelPolicy(root_window=8, mid_window=6, leaf_window=4),
        train_fraction=1.0,  # tiny dataset: train the estimator on all of it
    )

    run = ExperimentRun(RunSpec(dataset, config, machines=2)).run()
    print("found duplicate pairs:", sorted(run.found_pairs))
    print("ground truth:         ", sorted(dataset.true_pairs))
    found_true = run.found_pairs & dataset.true_pairs
    print(f"recall: {len(found_true)}/{dataset.num_true_pairs}")

    # The Basic baseline runs on the same custom pieces: it reads the
    # scheme, matcher, mechanism, α and mode from the same config.
    basic = ExperimentRun(RunSpec(dataset, BasicConfig(config, window=8), machines=2)).run()
    print("basic found:          ", sorted(basic.found_pairs))

    # JSONL round trip for persistence: one entity row per line, with its
    # ground-truth cluster (what `repro generate` writes, `--dataset` reads).
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "people.jsonl"
        write_dataset(dataset, str(path))
        reloaded = read_dataset(str(path), name="toy-people")
        assert reloaded.true_pairs == dataset.true_pairs
        print(f"\nround-tripped {len(reloaded)} records through {path.name}")


if __name__ == "__main__":
    main()
