"""White-box tests of schedule-generation internals, including the paper's
Figure 5 bucket example."""

import pytest

from repro.blocking import Block
from repro.core.config import citeseer_config
from repro.core.estimation import BlockEstimate, EstimationModel, UniformEstimator
from repro.core.schedule import (
    _bucket_widths,
    _bucketize,
    _subtree_vc,
    _utility_sorted,
)
from repro.mapreduce import CostModel


def _block(uid_key, size=10):
    return Block(family="X", level=1, key=uid_key, entity_ids=(), size_override=size)


def _model_with_costs(blocks, costs, utils=None):
    """An EstimationModel with hand-planted estimates."""
    config = citeseer_config()
    model = EstimationModel(config, CostModel(), UniformEstimator(0.1), 100)
    for i, block in enumerate(blocks):
        util = utils[i] if utils is not None else float(len(blocks) - i)
        model.estimates[block.uid] = BlockEstimate(
            cov=10.0, d=1.0, frac=1.0, th=5, window=15,
            dup=util * costs[i], cost=costs[i], util=util,
        )
    return model


class TestFigureFiveExample:
    def test_first_bucket_holds_first_six_blocks(self):
        """Figure 5: costs [5, 5, 4, 6, 4, 6, ...], C = {10, 20, 30},
        r = 3 — 'the first six blocks from the left constitute the first
        bucket of SL because they can be resolved in the first c1 * r
        units of cost' (5+5+4+6+4+6 = 30 = c1 * r)."""
        costs = [5.0, 5.0, 4.0, 6.0, 4.0, 6.0, 8.0, 7.0, 9.0]
        blocks = [_block(f"b{i}") for i in range(len(costs))]
        model = _model_with_costs(blocks, costs)
        sl = _utility_sorted(blocks, model.estimates)
        assert [b.uid for b in sl] == [b.uid for b in blocks]  # planted order
        buckets, vector, weights = _bucketize(
            sl, model, [10.0, 20.0, 30.0], [1.0, 0.6, 0.3], 3
        )
        for i in range(6):
            assert buckets[blocks[i].uid] == 0
        assert buckets[blocks[6].uid] == 1

    def test_bucket_widths(self):
        assert _bucket_widths([10.0, 20.0, 35.0]) == [10.0, 10.0, 15.0]


class TestBucketize:
    def test_auto_extension_beyond_vector(self):
        costs = [50.0, 50.0, 50.0]
        blocks = [_block(f"x{i}") for i in range(3)]
        model = _model_with_costs(blocks, costs)
        sl = _utility_sorted(blocks, model.estimates)
        buckets, vector, weights = _bucketize(
            sl, model, [10.0, 20.0], [1.0, 0.5], 1
        )
        # Total cost 150 >> c2 * r = 20: the vector must have been extended.
        assert len(vector) > 2
        assert len(weights) == len(vector)
        assert vector == sorted(vector)
        # Extension keeps weights non-increasing.
        assert all(weights[i] >= weights[i + 1] for i in range(len(weights) - 1))

    def test_single_cheap_block_in_first_bucket(self):
        blocks = [_block("only")]
        model = _model_with_costs(blocks, [1.0])
        buckets, _, _ = _bucketize(
            blocks, model, [10.0], [1.0], 2
        )
        assert buckets["X1:only"] == 0


class TestSubtreeVc:
    def test_vc_sums_subtree_costs_per_bucket(self):
        root = _block("r")
        child = Block(family="X", level=2, key="rc", entity_ids=(), size_override=4)
        root.add_child(child)
        model = _model_with_costs([root, child], [6.0, 4.0], utils=[1.0, 2.0])
        buckets = {"X1:r": 1, "X2:rc": 0}
        vc = _subtree_vc(root, buckets, model, 3)
        assert vc == [4.0, 6.0, 0.0]


class TestUtilitySort:
    def test_ties_break_by_uid(self):
        blocks = [_block("bb"), _block("aa")]
        model = _model_with_costs(blocks, [1.0, 1.0], utils=[2.0, 2.0])
        ranked = _utility_sorted(blocks, model.estimates)
        assert [b.uid for b in ranked] == ["X1:aa", "X1:bb"]
