"""Unit tests for the approach configuration and weighting functions."""

import math

import pytest

from repro.baselines import BasicConfig, MrsnConfig
from repro.blocking import Block, citeseer_scheme
from repro.mapreduce import MapReduceJob, Mapper, Reducer
from repro.core.config import (
    ApproachConfig,
    LevelPolicy,
    books_config,
    citeseer_config,
    linear_weights,
)


def _block(level, *, root=False, leaf=False, size=10):
    block = Block(family="X", level=level, key="k", entity_ids=(), size_override=size)
    if not root:
        parent = Block(family="X", level=1, key="p", entity_ids=(), size_override=size * 2)
        parent.add_child(block)
    if not leaf:
        child = Block(
            family="X", level=level + 1, key="c", entity_ids=(), size_override=2
        )
        block.add_child(child)
    return block


class TestLevelPolicy:
    def test_paper_windows(self):
        policy = LevelPolicy()
        assert policy.window_of(_block(1, root=True)) == 15
        assert policy.window_of(_block(2)) == 10
        assert policy.window_of(_block(3, leaf=True)) == 5

    def test_paper_fracs(self):
        policy = LevelPolicy(leaf_frac=0.8, mid_frac=0.9)
        assert policy.frac_of(_block(1, root=True)) == 1.0
        assert policy.frac_of(_block(2)) == 0.9
        assert policy.frac_of(_block(3, leaf=True)) == 0.8

    def test_threshold_is_block_size(self):
        policy = LevelPolicy()
        assert policy.threshold_of(_block(2, size=37)) == 37

    @pytest.mark.parametrize("window", [0, 1])
    @pytest.mark.parametrize("name", ["root_window", "mid_window", "leaf_window"])
    def test_window_below_two_rejected(self, name, window):
        # A window below 2 holds no pair: the run would find nothing.
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 2"):
            LevelPolicy(**{name: window})

    def test_window_zero_rejected_through_the_config(self):
        with pytest.raises(ValueError, match="root_window"):
            citeseer_config(
                levels=LevelPolicy(root_window=0, mid_window=0, leaf_window=0)
            )

    @pytest.mark.parametrize("frac", [0.0, 1.5, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["leaf_frac", "mid_frac"])
    def test_frac_outside_unit_interval_rejected(self, name, frac):
        with pytest.raises(ValueError, match=rf"{name} must be in \(0, 1\]"):
            LevelPolicy(**{name: frac})

    def test_frac_of_one_accepted(self):
        assert LevelPolicy(leaf_frac=1.0, mid_frac=1.0).frac_of(_block(2)) == 1.0


class TestWeightingFunctions:
    def test_linear_decreasing(self):
        values = [linear_weights(i, 10) for i in range(10)]
        assert values[0] == 1.0
        assert values == sorted(values, reverse=True)
        assert all(0 < v <= 1 for v in values)


class TestApproachConfig:
    def test_presets_match_paper(self):
        citeseer = citeseer_config()
        assert citeseer.mechanism.name == "sn-hint"
        assert citeseer.levels.leaf_frac == 0.8
        assert citeseer.levels.mid_frac == 0.9
        books = books_config()
        assert books.mechanism.name == "psnm"
        assert books.levels.leaf_frac == 0.85
        assert books.levels.mid_frac == 0.95

    def test_sort_attribute_follows_blocking_function(self):
        config = citeseer_config()
        assert config.scheme.sort_attribute("X") == "title"
        assert config.scheme.sort_attribute("Y") == "abstract"
        assert config.scheme.sort_attribute("Z") == "venue"

    def test_validation(self):
        with pytest.raises(ValueError):
            citeseer_config(train_fraction=0.0)
        with pytest.raises(ValueError):
            citeseer_config(estimator="magic")

    def test_overrides_apply(self):
        config = citeseer_config(alpha=50.0, estimator="oracle")
        assert config.alpha == 50.0
        assert config.estimator == "oracle"

    def test_redundancy_toggle_default_on(self):
        assert citeseer_config().redundancy_free is True
        assert citeseer_config(redundancy_free=False).redundancy_free is False


class TestAlphaValidation:
    """A reduce task opens a new output file every α cost units: α of zero
    or less never moves the next flush past the current time (the task
    loops forever), and NaN never flushes at all."""

    @pytest.mark.parametrize("alpha", [0.0, -5.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda alpha: MapReduceJob(Mapper, Reducer, alpha=alpha),
            lambda alpha: citeseer_config(alpha=alpha),
        ],
        ids=["job", "approach"],
    )
    def test_rejects_a_period_that_is_not_finite_and_positive(self, build, alpha):
        with pytest.raises(ValueError, match="alpha"):
            build(alpha)

    def test_accepts_none_and_a_positive_period(self):
        assert MapReduceJob(Mapper, Reducer, alpha=None).alpha is None
        assert citeseer_config(alpha=0.5).alpha == 0.5


class TestBaselineConfigs:
    """Basic and MR-SN take scheme, matcher, mechanism, α and mode from
    the family's ApproachConfig (which validates them) and check their own
    knobs at construction: a window below 2 holds no pair, so the run
    would end at recall 0.0, and a popcorn threshold outside (0, 1) would
    fail only inside a reduce task."""

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: BasicConfig(citeseer_config(), window=0), "window"),
            (lambda: BasicConfig(citeseer_config(), window=1), "window"),
            (lambda: BasicConfig(citeseer_config(), window=2.5), "window"),
            (lambda: BasicConfig(citeseer_config(), window=True), "window"),
            (lambda: MrsnConfig(citeseer_config(), window=1), "window"),
            (lambda: BasicConfig(citeseer_config(), popcorn_threshold=0.0), "popcorn"),
            (lambda: BasicConfig(citeseer_config(), popcorn_threshold=1.0), "popcorn"),
            (lambda: BasicConfig(citeseer_config(), popcorn_threshold=1.5), "popcorn"),
            (lambda: BasicConfig(citeseer_config(), popcorn_threshold=math.nan), "popcorn"),
        ],
        ids=[
            "basic-window-0", "basic-window-1", "basic-window-float",
            "basic-window-bool", "mrsn-window-1", "popcorn-0", "popcorn-1",
            "popcorn-1.5", "popcorn-nan",
        ],
    )
    def test_rejects_a_knob_out_of_range(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()
