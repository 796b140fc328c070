"""Configuration of the progressive approach.

Bundles everything Section VI-A fixes per dataset: the blocking scheme
(Table II), the match function, the progressive mechanism M, the per-level
window sizes ``w``, termination thresholds ``Th`` and fraction values
``Frac`` (Section VI-A5) and the incremental-output period α, plus the
schedule's fixed interval weighting ``W`` (:func:`linear_weights`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..blocking.blocks import Block
from ..blocking.functions import (
    BlockingScheme,
    books_scheme,
    citeseer_scheme,
    linkage_scheme,
    people_scheme,
    prefix_function,
)
from ..mapreduce.job import check_alpha
from ..mechanisms.base import Mechanism
from ..mechanisms.psnm import PSNM
from ..mechanisms.sorted_neighbor import SortedNeighborHint
from ..similarity.matchers import (
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
    linkage_matcher,
    people_matcher,
)


def check_window(name: str, window: object) -> None:
    """Reject a window that is no integer >= 2: it holds no pair, so the
    run would silently find nothing."""
    if isinstance(window, bool) or not isinstance(window, int) or window < 2:
        raise ValueError(f"{name} must be an integer >= 2, got {window!r}")


@dataclass(frozen=True)
class LevelPolicy:
    """Per-block-level parameters (Section VI-A5).

    The paper sets the window, termination threshold and fraction value
    "based on the level of that block": leaves are resolved the most
    aggressively, inner blocks less so, roots fully.
    """

    root_window: int = 15
    mid_window: int = 10
    leaf_window: int = 5
    leaf_frac: float = 0.8
    mid_frac: float = 0.9

    def __post_init__(self) -> None:
        for name in ("root_window", "mid_window", "leaf_window"):
            check_window(name, getattr(self, name))
        for name in ("leaf_frac", "mid_frac"):
            frac = getattr(self, name)
            # Written so that NaN fails the comparison and is rejected too.
            if not 0.0 < frac <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {frac!r}")

    def window_of(self, block: Block) -> int:
        """``w`` for a block, by its current tree position."""
        if block.is_root:
            return self.root_window
        if block.is_leaf:
            return self.leaf_window
        return self.mid_window

    def frac_of(self, block: Block) -> float:
        """``Frac(X^i_j)``: expected fraction of duplicates found by the
        partial resolution.  Roots are resolved fully (1.0)."""
        if block.is_root:
            return 1.0
        if block.is_leaf:
            return self.leaf_frac
        return self.mid_frac

    def threshold_of(self, block: Block) -> int:
        """``Th(X^i_j)``: distinct-pair budget.  The paper uses the block
        size, which guarantees a child's budget is below its parent's."""
        return block.size


def linear_weights(index: int, total: int) -> float:
    """``W(c_i)`` decreasing linearly from 1 to 1/total (paper: any
    non-increasing weights in [0, 1])."""
    return (total - index) / total


@dataclass
class ApproachConfig:
    """Full configuration of the parallel progressive approach.

    Attributes:
        scheme: blocking scheme (families in dominance order).
        matcher: the resolve/match function.
        mechanism: progressive mechanism M for resolving blocks.
        levels: per-level window / Frac / Th policy.
        alpha: reduce-side incremental output period (cost units, finite
            and positive).
        train_fraction: fraction of the dataset sampled (with ground truth)
            to fit the duplicate-probability model of Section VI-A4.
        estimator: override for the duplicate estimator ("learned",
            "oracle", "uniform") — ablation hook.
        redundancy_free: apply Section V's SHOULD-RESOLVE check.  Disabling
            it (ablation) resolves every shared pair in every tree
            containing it.
        mode: ``"dirty"`` (default) resolves duplicates anywhere in one
            source; ``"linkage"`` is clean-clean record linkage — entities
            carry ``source`` tags and only *cross-source* pairs are
            candidates (same-source pairs are vetoed at zero cost, and the
            cost estimates scale to the cross-pair fraction).
        metablock_ratio: block-filtering retention ratio ``r`` — under
            ``--metablock bf`` each entity keeps its ``ceil(r * k)``
            smallest level-1 blocks (Papadakis et al.'s Block Filtering).
    """

    scheme: BlockingScheme
    matcher: WeightedMatcher
    mechanism: Mechanism
    levels: LevelPolicy = field(default_factory=LevelPolicy)
    alpha: float = 200.0
    train_fraction: float = 0.1
    estimator: str = "learned"
    redundancy_free: bool = True
    mode: str = "dirty"
    metablock_ratio: float = 0.8

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError("train_fraction must be in (0, 1]")
        if self.estimator not in ("learned", "oracle", "uniform"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.mode not in ("dirty", "linkage"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.metablock_ratio <= 1.0:
            raise ValueError("metablock_ratio must be in (0, 1]")


def citeseer_config(**overrides) -> ApproachConfig:
    """Paper settings for CiteSeerX: SN + hint, Frac 0.8 / 0.9."""
    defaults = dict(
        scheme=citeseer_scheme(),
        matcher=citeseer_matcher(),
        mechanism=SortedNeighborHint(),
        levels=LevelPolicy(leaf_frac=0.8, mid_frac=0.9),
    )
    defaults.update(overrides)
    return ApproachConfig(**defaults)


def books_config(**overrides) -> ApproachConfig:
    """Paper settings for OL-Books: PSNM, Frac 0.85 / 0.95."""
    defaults = dict(
        scheme=books_scheme(),
        matcher=books_matcher(),
        mechanism=PSNM(),
        levels=LevelPolicy(leaf_frac=0.85, mid_frac=0.95),
    )
    defaults.update(overrides)
    return ApproachConfig(**defaults)


def people_config(**overrides) -> ApproachConfig:
    """Settings for the census-style people family: PSNM (short values
    make the materialized SN hint a poor trade), default Frac levels.

    The windows are wider than the paper datasets' (25/12/6): person
    records sort duplicates further apart (surnames are short and
    low-entropy), and the paper's own tuning rule — pick the smallest root
    window that still captures nearly all duplicates — lands higher here.
    """
    defaults = dict(
        scheme=people_scheme(),
        matcher=people_matcher(),
        mechanism=PSNM(),
        levels=LevelPolicy(
            root_window=25, mid_window=12, leaf_window=6,
            leaf_frac=0.8, mid_frac=0.9,
        ),
    )
    defaults.update(overrides)
    return ApproachConfig(**defaults)


def skewed_config(**overrides) -> ApproachConfig:
    """Adversarial single-family configuration for load-balancing studies.

    One shallow blocking family (a short title prefix with no sub-blocking
    functions) makes every tree a childless root: the Figure-6 splitter
    has nothing to split, so a hub blocking key yields a single giant
    block that dominates whichever reduce task the slack partitioner picks
    — the workload :mod:`repro.core.balance` is designed to fix.  Pairs
    with :func:`repro.data.skewed.make_skewed`.
    """
    defaults = dict(
        scheme=BlockingScheme(
            families={"X": [prefix_function("X", 1, "title", 2)]}
        ),
        matcher=citeseer_matcher(),
        mechanism=PSNM(),
    )
    defaults.update(overrides)
    return ApproachConfig(**defaults)


def linkage_config(**overrides) -> ApproachConfig:
    """Settings for clean-clean linkage over the two-source dataset:
    blocking and matching on the shared title/authors/year attributes,
    SN + hint, ``mode="linkage"`` restricting candidates to cross-source
    pairs."""
    defaults = dict(
        scheme=linkage_scheme(),
        matcher=linkage_matcher(),
        mechanism=SortedNeighborHint(),
        levels=LevelPolicy(leaf_frac=0.8, mid_frac=0.9),
        mode="linkage",
    )
    defaults.update(overrides)
    return ApproachConfig(**defaults)


__all__ = [
    "LevelPolicy",
    "ApproachConfig",
    "linear_weights",
    "citeseer_config",
    "books_config",
    "people_config",
    "skewed_config",
    "linkage_config",
]
