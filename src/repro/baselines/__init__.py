"""Baselines: the Basic single-job approach and multi-pass MR-SN (the
NoSplit/LPT tree schedulers are ``RunSpec(strategy=)`` values).  Both
return a :class:`~repro.core.driver.Resolution`, as ours does."""

from .basic import BasicConfig, BasicER
from .mrsn import MrsnConfig, MultiPassMRSN

__all__ = [
    "BasicConfig",
    "BasicER",
    "MrsnConfig",
    "MultiPassMRSN",
]
