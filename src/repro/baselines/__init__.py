"""Baselines: the Basic single-job approach and multi-pass MR-SN (the
NoSplit/LPT tree schedulers are ``RunSpec(strategy=)`` values)."""

from .basic import BasicConfig, BasicER, BasicResult
from .mrsn import MrsnConfig, MrsnResult, MultiPassMRSN

__all__ = [
    "BasicConfig",
    "BasicER",
    "BasicResult",
    "MrsnConfig",
    "MultiPassMRSN",
    "MrsnResult",
]
