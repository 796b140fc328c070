"""repro — Parallel Progressive Entity Resolution using MapReduce.

A full reproduction of Altowim & Mehrotra, *"Parallel Progressive Approach
to Entity Resolution Using MapReduce"* (ICDE 2017): the two-job progressive
ER pipeline, its duplicate/cost estimation and schedule generation,
redundancy-free resolution, the Basic/NoSplit/LPT baselines, and a
deterministic MapReduce simulator with virtual-time cost accounting.

Quick start::

    from repro import make_citeseer, citeseer_config, ExperimentRun, RunSpec

    dataset = make_citeseer(4000, seed=7)
    run = ExperimentRun(RunSpec(dataset, citeseer_config(), machines=10)).run()
    print(run.final_recall, run.curve.recall_at(run.total_time / 4))
"""

from .baselines import BasicConfig, BasicER
from .blocking import BlockingScheme, books_scheme, citeseer_scheme, prefix_function
from .core import ProgressiveER, books_config, citeseer_config
from .data import Dataset, Entity, make_books, make_citeseer
from .evaluation import ExperimentRun, RunSpec, recall_curve, transitive_closure
from .service import ResolverService
from .observability import MetricsRegistry, Tracer, write_chrome_trace
from .mapreduce import Cluster
from .mechanisms import PSNM, SortedNeighborHint
from .similarity import AttributeRule, WeightedMatcher

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data
    "Entity",
    "Dataset",
    "make_citeseer",
    "make_books",
    # similarity
    "AttributeRule",
    "WeightedMatcher",
    # blocking
    "BlockingScheme",
    "prefix_function",
    "citeseer_scheme",
    "books_scheme",
    # mechanisms
    "SortedNeighborHint",
    "PSNM",
    # mapreduce
    "Cluster",
    # core
    "citeseer_config",
    "books_config",
    "ProgressiveER",
    # baselines
    "BasicConfig",
    "BasicER",
    # evaluation
    "RunSpec",
    "ExperimentRun",
    "recall_curve",
    "transitive_closure",
    # service
    "ResolverService",
    # observability
    "Tracer",
    "MetricsRegistry",
    "write_chrome_trace",
]
