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

from .baselines import BasicConfig, BasicER, BasicResult
from .blocking import (
    Block,
    BlockingFunction,
    BlockingScheme,
    Forest,
    books_scheme,
    build_forests,
    citeseer_scheme,
    prefix_function,
)
from .core import (
    ApproachConfig,
    LevelPolicy,
    ProgressiveER,
    ProgressiveResult,
    ProgressiveSchedule,
    books_config,
    citeseer_config,
    generate_schedule,
)
from .data import (
    Dataset,
    Entity,
    make_books,
    make_citeseer,
    pair_key,
    pairs_count,
)
from .evaluation import (
    ExperimentRun,
    RecallCurve,
    RunResult,
    RunSpec,
    quality,
    recall_curve,
    recall_speedup,
    transitive_closure,
)
from .scheduling import (
    AdmissionPolicy,
    AdmissionReceipt,
    JobScheduler,
    SchedulerReport,
    poisson_arrivals,
)
from .service import BatchReceipt, PairEvent, ResolverService, ResolverSession
from .observability import MetricsRegistry, Tracer, write_chrome_trace
from .mapreduce import Cluster, CostModel, MapReduceJob
from .mechanisms import PSNM, FullResolution, PopcornCondition, SortedNeighborHint
from .similarity import (
    AttributeRule,
    WeightedMatcher,
    books_matcher,
    citeseer_matcher,
    edit_similarity,
    levenshtein,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data
    "Entity",
    "Dataset",
    "make_citeseer",
    "make_books",
    "pair_key",
    "pairs_count",
    # similarity
    "levenshtein",
    "edit_similarity",
    "AttributeRule",
    "WeightedMatcher",
    "citeseer_matcher",
    "books_matcher",
    # blocking
    "Block",
    "Forest",
    "BlockingFunction",
    "BlockingScheme",
    "prefix_function",
    "citeseer_scheme",
    "books_scheme",
    "build_forests",
    # mechanisms
    "SortedNeighborHint",
    "PSNM",
    "FullResolution",
    "PopcornCondition",
    # mapreduce
    "Cluster",
    "CostModel",
    "MapReduceJob",
    # core
    "ApproachConfig",
    "LevelPolicy",
    "citeseer_config",
    "books_config",
    "ProgressiveER",
    "ProgressiveResult",
    "ProgressiveSchedule",
    "generate_schedule",
    # baselines
    "BasicConfig",
    "BasicER",
    "BasicResult",
    # evaluation
    "RunSpec",
    "RunResult",
    "ExperimentRun",
    "RecallCurve",
    "recall_curve",
    "quality",
    "recall_speedup",
    "transitive_closure",
    # service
    "ResolverService",
    "ResolverSession",
    "BatchReceipt",
    "PairEvent",
    # scheduling
    "JobScheduler",
    "AdmissionPolicy",
    "AdmissionReceipt",
    "SchedulerReport",
    "poisson_arrivals",
    # observability
    "Tracer",
    "MetricsRegistry",
    "write_chrome_trace",
]
