"""The paper's contribution: progressive blocking statistics, duplicate and
cost estimation, schedule generation, redundancy-free resolution, and the
two-job MapReduce driver."""

from .balance import (
    BALANCE_STRATEGIES,
    BalancePlan,
    BlockShard,
    SkewReport,
    apply_balance,
    format_balance_summary,
    planned_loads,
    skew_report,
)
from .config import (
    ApproachConfig,
    LevelPolicy,
    books_config,
    citeseer_config,
    linear_weights,
    linkage_config,
    people_config,
    skewed_config,
)
from .driver import ProgressiveER, ProgressiveResult, Resolution
from .metablock import (
    METABLOCK_MODES,
    MetablockPlan,
    WnpPruner,
    block_filter,
    build_metablock_plan,
    candidate_pairs,
    format_metablock_summary,
    level1_blocks,
    level1_signatures,
    pair_weight,
)
from .estimation import (
    BlockEstimate,
    DuplicateEstimator,
    EstimationModel,
    LearnedEstimator,
    OracleEstimator,
    UniformEstimator,
)
from .redundancy import build_dominance_list, missing_sentinel, should_resolve
from .responsibility import compute_coverage, covered_pairs, uncovered_pairs
from .schedule import ProgressiveSchedule, generate_schedule
from .statistics import (
    AnnotatedEntity,
    BlockRecord,
    DatasetStatistics,
    run_statistics_job,
)

__all__ = [
    "BALANCE_STRATEGIES",
    "BalancePlan",
    "BlockShard",
    "SkewReport",
    "apply_balance",
    "format_balance_summary",
    "planned_loads",
    "skew_report",
    "ApproachConfig",
    "LevelPolicy",
    "citeseer_config",
    "books_config",
    "people_config",
    "skewed_config",
    "linkage_config",
    "linear_weights",
    "ProgressiveER",
    "ProgressiveResult",
    "Resolution",
    "METABLOCK_MODES",
    "MetablockPlan",
    "WnpPruner",
    "block_filter",
    "build_metablock_plan",
    "candidate_pairs",
    "format_metablock_summary",
    "level1_blocks",
    "level1_signatures",
    "pair_weight",
    "BlockEstimate",
    "DuplicateEstimator",
    "EstimationModel",
    "LearnedEstimator",
    "OracleEstimator",
    "UniformEstimator",
    "build_dominance_list",
    "missing_sentinel",
    "should_resolve",
    "compute_coverage",
    "covered_pairs",
    "uncovered_pairs",
    "ProgressiveSchedule",
    "generate_schedule",
    "AnnotatedEntity",
    "BlockRecord",
    "DatasetStatistics",
    "run_statistics_job",
]
