"""Session-oriented incremental entity resolution.

:class:`ResolverService` is the streaming API over the batch machinery:
submit entity batches, stream newly found pairs, query live clusters, and
snapshot/restore the whole session.  :class:`ResolverSession` holds the
configured cluster it runs its delta jobs on; a one-shot
:class:`~repro.evaluation.experiment.ExperimentRun` holds one too.
"""

from .delta import (
    DeltaMapper,
    DeltaPlan,
    DeltaReducer,
    build_delta_job,
    plan_delta,
)
from .resolver import (
    BatchReceipt,
    PairEvent,
    ResolverService,
    config_fingerprint,
)
from .session import ResolverSession, build_cluster
from .store import EntityStore

__all__ = [
    "ResolverService",
    "ResolverSession",
    "BatchReceipt",
    "PairEvent",
    "EntityStore",
    "DeltaPlan",
    "DeltaMapper",
    "DeltaReducer",
    "plan_delta",
    "build_delta_job",
    "build_cluster",
    "config_fingerprint",
]
