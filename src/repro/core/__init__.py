"""G-thinker core: the CPU-bound task-based subgraph-mining engine."""

from .api import (
    Aggregator,
    Comper,
    MaxAggregator,
    SumAggregator,
    Task,
    Trimmer,
    VertexView,
)
from .config import (
    DiskModel,
    FailurePlanConfig,
    GThinkerConfig,
    MachineModel,
    NetworkModel,
)
from .errors import (
    CacheProtocolError,
    CheckpointError,
    GThinkerError,
    JobAbortedError,
    JobCancelledError,
    JobRejectedError,
    ServiceError,
    TaskError,
    UnknownRuntimeError,
    UnsupportedRuntimeFeature,
    WorkerProcessError,
)
from .job import (
    JobResult,
    available_runtimes,
    build_cluster,
    capability_matrix,
    get_runtime,
    resolve_resume,
    resume_job,
    run_job,
)
from .metrics import CacheStats, MetricsRegistry, WorkerMetrics
from .session import JobHandle, LocalJobHandle, Session
from .runtime import JobRequest, RuntimeCapabilities, RuntimeSpec
from .subgraph import Subgraph
from .vertex_cache import VertexCache

__all__ = [
    "Aggregator",
    "Comper",
    "MaxAggregator",
    "SumAggregator",
    "Task",
    "Trimmer",
    "VertexView",
    "DiskModel",
    "FailurePlanConfig",
    "GThinkerConfig",
    "MachineModel",
    "NetworkModel",
    "CacheProtocolError",
    "CheckpointError",
    "GThinkerError",
    "JobAbortedError",
    "JobCancelledError",
    "JobRejectedError",
    "ServiceError",
    "TaskError",
    "UnknownRuntimeError",
    "UnsupportedRuntimeFeature",
    "WorkerProcessError",
    "JobResult",
    "build_cluster",
    "resolve_resume",
    "resume_job",
    "run_job",
    "JobHandle",
    "LocalJobHandle",
    "Session",
    "CacheStats",
    "MetricsRegistry",
    "WorkerMetrics",
    "JobRequest",
    "RuntimeCapabilities",
    "RuntimeSpec",
    "available_runtimes",
    "capability_matrix",
    "get_runtime",
    "Subgraph",
    "VertexCache",
]
