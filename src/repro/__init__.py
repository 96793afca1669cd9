"""G-thinker reproduction: a CPU-bound distributed subgraph-mining framework.

Reimplements Yan et al., *"G-thinker: A Distributed Framework for Mining
Subgraphs in a Big Graph"* (ICDE 2020) in Python: the task-based
vertex-pulling API, the concurrent remote-vertex cache, the lightweight
task scheduler with disk spilling and work stealing, the evaluated
applications (maximum clique, triangle counting, subgraph matching,
quasi-cliques), baseline systems, and a discrete-event cluster simulator
that regenerates the paper's experiment tables.

Quick start::

    from repro import run_job, GThinkerConfig
    from repro.apps import TriangleCountComper
    from repro.graph import make_dataset

    g = make_dataset("youtube", scale=0.2)
    result = run_job(TriangleCountComper, g, GThinkerConfig(num_workers=4))
    print("triangles:", result.aggregate)
"""

from .core import (
    Aggregator,
    Comper,
    FailurePlanConfig,
    GThinkerConfig,
    JobHandle,
    JobResult,
    MaxAggregator,
    Session,
    SumAggregator,
    Task,
    Trimmer,
    VertexView,
    available_runtimes,
    build_cluster,
    capability_matrix,
    resume_job,
    run_job,
)
from .graph import Graph, make_dataset

__version__ = "1.0.0"

__all__ = [
    "Aggregator",
    "Comper",
    "FailurePlanConfig",
    "GThinkerConfig",
    "JobHandle",
    "JobResult",
    "Session",
    "MaxAggregator",
    "SumAggregator",
    "Task",
    "Trimmer",
    "VertexView",
    "available_runtimes",
    "build_cluster",
    "capability_matrix",
    "resume_job",
    "run_job",
    "Graph",
    "make_dataset",
    "__version__",
]
