"""Reimplementations of the compared systems' execution models."""

from .base import BaselineResult, CostModel
from .vertexcentric import PregelEngine, giraph_max_clique, giraph_triangle_count
from .arabesque import (
    arabesque_clique_levels,
    arabesque_max_clique,
    arabesque_triangle_count,
)
from .gminer import (
    gminer_max_clique,
    gminer_subgraph_match,
    gminer_triangle_count,
    lsh_signature,
)
from .rstream import rstream_disk_demand, rstream_triangle_count
from .nscale import nscale_max_clique
from .nuri import nuri_max_clique
from .features import DESIRABILITIES, FEATURE_MATRIX, feature_rows

__all__ = [
    "BaselineResult",
    "CostModel",
    "PregelEngine",
    "giraph_max_clique",
    "giraph_triangle_count",
    "arabesque_clique_levels",
    "arabesque_max_clique",
    "arabesque_triangle_count",
    "gminer_max_clique",
    "gminer_subgraph_match",
    "gminer_triangle_count",
    "lsh_signature",
    "rstream_disk_demand",
    "rstream_triangle_count",
    "nscale_max_clique",
    "nuri_max_clique",
    "DESIRABILITIES",
    "FEATURE_MATRIX",
    "feature_rows",
]
