"""Serial mining kernels run inside tasks, plus independent test oracles."""

from .cliques import (
    enumerate_maximal_cliques,
    max_clique,
    max_clique_reference,
)
from .triangles import (
    count_triangles,
    count_triangles_from_gt,
    list_triangles,
)
from .matching import (
    QueryGraph,
    count_matches,
    match_reference,
    match_subgraph,
    path_query,
    star_query,
    triangle_query,
)
from .quasicliques import (
    enumerate_quasi_cliques,
    is_quasi_clique,
    quasi_cliques_reference,
)

__all__ = [
    "enumerate_maximal_cliques",
    "max_clique",
    "max_clique_reference",
    "count_triangles",
    "count_triangles_from_gt",
    "list_triangles",
    "QueryGraph",
    "count_matches",
    "match_reference",
    "match_subgraph",
    "path_query",
    "star_query",
    "triangle_query",
    "enumerate_quasi_cliques",
    "is_quasi_clique",
    "quasi_cliques_reference",
]
