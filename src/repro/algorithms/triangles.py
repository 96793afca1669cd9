"""Serial triangle counting and listing.

Triangle counting (TC) is one of the paper's three evaluation
applications.  The serial kernel here is the standard forward /
edge-iterator algorithm on :math:`\\Gamma_{>}` adjacency: a triangle
``{u, v, w}`` with ``u < v < w`` is counted exactly once, at ``u``, as
``|Gamma_>(u) ∩ Gamma_>(v)|`` for each ``v ∈ Gamma_>(u)``.  Complexity
is the paper's quoted :math:`O(|E|^{1.5})` on bounded-arboricity graphs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from ..graph import kernels
from ..graph.graph import Graph

__all__ = [
    "count_triangles",
    "list_triangles",
    "count_triangles_from_gt",
]


def _gt_adjacency(g) -> Dict[int, np.ndarray]:
    """``Γ_>`` rows as sorted int64 ndarrays (views where possible)."""
    if isinstance(g, Graph):
        return {v: g.neighbors_gt_array(v) for v in g.vertices()}
    return {
        v: kernels.suffix_gt(kernels.as_ids_array(tuple(a)), v)
        for v, a in g.items()
    }


def count_triangles_from_gt(gt_adj: Mapping[int, Sequence[int]]) -> int:
    """Count triangles given pre-trimmed ``Gamma_>`` adjacency.

    This is exactly the per-task work a G-thinker TC task performs after
    the Trimmer has reduced every adjacency list to its larger-id suffix.
    ``gt_adj`` rows may be tuples or ndarrays; counting runs on the
    vectorized kernels either way.
    """
    rows = {v: kernels.as_ids_array(a) for v, a in gt_adj.items()}
    empty = np.empty(0, dtype=np.int64)
    total = 0
    for u, nbrs in rows.items():
        if nbrs.size < 1:
            continue
        # One fused kernel call per vertex: |Γ_>(u) ∩ Γ_>(v)| summed over
        # all v in Γ_>(u), no intermediate intersections materialized.
        total += kernels.intersect_count_many(
            nbrs, [rows.get(int(v), empty) for v in nbrs]
        )
    return total


def count_triangles(g) -> int:
    """Count all triangles of an undirected graph exactly once each."""
    return count_triangles_from_gt(_gt_adjacency(g))


def list_triangles(g) -> Iterator[Tuple[int, int, int]]:
    """Yield every triangle as an ordered tuple ``(u, v, w)``, ``u < v < w``."""
    gt = _gt_adjacency(g)
    for u in sorted(gt):
        nbrs = gt[u]
        for v in nbrs.tolist():
            other = gt.get(v)
            if other is None or not other.size:
                continue
            for w in kernels.intersect(nbrs, other).tolist():
                yield (u, v, w)

