"""Synthetic stand-ins for the paper's five evaluation datasets (Table II).

The paper evaluates on Youtube, Skitter, Orkut, BTC and Friendster.  We
synthesize graphs with the same *discriminating characteristics* at
laptop scale (see DESIGN.md §2):

============  =================================================  =====================
paper graph   character we preserve                              generator
============  =================================================  =====================
Youtube       sparse social graph, heavy-tailed degrees          Barabási–Albert
Skitter       internet topology, moderate density, big cliques   R-MAT + planted cliques
Orkut         dense social graph (avg degree ~76)                R-MAT, high edge factor
BTC           extreme degree skew ("dense part" hub region)      star-burst hubs + R-MAT
Friendster    the largest graph, power law, 129-clique answer    BA + planted cliques
============  =================================================  =====================

Each dataset carries a ``scale`` knob: ``scale=1.0`` is the default
benchmark size (fits in seconds on one laptop core); tests use smaller
scales.  EXPERIMENTS.md records the down-scaling factor relative to the
real graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .generators import (
    barabasi_albert,
    plant_cliques,
    rmat,
    star_burst,
    with_random_labels,
)
from .graph import Graph

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "make_dataset",
    "dataset_stats",
    "PAPER_TABLE2",
]

#: The real-graph statistics from Table II of the paper, used by the
#: Table II bench to print paper-vs-ours side by side.
PAPER_TABLE2: Dict[str, Dict[str, float]] = {
    "youtube": {"num_vertices": 1_134_890, "num_edges": 2_987_624},
    "skitter": {"num_vertices": 1_696_415, "num_edges": 11_095_298},
    "orkut": {"num_vertices": 3_072_441, "num_edges": 117_185_083},
    "btc": {"num_vertices": 164_732_473, "num_edges": 386_690_315},
    "friendster": {"num_vertices": 65_608_366, "num_edges": 1_806_067_135},
}


#: Generator seed of every stand-in: a name and a scale fix one graph.
SEED = 7


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic dataset recipe."""

    name: str
    description: str
    builder: Callable[[float, int], Tuple[Graph, Tuple[Tuple[int, ...], ...]]]

    def build(self, scale: float = 1.0) -> Graph:
        graph, _planted = self.builder(scale, SEED)
        return graph

    def build_with_planted(
        self, scale: float = 1.0
    ) -> Tuple[Graph, Tuple[Tuple[int, ...], ...]]:
        """Also return planted clique memberships (for oracle assertions)."""
        return self.builder(scale, SEED)


def _scaled(base: int, scale: float, minimum: int = 16) -> int:
    return max(minimum, int(round(base * scale)))


def _youtube(scale: float, seed: int) -> Tuple[Graph, Tuple[Tuple[int, ...], ...]]:
    n = _scaled(3000, scale)
    g = barabasi_albert(n, m=3, seed=seed)
    g, planted = plant_cliques(g, [max(6, int(10 * math.sqrt(scale)))], seed=seed + 1)
    return g, tuple(planted)


def _skitter(scale: float, seed: int) -> Tuple[Graph, Tuple[Tuple[int, ...], ...]]:
    log2n = max(7, int(round(11 + math.log2(max(scale, 1e-6)))))
    g = rmat(scale=log2n, edge_factor=7, seed=seed)
    k = max(8, int(14 * math.sqrt(scale)))
    g, planted = plant_cliques(g, [k, max(5, k // 2)], seed=seed + 1)
    return g, tuple(planted)


def _orkut(scale: float, seed: int) -> Tuple[Graph, Tuple[Tuple[int, ...], ...]]:
    log2n = max(7, int(round(10 + math.log2(max(scale, 1e-6)))))
    g = rmat(scale=log2n, edge_factor=24, seed=seed)
    k = max(10, int(18 * math.sqrt(scale)))
    g, planted = plant_cliques(g, [k], seed=seed + 1)
    return g, tuple(planted)


def _btc(scale: float, seed: int) -> Tuple[Graph, Tuple[Tuple[int, ...], ...]]:
    hubs = _scaled(24, scale, minimum=8)
    spokes = _scaled(260, scale, minimum=32)
    hubby = star_burst(hubs, spokes, hub_density=0.9, seed=seed)
    log2n = max(7, int(round(11 + math.log2(max(scale, 1e-6)))))
    tail = rmat(scale=log2n, edge_factor=3, seed=seed + 1)
    offset = hubby.num_vertices
    merged = list(hubby.edges()) + [(u + offset, v + offset) for u, v in tail.edges()]
    # Stitch the two regions so the graph is one component-ish blob.
    merged += [(h, offset + h) for h in range(hubs)]
    g = Graph.from_edges(merged)
    return g, ()


def _friendster(scale: float, seed: int) -> Tuple[Graph, Tuple[Tuple[int, ...], ...]]:
    n = _scaled(12000, scale)
    g = barabasi_albert(n, m=6, seed=seed)
    # The paper's headline: Friendster's maximum clique has 129 vertices.
    # We plant a dominant clique (scaled) plus decoys so branch-and-bound
    # pruning is actually exercised.
    k = max(12, int(26 * math.sqrt(scale)))
    g, planted = plant_cliques(g, [k, max(6, k - 4), max(5, k // 2)], seed=seed + 1)
    return g, tuple(planted)


DATASETS: Dict[str, DatasetSpec] = {
    "youtube": DatasetSpec("youtube", "sparse social graph (BA, m=3)", _youtube),
    "skitter": DatasetSpec("skitter", "internet topology (R-MAT ef=7 + cliques)", _skitter),
    "orkut": DatasetSpec("orkut", "dense social graph (R-MAT ef=24)", _orkut),
    "btc": DatasetSpec("btc", "extreme-skew semantic web (hubs + R-MAT)", _btc),
    "friendster": DatasetSpec("friendster", "largest graph (BA, m=6, planted max clique)", _friendster),
}


def make_dataset(
    name: str,
    scale: float = 1.0,
    labeled: Optional[int] = None,
) -> Graph:
    """Build a named dataset stand-in.

    Parameters
    ----------
    name:
        One of :data:`DATASETS` (``youtube``, ``skitter``, ``orkut``,
        ``btc``, ``friendster``).
    scale:
        Size multiplier; 1.0 is the default benchmark size.
    labeled:
        If given, attach this many random vertex labels (for subgraph
        matching workloads).
    """
    try:
        spec = DATASETS[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
    g = spec.build(scale=scale)
    if labeled is not None:
        g = with_random_labels(g, labeled, seed=SEED + 99)
    return g


def dataset_stats(g: Graph) -> Dict[str, float]:
    """The Table II statistics columns for a graph."""
    return {
        "num_vertices": g.num_vertices,
        "num_edges": g.num_edges,
        "avg_degree": round(g.average_degree(), 2),
        "max_degree": g.max_degree(),
    }
