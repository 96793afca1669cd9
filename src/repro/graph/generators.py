"""Synthetic graph generators.

The paper evaluates on five real networks (Youtube, Skitter, Orkut, BTC,
Friendster).  Those are multi-GB downloads we cannot ship, so the
benchmark datasets are synthesized here with the *characteristics* that
drive the paper's results: power-law degree distributions (R-MAT /
preferential attachment), controllable density, optional planted cliques
(so maximum-clique finding has a non-trivial answer), extreme-degree hubs
(the "dense part of BTC" that broke G-Miner) and vertex labels (for
subgraph matching).

All generators are deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import Graph

__all__ = [
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "plant_clique",
    "plant_cliques",
    "with_random_labels",
    "ring_of_cliques",
    "star_burst",
]


def erdos_renyi(n: int, p: float, seed: int = 0) -> Graph:
    """G(n, p) random graph: every pair is an edge with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    # Geometric skipping: for sparse p this is O(|E|), not O(n^2).
    # Guard float extremes: a subnormal p underflows (1 - p == 1.0, so
    # log(1-p) == 0 and the skip length divides by zero), and p close
    # enough to 1 makes 1 - p == 0.0.
    if p <= 0.0 or 1.0 - p == 1.0:
        return Graph.from_edges([], extra_vertices=range(n))
    if p >= 1.0 or 1.0 - p == 0.0:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(edges, extra_vertices=range(n))
    import math

    log_q = math.log(1.0 - p)
    v = 1
    w = -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph.from_edges(edges, extra_vertices=range(n))


def barabasi_albert(n: int, m: int, seed: int = 0) -> Graph:
    """Preferential-attachment graph: each new vertex attaches to ``m`` others.

    Produces the heavy-tailed degree distribution typical of social
    networks such as Youtube and Friendster.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    # 'targets' holds one entry per half-edge, so sampling uniformly from
    # it is sampling proportional to degree.
    repeated: List[int] = []
    targets = list(range(m))
    for v in range(m, n):
        chosen: Set[int] = set()
        for t in targets:
            chosen.add(t)
        for t in chosen:
            edges.append((v, t))
        repeated.extend(chosen)
        repeated.extend([v] * len(chosen))
        targets = []
        seen: Set[int] = set()
        while len(targets) < m:
            t = repeated[rng.randrange(len(repeated))]
            if t not in seen:
                seen.add(t)
                targets.append(t)
    return Graph.from_edges(edges, extra_vertices=range(n))


def rmat(scale: int, edge_factor: int = 8, seed: int = 0) -> Graph:
    """R-MAT (recursive matrix) generator, the Graph500 workhorse.

    ``2**scale`` vertices and roughly ``edge_factor * 2**scale``
    undirected edges with a skewed, community-like structure.  The
    quadrant probabilities (a, b, c) = (0.57, 0.19, 0.19) are the
    Graph500 specification's and produce degree skew close to
    web/social graphs (Skitter, Orkut).
    """
    a, b, c = 0.57, 0.19, 0.19
    n = 1 << scale
    num_edges = edge_factor * n
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    for _ in range(num_edges):
        u = v = 0
        half = n >> 1
        while half >= 1:
            r = rng.random()
            if r < a:
                pass
            elif r < a + b:
                v += half
            elif r < a + b + c:
                u += half
            else:
                u += half
                v += half
            half >>= 1
        if u != v:
            edges.append((u, v))
    return Graph.from_edges(edges, extra_vertices=range(n))


def plant_clique(g: Graph, size: int, seed: int = 0, members: Optional[Sequence[int]] = None) -> Tuple[Graph, Tuple[int, ...]]:
    """Return a copy of ``g`` with a clique of ``size`` planted on existing vertices.

    The planted members are returned so tests can assert the maximum
    clique is at least this large.
    """
    vs = sorted(g.vertices())
    if size > len(vs):
        raise ValueError(f"cannot plant a {size}-clique in a {len(vs)}-vertex graph")
    rng = random.Random(seed)
    if members is None:
        members = rng.sample(vs, size)
    members = tuple(sorted(members))
    extra = [
        (u, v)
        for i, u in enumerate(members)
        for v in members[i + 1:]
        if not g.has_edge(u, v)
    ]
    merged = list(g.edges()) + extra
    return Graph.from_edges(merged, labels=g.labels(), extra_vertices=vs), members


def plant_cliques(
    g: Graph, sizes: Sequence[int], seed: int = 0
) -> Tuple[Graph, List[Tuple[int, ...]]]:
    """Plant several cliques (disjoint membership) of the given sizes."""
    rng = random.Random(seed)
    vs = sorted(g.vertices())
    if sum(sizes) > len(vs):
        raise ValueError("not enough vertices for disjoint planted cliques")
    pool = rng.sample(vs, sum(sizes))
    planted: List[Tuple[int, ...]] = []
    out = g
    offset = 0
    for s in sizes:
        members = pool[offset: offset + s]
        offset += s
        out, mem = plant_clique(out, s, members=members)
        planted.append(mem)
    return out, planted


def with_random_labels(g: Graph, num_labels: int, seed: int = 0) -> Graph:
    """Attach uniform-random labels in ``[0, num_labels)`` to every vertex."""
    if num_labels < 1:
        raise ValueError("num_labels must be >= 1")
    rng = random.Random(seed)
    labels = {v: rng.randrange(num_labels) for v in g.vertices()}
    return Graph(g.adjacency(), labels=labels)


def ring_of_cliques(num_cliques: int, clique_size: int) -> Graph:
    """``num_cliques`` cliques of ``clique_size`` joined in a ring.

    A classic stress shape: dense local structure with an easy global
    decomposition.  Useful for deterministic tests (exact triangle and
    clique counts are known in closed form).
    """
    if num_cliques < 1 or clique_size < 1:
        raise ValueError("need at least one clique of at least one vertex")
    edges: List[Tuple[int, int]] = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                edges.append((base + i, base + j))
        nxt = ((c + 1) % num_cliques) * clique_size
        if num_cliques > 1 and nxt != base:
            edges.append((base, nxt))
    n = num_cliques * clique_size
    return Graph.from_edges(edges, extra_vertices=range(n))


def star_burst(num_hubs: int, spokes_per_hub: int, hub_density: float = 1.0, seed: int = 0) -> Graph:
    """Hubs with huge degree plus a densely connected hub core.

    Mimics the extreme degree skew of BTC (the semantic-web graph on
    which G-Miner never finished): a few vertices see most of the graph.
    """
    rng = random.Random(seed)
    edges: List[Tuple[int, int]] = []
    next_id = num_hubs
    for h in range(num_hubs):
        for _ in range(spokes_per_hub):
            edges.append((h, next_id))
            next_id += 1
    for i in range(num_hubs):
        for j in range(i + 1, num_hubs):
            if rng.random() < hub_density:
                edges.append((i, j))
    return Graph.from_edges(edges, extra_vertices=range(next_id))
