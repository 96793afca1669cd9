"""Oracle and graph helpers shared by tests."""

from repro.graph import Graph, hash_partition


def nx_of(g: Graph):
    """Convert a repro Graph to a networkx Graph."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(g.vertices())
    out.add_edges_from(g.edges())
    return out


def skewed(g: Graph, num_workers: int) -> Graph:
    """``g`` relabelled so that nine in ten of its vertices hash to
    worker 1: the other workers spawn out early and steal from it."""
    n = g.num_vertices
    ids = range(20 * n)
    home = [v for v in ids if hash_partition(v, num_workers) == 1]
    away = [v for v in ids if hash_partition(v, num_workers) != 1]
    k = n * 9 // 10
    new = dict(zip(sorted(g.vertices()), home[:k] + away[:n - k]))
    return Graph.from_edges([(new[u], new[w]) for u in g.vertices()
                             for w in g.neighbors(u) if u < w])
