"""Unit tests for the Graph representation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph, adjacency_suffix_gt, intersect_sorted, intersect_sorted_count
from repro.graph.generators import erdos_renyi


def test_from_edges_basic(tiny_graph):
    assert tiny_graph.num_vertices == 4
    assert tiny_graph.num_edges == 5
    assert tiny_graph.neighbors(2) == (0, 1, 3)
    assert tiny_graph.degree(2) == 3


def test_self_loops_dropped():
    g = Graph.from_edges([(1, 1), (1, 2)])
    assert g.num_edges == 1
    assert g.neighbors(1) == (2,)


def test_duplicate_edges_collapse():
    g = Graph.from_edges([(0, 1), (1, 0), (0, 1)])
    assert g.num_edges == 1


def test_extra_vertices_isolated():
    g = Graph.from_edges([(0, 1)], extra_vertices=[5, 6])
    assert g.num_vertices == 4
    assert g.degree(5) == 0


def test_adjacency_constructor_symmetry_closure():
    # A neighbor with no row of its own still becomes a vertex.
    g = Graph({0: [1, 2]})
    assert {1, 2} <= set(g.vertices())
    assert g.neighbors(1) == ()


def test_neighbors_gt(tiny_graph):
    assert tiny_graph.neighbors_gt(0) == (1, 2)
    assert tiny_graph.neighbors_gt(2) == (3,)
    assert tiny_graph.neighbors_gt(3) == ()


def test_has_edge(tiny_graph):
    assert tiny_graph.has_edge(0, 1)
    assert tiny_graph.has_edge(1, 0)
    assert not tiny_graph.has_edge(0, 3)
    assert not tiny_graph.has_edge(0, 99)


def test_edges_iterates_each_once(tiny_graph):
    edges = list(tiny_graph.edges())
    assert len(edges) == tiny_graph.num_edges
    assert all(u < v for u, v in edges)
    assert len(set(edges)) == len(edges)


def test_induced_subgraph(tiny_graph):
    sub = tiny_graph.induced_subgraph([0, 1, 2])
    assert sub.num_vertices == 3
    assert sub.num_edges == 3
    assert not sub.has_edge(2, 3)


def test_induced_subgraph_ignores_unknown_vertices(tiny_graph):
    sub = tiny_graph.induced_subgraph([0, 1, 99])
    assert sub.num_vertices == 2


def test_labels():
    g = Graph({0: [1], 1: [0]}, labels={0: 7})
    assert g.label(0) == 7
    assert g.label(1) == 0  # default


def test_degree_stats(clique_ring):
    assert clique_ring.max_degree() >= 5
    assert clique_ring.average_degree() > 0


def test_graph_not_hashable(tiny_graph):
    with pytest.raises(TypeError):
        hash(tiny_graph)


def test_graph_equality():
    a = Graph.from_edges([(0, 1)])
    b = Graph.from_edges([(1, 0)])
    assert a == b


def test_memory_estimate_positive(er_graph):
    assert er_graph.memory_estimate_bytes() > er_graph.num_vertices * 16


# -- sorted-set kernels ----------------------------------------------------


def test_intersect_sorted_basic():
    assert intersect_sorted([1, 3, 5, 7], [2, 3, 5, 8]) == [3, 5]
    assert intersect_sorted([], [1, 2]) == []
    assert intersect_sorted_count([1, 2, 3], [1, 2, 3]) == 3


@given(
    st.lists(st.integers(0, 200), max_size=60),
    st.lists(st.integers(0, 200), max_size=60),
)
def test_intersect_sorted_matches_sets(a, b):
    sa, sb = sorted(set(a)), sorted(set(b))
    expected = sorted(set(a) & set(b))
    assert intersect_sorted(sa, sb) == expected
    assert intersect_sorted_count(sa, sb) == len(expected)


@given(st.lists(st.integers(0, 100), max_size=50), st.integers(0, 100))
def test_adjacency_suffix_gt_property(adj, v):
    row = tuple(sorted(set(adj)))
    suffix = adjacency_suffix_gt(row, v)
    assert all(u > v for u in suffix)
    assert set(suffix) == {u for u in row if u > v}


@settings(max_examples=30)
@given(st.integers(5, 40), st.floats(0.0, 0.6), st.integers(0, 10))
def test_edges_symmetric_property(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    for u, v in g.edges():
        assert g.has_edge(v, u)
        assert u in g.neighbors(v)
        assert v in g.neighbors(u)
