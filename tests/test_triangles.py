"""Tests for triangle counting/listing."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    count_triangles,
    count_triangles_from_gt,
    list_triangles,
)
from repro.graph import Graph, erdos_renyi, ring_of_cliques

from tests.oracles import nx_of


def test_triangle_free():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    assert count_triangles(g) == 0


def test_single_triangle():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert count_triangles(g) == 1
    assert list(list_triangles(g)) == [(0, 1, 2)]


def test_clique_count():
    g = ring_of_cliques(1, 6)
    assert count_triangles(g) == comb(6, 3)


def test_ring_of_cliques_closed_form(clique_ring):
    assert count_triangles(clique_ring) == 5 * comb(6, 3)


def test_matches_networkx(er_graph):
    import networkx as nx

    assert count_triangles(er_graph) == sum(nx.triangles(nx_of(er_graph)).values()) // 3


def test_list_matches_count(er_graph):
    tris = list(list_triangles(er_graph))
    assert len(tris) == count_triangles(er_graph)
    assert all(u < v < w for u, v, w in tris)
    assert len(set(tris)) == len(tris)


def test_listed_triangles_are_triangles(er_graph):
    for u, v, w in list_triangles(er_graph):
        assert er_graph.has_edge(u, v)
        assert er_graph.has_edge(v, w)
        assert er_graph.has_edge(u, w)


def test_from_gt_adjacency(er_graph):
    gt = {v: er_graph.neighbors_gt(v) for v in er_graph.vertices()}
    assert count_triangles_from_gt(gt) == count_triangles(er_graph)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 35), st.floats(0.0, 0.7), st.integers(0, 100))
def test_count_property_vs_networkx(n, p, seed):
    import networkx as nx

    g = erdos_renyi(n, p, seed=seed)
    assert count_triangles(g) == sum(nx.triangles(nx_of(g)).values()) // 3
