"""Tests for the synthetic graph generators."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    barabasi_albert,
    erdos_renyi,
    plant_clique,
    plant_cliques,
    ring_of_cliques,
    rmat,
    star_burst,
    with_random_labels,
)


def test_er_determinism():
    a = erdos_renyi(50, 0.2, seed=3)
    b = erdos_renyi(50, 0.2, seed=3)
    assert a == b


def test_er_edge_probability_extremes():
    empty = erdos_renyi(10, 0.0)
    assert empty.num_edges == 0 and empty.num_vertices == 10
    full = erdos_renyi(10, 1.0)
    assert full.num_edges == 45


def test_er_rejects_bad_probability():
    with pytest.raises(ValueError):
        erdos_renyi(10, 1.5)


@settings(max_examples=20)
@given(st.integers(2, 60), st.floats(0.0, 1.0), st.integers(0, 5))
def test_er_vertex_count_property(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    assert g.num_vertices == n
    assert g.num_edges <= n * (n - 1) // 2


def test_ba_degree_floor():
    g = barabasi_albert(100, m=3, seed=1)
    assert g.num_vertices == 100
    # Every vertex added after the seed connects to >= 1 target.
    late = [v for v in g.vertices() if v >= 3]
    assert all(g.degree(v) >= 1 for v in late)
    # Preferential attachment produces a heavy tail.
    assert g.max_degree() > 3 * g.average_degree()


def test_ba_rejects_bad_m():
    with pytest.raises(ValueError):
        barabasi_albert(5, m=5)
    with pytest.raises(ValueError):
        barabasi_albert(5, m=0)


def test_rmat_shape():
    g = rmat(scale=8, edge_factor=4, seed=2)
    assert g.num_vertices == 256
    assert 0 < g.num_edges <= 4 * 256


def test_rmat_skew():
    g = rmat(scale=9, edge_factor=8, seed=4)
    # R-MAT degree distributions are strongly skewed.
    assert g.max_degree() > 4 * g.average_degree()


def test_plant_clique():
    g = erdos_renyi(40, 0.05, seed=9)
    g2, members = plant_clique(g, 8, seed=1)
    assert len(members) == 8
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            assert g2.has_edge(u, v)
    # Original edges preserved.
    for u, v in g.edges():
        assert g2.has_edge(u, v)


def test_plant_clique_too_big():
    g = erdos_renyi(5, 0.1)
    with pytest.raises(ValueError):
        plant_clique(g, 6)


def test_plant_cliques_disjoint():
    g = erdos_renyi(60, 0.05, seed=2)
    g2, planted = plant_cliques(g, [6, 5], seed=3)
    a, b = set(planted[0]), set(planted[1])
    assert not (a & b)
    from repro.algorithms import max_clique

    assert len(max_clique(g2)) >= 6


def test_ring_of_cliques_exact_counts():
    g = ring_of_cliques(4, 5)
    assert g.num_vertices == 20
    # 4 * C(5,2) internal edges + 4 ring edges
    assert g.num_edges == 4 * 10 + 4


def test_ring_of_single_clique():
    g = ring_of_cliques(1, 4)
    assert g.num_vertices == 4
    assert g.num_edges == 6


def test_star_burst_hubs():
    g = star_burst(4, 30, hub_density=1.0, seed=1)
    for h in range(4):
        assert g.degree(h) >= 30
    assert g.max_degree() >= 33  # spokes + other hubs


def test_with_random_labels():
    g = erdos_renyi(30, 0.2, seed=5)
    lg = with_random_labels(g, 4, seed=6)
    labels = {lg.label(v) for v in lg.vertices()}
    assert labels <= set(range(4))
    assert len(labels) > 1
    # Structure unchanged.
    assert lg == g or lg.num_edges == g.num_edges


def test_with_random_labels_rejects_zero():
    with pytest.raises(ValueError):
        with_random_labels(erdos_renyi(5, 0.5), 0)
