"""Tests for quasi-clique mining."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    enumerate_quasi_cliques,
    is_quasi_clique,
    quasi_cliques_reference,
)
from repro.graph import Graph, erdos_renyi, ring_of_cliques


def test_clique_is_quasi_clique():
    g = ring_of_cliques(1, 5)
    assert is_quasi_clique(g, [0, 1, 2, 3, 4], 1.0)
    assert is_quasi_clique(g, [0, 1, 2, 3, 4], 0.5)


def test_near_clique():
    # 4-clique minus one edge: each vertex has degree >= 2 of 3.
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert not is_quasi_clique(g, [0, 1, 2, 3], 1.0)
    assert is_quasi_clique(g, [0, 1, 2, 3], 0.6)


def test_empty_set_not_quasi_clique(tiny_graph):
    assert not is_quasi_clique(tiny_graph, [], 0.5)


def test_gamma_one_gives_maximal_cliques():
    g = erdos_renyi(12, 0.4, seed=3)
    from repro.algorithms import enumerate_maximal_cliques

    qcs = set(enumerate_quasi_cliques(g, 1.0, min_size=3))
    cliques = {c for c in enumerate_maximal_cliques(g) if len(c) >= 3}
    # gamma=1 quasi-cliques of size >= 3 are exactly maximal cliques of
    # size >= 3 that are not contained in... a maximal clique < 3 can't
    # contain one >= 3, so the sets match.
    assert qcs == cliques


def test_invalid_parameters():
    g = erdos_renyi(5, 0.5)
    with pytest.raises(ValueError):
        list(enumerate_quasi_cliques(g, 0.0, 3))
    with pytest.raises(ValueError):
        list(enumerate_quasi_cliques(g, 1.5, 3))
    with pytest.raises(ValueError):
        list(enumerate_quasi_cliques(g, 0.5, 1))


# NOTE: quasi-clique enumeration is exponential and its prunes are weak
# for mid gammas, so these integration checks use small graphs on purpose
# (the 80-vertex er_graph fixture takes hours at gamma=0.7).


@pytest.fixture
def small_qc_graph():
    return erdos_renyi(18, 0.3, seed=17)


def test_results_qualify_and_are_maximal(small_qc_graph):
    g = small_qc_graph
    gamma, min_size = 0.7, 4
    got = list(enumerate_quasi_cliques(g, gamma, min_size))
    all_sets = {frozenset(q) for q in got}
    for q in got:
        assert len(q) >= min_size
        assert is_quasi_clique(g, q, gamma)
    # no result contains another
    for a in all_sets:
        for b in all_sets:
            if a != b:
                assert not a < b


def test_min_vertex_restriction(small_qc_graph):
    g = small_qc_graph
    gamma, min_size = 0.7, 4
    unrestricted = set(enumerate_quasi_cliques(g, gamma, min_size))
    union = set()
    for v in g.vertices():
        for q in enumerate_quasi_cliques(
            g, gamma, min_size, restrict_min_vertex=v
        ):
            assert min(q) == v
            union.add(q)
    assert union == unrestricted


def test_matches_bruteforce_reference():
    for seed in range(4):
        g = erdos_renyi(10, 0.45, seed=seed)
        for gamma in (0.5, 0.7, 0.9, 1.0):
            got = set(enumerate_quasi_cliques(g, gamma, min_size=3))
            want = quasi_cliques_reference(g, gamma, min_size=3)
            assert got == want, (seed, gamma)


def test_reference_rejects_big_graphs():
    with pytest.raises(ValueError):
        quasi_cliques_reference(erdos_renyi(20, 0.3), 0.5)


@settings(max_examples=20, deadline=None)
@given(st.integers(4, 10), st.floats(0.2, 0.6), st.integers(0, 30),
       st.sampled_from([0.5, 0.6, 0.8, 1.0]))
def test_property_vs_reference(n, p, seed, gamma):
    g = erdos_renyi(n, p, seed=seed)
    got = set(enumerate_quasi_cliques(g, gamma, min_size=3))
    assert got == quasi_cliques_reference(g, gamma, min_size=3)
