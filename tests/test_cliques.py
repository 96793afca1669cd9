"""Tests for the serial clique miners against independent oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    enumerate_maximal_cliques,
    max_clique,
    max_clique_reference,
)
from repro.graph import Graph, erdos_renyi, plant_clique, ring_of_cliques

from tests.oracles import nx_of


def test_max_clique_tiny(tiny_graph):
    assert max_clique(tiny_graph) == (0, 1, 2) or len(max_clique(tiny_graph)) == 3


def test_max_clique_is_a_clique(er_graph):
    clique = max_clique(er_graph)
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            assert er_graph.has_edge(u, v)


def test_max_clique_matches_networkx(er_graph):
    import networkx as nx

    ref = max(nx.find_cliques(nx_of(er_graph)), key=len)
    assert len(max_clique(er_graph)) == len(ref)


def test_max_clique_empty_graph():
    assert max_clique(Graph()) == ()


def test_max_clique_edgeless():
    g = Graph.from_edges([], extra_vertices=[1, 2, 3])
    assert len(max_clique(g)) == 1


def test_max_clique_ring(clique_ring):
    assert len(max_clique(clique_ring)) == 6


def test_lower_bound_prunes():
    """With lower_bound >= answer the search returns empty."""
    g = ring_of_cliques(3, 4)
    assert max_clique(g, lower_bound=4) == ()
    assert max_clique(g, lower_bound=5) == ()
    assert len(max_clique(g, lower_bound=3)) == 4


def test_planted_clique_found():
    g = erdos_renyi(80, 0.05, seed=11)
    g2, members = plant_clique(g, 9, seed=12)
    assert len(max_clique(g2)) == 9


def test_bron_kerbosch_matches_networkx(er_graph):
    import networkx as nx

    ours = {c for c in enumerate_maximal_cliques(er_graph)}
    theirs = {tuple(sorted(c)) for c in nx.find_cliques(nx_of(er_graph))}
    assert ours == theirs


def test_reference_agrees_with_bnb(er_graph):
    assert len(max_clique_reference(er_graph)) == len(max_clique(er_graph))


def test_accepts_plain_adjacency_mapping():
    adj = {0: (1, 2), 1: (0, 2), 2: (0, 1), 3: ()}
    assert set(max_clique(adj)) == {0, 1, 2}


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 30), st.floats(0.05, 0.7), st.integers(0, 100))
def test_max_clique_property_vs_networkx(n, p, seed):
    import networkx as nx

    g = erdos_renyi(n, p, seed=seed)
    ref = max(nx.find_cliques(nx_of(g)), key=len)
    ours = max_clique(g)
    assert len(ours) == len(ref)
    # And the returned set really is a clique.
    for i, u in enumerate(ours):
        for v in ours[i + 1:]:
            assert g.has_edge(u, v)


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 20), st.floats(0.1, 0.6), st.integers(0, 50), st.integers(0, 6))
def test_lower_bound_never_loses_better_answer(n, p, seed, bound):
    g = erdos_renyi(n, p, seed=seed)
    true_size = len(max_clique(g))
    found = max_clique(g, lower_bound=bound)
    if bound < true_size:
        assert len(found) == true_size
    else:
        assert found == ()
