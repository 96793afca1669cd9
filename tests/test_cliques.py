"""Tests for the serial clique miners against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    enumerate_maximal_cliques,
    max_clique,
    max_clique_reference,
)
from repro.algorithms.cliques import _BITSET_MAX, peel
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


def _rows(g, form, stride):
    """``g``'s adjacency as the kernel may receive it, ids scaled by
    ``stride`` (a large stride makes the id span sparse): full rows,
    Γ_>-trimmed rows, or full rows that also name ids with no row of
    their own (below and above every real id, as a task's pulled rows
    name vertices two hops out)."""
    n = g.num_vertices
    adj = {}
    for v in g.vertices():
        row = np.asarray(g.neighbors(v), dtype=np.int64)
        if form == "trimmed":
            row = row[row > v]
        elif form == "out_of_scope":
            row = np.union1d(row, [-1 - v, n + v])
        adj[v * stride] = row * stride
    return adj


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 70),
                st.integers(_BITSET_MAX - 4, _BITSET_MAX + 20)),
    p=st.floats(0.02, 0.4),
    seed=st.integers(0, 1000),
    form=st.sampled_from(["full", "trimmed", "out_of_scope"]),
    stride=st.sampled_from([1, 10**9]),
)
def test_max_clique_on_any_row_form(n, p, seed, form, stride):
    """The kernel symmetrises trimmed rows and drops ids that have no
    row, on both sides of the bitmask/ndarray switch and for dense and
    sparse id spans: it returns a clique of the oracle's size."""
    if n > 70:
        p = min(p, 0.15)  # keeps the Bron–Kerbosch oracle quick
    g = erdos_renyi(n, p, seed=seed)
    found = max_clique(_rows(g, form, stride))
    assert len(found) == len(max_clique_reference(g))
    assert all(v % stride == 0 for v in found)
    members = [v // stride for v in found]
    for i, u in enumerate(members):
        for w in members[i + 1:]:
            assert g.has_edge(u, w)


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(1, 70),
                st.integers(_BITSET_MAX - 4, _BITSET_MAX + 20)),
    p=st.floats(0.05, 0.5),
    seed=st.integers(0, 1000),
    extra=st.integers(0, 9),
    form=st.sampled_from(["full", "trimmed"]),
    shift=st.integers(-2, 1),
)
def test_peeled_search_at_any_bound_matches_oracle(n, p, seed, extra, form,
                                                   shift):
    """With ``lower_bound = k`` for k at ω - 2, ω - 1, ω and ω + 1, the
    degree peel keeps every maximum clique when k < ω (each member has
    ω - 1 >= k neighbours in it) and the search returns one; when k >= ω
    it returns ``()``.  A disjoint clique of ``extra`` vertices has
    members with exactly that many neighbours, the peel's edge case."""
    if n > 70:
        p = min(p, 0.15)  # keeps the Bron–Kerbosch oracle quick
    g = erdos_renyi(n, p, seed=seed)
    side = [(n + i, n + j) for i in range(extra) for j in range(i + 1, extra)]
    g = Graph.from_edges(list(g.edges()) + side,
                         extra_vertices=range(n + extra))
    ref = max_clique_reference(g)
    k = max(0, len(ref) + shift)
    rows = _rows(g, form, 1)
    core = peel(rows, k)
    assert (core.degrees >= k).all()
    found = max_clique(rows, lower_bound=k)
    if k < len(ref):
        assert set(ref) <= set(core.ids.tolist())
        assert len(found) == len(ref)
        for i, u in enumerate(found):
            for w in found[i + 1:]:
                assert g.has_edge(u, w)
    else:
        assert found == ()
