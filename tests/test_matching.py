"""Tests for serial subgraph matching."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import matching
from repro.algorithms import (
    QueryGraph,
    count_matches,
    match_reference,
    match_subgraph,
    path_query,
    star_query,
    triangle_query,
)
from repro.algorithms.triangles import count_triangles
from repro.graph import Graph, erdos_renyi, with_random_labels


def test_triangle_query_counts_triangles(er_graph):
    assert count_matches(er_graph, triangle_query()) == count_triangles(er_graph)


def test_path_query_on_path():
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    # Paths of length 3 in a path graph: exactly one embedding.
    assert count_matches(g, path_query(3)) == 1


def test_path_query_symmetry_breaking():
    """A 2-path in a triangle: 3 embeddings (one per center), not 6."""
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    assert count_matches(g, path_query(2)) == 3


def test_star_query():
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3)])
    assert count_matches(g, star_query(3)) == 1
    assert count_matches(g, star_query(2)) == 3  # choose 2 of 3 leaves


def test_labels_restrict_matches():
    g = Graph({0: [1, 2], 1: [0, 2], 2: [0, 1]}, labels={0: 0, 1: 1, 2: 2})
    q = QueryGraph([(0, 1), (1, 2), (0, 2)], labels={0: 0, 1: 1, 2: 2})
    assert count_matches(g, q) == 1
    q_wrong = QueryGraph([(0, 1), (1, 2), (0, 2)], labels={0: 3, 1: 1, 2: 2})
    assert count_matches(g, q_wrong) == 0


def test_embeddings_are_valid(er_graph):
    q = path_query(2)
    for emb in match_subgraph(er_graph, q):
        assert len(set(emb.values())) == q.num_vertices  # injective
        for u, v in q.graph.edges():
            assert er_graph.has_edge(emb[u], emb[v])


def test_anchored_union_equals_unanchored(er_graph):
    q = triangle_query()
    q0 = q.order[0]
    total = sum(
        count_matches(er_graph, q, anchor=(q0, v)) for v in er_graph.vertices()
    )
    assert total == count_matches(er_graph, q)


def test_anchor_must_be_first_in_order(er_graph):
    q = path_query(2)
    wrong = [v for v in q.graph.vertices() if v != q.order[0]][0]
    with pytest.raises(ValueError):
        list(match_subgraph(er_graph, q, anchor=(wrong, 0)))


def test_empty_query_rejected():
    with pytest.raises(ValueError):
        QueryGraph([])


def test_query_matching_order_connected():
    q = QueryGraph([(0, 1), (1, 2), (2, 3), (3, 0)])
    seen = {q.order[0]}
    for v in q.order[1:]:
        assert any(u in seen for u in q.graph.neighbors(v))
        seen.add(v)


def test_matches_reference_on_random_unlabeled():
    g = erdos_renyi(9, 0.45, seed=4)
    for q in (triangle_query(), path_query(2), path_query(3), star_query(3)):
        assert count_matches(g, q) == match_reference(g, q), q.graph


def test_matches_reference_labeled():
    g = with_random_labels(erdos_renyi(9, 0.5, seed=6), 2, seed=7)
    q = QueryGraph([(0, 1), (1, 2)], labels={0: 0, 1: 1, 2: 0})
    assert count_matches(g, q) == match_reference(g, q)


def test_four_clique_query():
    q = QueryGraph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    g = erdos_renyi(10, 0.6, seed=8)
    assert count_matches(g, q) == match_reference(g, q)


@settings(max_examples=20, deadline=None)
@given(st.integers(5, 9), st.floats(0.2, 0.7), st.integers(0, 30))
def test_triangle_count_property(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    assert count_matches(g, triangle_query()) == count_triangles(g)


@settings(max_examples=12, deadline=None)
@given(st.integers(5, 8), st.floats(0.3, 0.7), st.integers(0, 20))
def test_reference_property_small(n, p, seed):
    g = erdos_renyi(n, p, seed=seed)
    q = path_query(2)
    assert count_matches(g, q) == match_reference(g, q)


# ---------------------------------------------------------------------------
# The level-wise executor against brute force
# ---------------------------------------------------------------------------

SHAPES = {
    "edge": [(0, 1)],
    "path2": [(0, 1), (1, 2)],
    "path3": [(0, 1), (1, 2), (2, 3)],
    "path4": [(0, 1), (1, 2), (2, 3), (3, 4)],
    "triangle": [(0, 1), (1, 2), (0, 2)],
    "star3": [(0, 1), (0, 2), (0, 3)],
    "cycle4": [(0, 1), (1, 2), (2, 3), (3, 0)],
    "diamond": [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
    "tailed_triangle": [(0, 1), (1, 2), (0, 2), (2, 3)],
    "k4": [(a, b) for a in range(4) for b in range(a + 1, 4)],
    "two_edges": [(0, 1), (2, 3)],  # disconnected: kernel only
}


def reference_embeddings(data, query):
    """Every injective label- and edge-preserving map that satisfies the
    query's symmetry-breaking pairs, by brute force."""
    qverts = query.graph.sorted_vertices()
    qedges = list(query.graph.edges())
    found = set()
    for image in permutations(data.sorted_vertices(), len(qverts)):
        emb = dict(zip(qverts, image))
        if (all(query.labels[q] == data.label(emb[q]) for q in qverts)
                and all(data.has_edge(emb[u], emb[v]) for u, v in qedges)
                and all(emb[a] < emb[b] for a, b in query.symmetry_pairs)):
            found.add(frozenset(emb.items()))
    return found


@st.composite
def matching_cases(draw):
    g = erdos_renyi(draw(st.integers(4, 8)), draw(st.floats(0.2, 0.8)),
                    seed=draw(st.integers(0, 10**6)))
    num_labels = draw(st.sampled_from([1, 1, 2, 3]))
    if num_labels > 1:
        g = with_random_labels(g, num_labels, seed=draw(st.integers(0, 99)))
    edges = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    labels = {v: draw(st.integers(0, num_labels - 1))
              for v in {v for e in edges for v in e}}
    return g, QueryGraph(edges, labels=labels)


@pytest.mark.parametrize("cap", [None, 1, 2, 7])
@settings(max_examples=40, deadline=None)
@given(case=matching_cases())
def test_levelwise_matcher_equals_brute_force(cap, case):
    """Counts, embeddings and per-anchor counts, with the chunk cap low
    enough that every split path of the executor runs."""
    g, q = case
    expected = reference_embeddings(g, q)
    assert len(expected) == match_reference(g, q)
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(matching, "CHUNK_CANDIDATES", cap)
        assert count_matches(g, q) == len(expected)
        embeddings = list(match_subgraph(g, q))
        assert len(embeddings) == len(expected)
        assert {frozenset(e.items()) for e in embeddings} == expected
        assert all(type(x) is int
                   for e in embeddings for kv in e.items() for x in kv)
        q0 = q.order[0]
        for v in g.vertices():
            anchored = {e for e in expected if (q0, v) in e}
            assert count_matches(g, q, anchor=(q0, v)) == len(anchored)
            assert {frozenset(e.items())
                    for e in match_subgraph(g, q, anchor=(q0, v))} == anchored


def test_anchor_outside_the_graph_matches_nothing(er_graph):
    q = triangle_query()
    assert count_matches(er_graph, q, anchor=(q.order[0], 10**6)) == 0
    assert list(match_subgraph(er_graph, q, anchor=(q.order[0], 10**6))) == []


def test_hub_row_wider_than_the_chunk_cap(monkeypatch):
    """A single row over the cap is expanded whole, not dropped."""
    monkeypatch.setattr(matching, "CHUNK_CANDIDATES", 4)
    g = Graph.from_edges([(0, i) for i in range(1, 30)])
    assert count_matches(g, star_query(2)) == 29 * 28 // 2


def test_compact_csr_drops_neighbors_without_a_row():
    """Induced-subgraph semantics: an unmaterialized neighbor is dropped."""
    csr = matching.CompactCSR.from_rows(
        [5, 2, 9], [(2, 7, 9), (5, 9, 11), np.array([2, 5])], [0, 0, 0])
    assert csr.ids.tolist() == [2, 5, 9]
    assert csr.indptr.tolist() == [0, 2, 4, 6]
    assert csr.indices.tolist() == [1, 2, 0, 2, 0, 1]
    assert sum(matching.run_plan(csr, triangle_query().plan)) == 1
    empty = matching.CompactCSR.from_rows([], [], [])
    assert sum(matching.run_plan(empty, triangle_query().plan, [3])) == 0


@pytest.mark.parametrize("edges,automorphisms", [
    ([(i, i + 1) for i in range(11)], 2),                        # 12-path
    ([(a, b) for a in range(12) for b in range(a + 1, 12)], None),  # K12
    ([(0, i) for i in range(1, 12)], None),                       # 11-star
])
def test_symmetry_breaking_never_enumerates_the_group(edges, automorphisms):
    """12-vertex queries compile in well under a second (the old
    construction walked all 12! vertex permutations)."""
    import time

    t0 = time.perf_counter()
    q = QueryGraph(edges)
    assert time.perf_counter() - t0 < 0.5
    if automorphisms == 2:
        assert q.symmetry_pairs == [(0, 11)]


def test_symmetry_pairs_of_small_patterns():
    assert triangle_query().symmetry_pairs == [(0, 1), (0, 2), (1, 2)]
    assert path_query(2).symmetry_pairs == [(0, 2)]
    assert QueryGraph(SHAPES["cycle4"]).symmetry_pairs == [
        (0, 1), (0, 2), (0, 3), (1, 3)]
    assert triangle_query(labels={0: 0, 1: 1, 2: 2}).symmetry_pairs == []
