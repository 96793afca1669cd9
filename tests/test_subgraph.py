"""Tests for the task-owned Subgraph container."""

import numpy as np

from repro.algorithms.cliques import _scoped_edges, max_clique
from repro.core.subgraph import Subgraph


def make(adj, labels=None):
    s = Subgraph()
    for v, row in adj.items():
        s.add_vertex(v, row, label=(labels or {}).get(v, 0))
    return s


def test_add_and_access():
    s = make({0: (1, 2), 1: (0,), 2: (0,)})
    assert s.num_vertices == 3
    assert s.neighbors(0) == (1, 2)
    assert 0 in s and 9 not in s


def test_labels_default_zero():
    s = make({0: ()}, labels={0: 5})
    assert s.label(0) == 5
    s.add_vertex(1, ())
    assert s.label(1) == 0


def test_ndarray_row_boxes_to_python_ints():
    s = Subgraph()
    s.add_vertex(np.int64(4), np.array([1, 7], dtype=np.int64))
    assert s.neighbors(4) == (1, 7)
    assert all(type(u) is int for u in s.neighbors(4))
    assert all(type(v) is int for v in s.vertices())


def test_re_add_overwrites():
    s = make({0: (1,)})
    s.add_vertex(0, (2, 3))
    assert s.neighbors(0) == (2, 3)


def edges(s):
    """The undirected edges the clique kernel reads off ``s``'s rows."""
    ids, lo, hi = _scoped_edges(s.adjacency())
    return sorted(tuple(sorted((int(ids[a]), int(ids[b]))))
                  for a, b in zip(lo, hi))


def test_symmetrize_upward_rows():
    """Γ_>-style rows are symmetrised by the kernel into full
    undirected adjacency."""
    s = make({0: (1, 2), 1: (2,), 2: ()})
    assert edges(s) == [(0, 1), (0, 2), (1, 2)]
    assert max_clique(s.adjacency()) == (0, 1, 2)


def test_symmetrize_ignores_absent_vertices():
    s = make({0: (1, 99), 1: ()})  # 99 is not a member
    assert edges(s) == [(0, 1)]
    assert 99 not in s
    assert max_clique(s.adjacency()) == (0, 1)


def test_symmetrize_sorts_rows():
    s = make({0: (), 1: (), 2: ()})
    s.add_vertex(3, ())
    s.add_vertex(0, (3, 1))
    assert edges(s) == [(0, 1), (0, 3)]
    assert max_clique(s.adjacency()) in {(0, 1), (0, 3)}


def test_memory_estimate_grows():
    s = Subgraph()
    before = s.memory_estimate_bytes()
    s.add_vertex(0, tuple(range(100)))
    assert s.memory_estimate_bytes() > before + 700
