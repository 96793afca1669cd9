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
    assert np.array_equal(s.neighbors(0), [1, 2])
    assert 0 in s and 9 not in s


def test_labels_default_zero():
    s = make({0: ()}, labels={0: 5})
    assert s.label(0) == 5
    s.add_vertex(1, ())
    assert s.label(1) == 0


def test_rows_are_read_only_int64_arrays():
    """A read-only int64 row is kept as given (no boxing, no copy); a
    writeable array or a tuple is copied once into a read-only int64
    array.  Vertex ids stay python ints."""
    s = Subgraph()
    given = np.array([1, 7], dtype=np.int64)
    s.add_vertex(np.int64(4), given)
    given[0] = 99  # the caller's array stays the caller's
    s.add_vertex(5, (2, 3))
    s.add_vertex(6, ())
    frozen = np.array([8], dtype=np.int64)
    frozen.flags.writeable = False
    s.add_vertex(7, frozen)
    assert s.neighbors(7) is frozen
    s.add_vertex(8, np.array([9], dtype=np.int32))
    for v, want in ((4, [1, 7]), (5, [2, 3]), (6, []), (7, [8]), (8, [9])):
        row = s.neighbors(v)
        assert row.dtype == np.int64 and not row.flags.writeable
        assert np.array_equal(row, want)
    assert all(type(v) is int for v in s.vertices())


def test_re_add_overwrites():
    s = make({0: (1,)})
    s.add_vertex(0, (2, 3))
    assert np.array_equal(s.neighbors(0), [2, 3])
    assert s.memory_estimate_bytes() == 24 + 8 * 2


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
    s.add_vertex(1, np.arange(3, dtype=np.int64))
    assert s.memory_estimate_bytes() == (24 + 8 * 100) + (24 + 8 * 3)
