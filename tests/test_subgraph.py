"""Tests for the task-owned Subgraph container."""

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


def test_keep_only_filters():
    s = Subgraph()
    s.add_vertex(0, (1, 2, 3, 4), keep_only={2, 4})
    assert s.neighbors(0) == (2, 4)


def test_re_add_overwrites():
    s = make({0: (1,)})
    s.add_vertex(0, (2, 3))
    assert s.neighbors(0) == (2, 3)


def test_symmetrize_upward_rows():
    """Γ_>-style rows become full undirected adjacency."""
    s = make({0: (1, 2), 1: (2,), 2: ()})
    s.symmetrize()
    assert s.neighbors(0) == (1, 2)
    assert s.neighbors(1) == (0, 2)
    assert s.neighbors(2) == (0, 1)


def test_symmetrize_ignores_absent_vertices():
    s = make({0: (1, 99), 1: ()})  # 99 is not a member
    s.symmetrize()
    assert s.neighbors(0) == (1,)
    assert s.neighbors(1) == (0,)
    assert 99 not in s


def test_symmetrize_sorts_rows():
    s = make({0: (), 1: (), 2: ()})
    s.add_vertex(3, ())
    s.add_vertex(0, (3, 1))
    s.symmetrize()
    assert s.neighbors(0) == (1, 3)


def test_memory_estimate_grows():
    s = Subgraph()
    before = s.memory_estimate_bytes()
    s.add_vertex(0, tuple(range(100)))
    assert s.memory_estimate_bytes() > before + 700
