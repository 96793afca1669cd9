"""Graph construction against the dict-of-sets semantics it replaced.

``Graph.from_edges`` and ``Graph(mapping)`` build the CSR arrays in a
few numpy passes.  The oracle below is the set/tuple builder they
replaced, kept here as the definition of what a graph *is*: self-loops
dropped, rows deduplicated and sorted, a neighbour without a row of its
own made an isolated row, mapping rows left unsymmetrised.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import LabelTrimmer
from repro.core.job import _partition_rows
from repro.graph import Graph, graph_digest, hash_partition

Rows = Dict[int, Tuple[int, ...]]

# -- the oracle: the old set/tuple builder -----------------------------------


def oracle_rows(adjacency: Mapping[int, Iterable[int]]) -> Rows:
    rows = {v: tuple(sorted({u for u in nbrs if u != v}))
            for v, nbrs in adjacency.items()}
    for v in list(rows):
        for u in rows[v]:
            rows.setdefault(u, ())
    return rows


def oracle_from_edges(edges, extra_vertices=()) -> Rows:
    adj: Dict[int, set] = {}
    for u, v in edges:
        if u == v:
            continue
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for v in extra_vertices:
        adj.setdefault(v, set())
    return oracle_rows(adj)


def oracle_csr(rows: Rows, labels: Optional[Mapping[int, int]]):
    """The old ``csr_arrays()`` flatten of the tuple rows."""
    labels = labels or {}
    verts = sorted(rows)
    indptr = np.zeros(len(verts) + 1, dtype=np.int64)
    np.cumsum([len(rows[v]) for v in verts], out=indptr[1:])
    indices = np.array([u for v in verts for u in rows[v]], dtype=np.int64)
    return (np.array(verts, dtype=np.int64), indptr, indices,
            np.array([labels.get(v, 0) for v in verts], dtype=np.int64))


def oracle_digest(rows: Rows, labels=None) -> str:
    h = hashlib.sha256(b"graph\x00")
    for arr in oracle_csr(rows, labels):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def assert_matches(g: Graph, rows: Rows, labels=None) -> None:
    labels = labels or {}
    verts = sorted(rows)
    assert g.sorted_vertices() == verts
    assert list(g.vertices()) == verts
    assert g.num_vertices == len(verts)
    assert g.num_edges == sum(map(len, rows.values())) // 2
    assert g.adjacency() == rows
    for got, want in zip(g.csr_arrays(), oracle_csr(rows, labels)):
        assert got.dtype == np.int64
        assert got.tolist() == want.tolist()
    for v in verts:
        assert g.neighbors(v) == rows[v]
        assert g.neighbors_array(v).tolist() == list(rows[v])
        assert g.neighbors_gt(v) == tuple(u for u in rows[v] if u > v)
        assert g.degree(v) == len(rows[v])
        assert g.label(v) == labels.get(v, 0)
    assert g.labels() == {v: labels[v] for v in verts if labels.get(v, 0)}
    assert set(g.edges()) == {(min(v, u), max(v, u))
                              for v in verts for u in rows[v] if u > v}
    assert g.max_degree() == max(map(len, rows.values()), default=0)
    assert g.memory_estimate_bytes() == sum(16 + 8 * len(a)
                                            for a in rows.values())
    for v in verts[:5]:
        for u in verts[:5]:
            assert g.has_edge(v, u) == (u in rows[v])


# -- strategies ----------------------------------------------------------------

# Dense small ids make self-loops, repeats and reversals common; sparse
# ids up to 2**40 exercise ids far beyond the vertex count.
small_ids = st.integers(0, 12)
sparse_ids = st.one_of(small_ids, st.integers(0, 2**40))
id_lists = st.lists(sparse_ids, max_size=8)


@st.composite
def edge_inputs(draw):
    ids = st.one_of(small_ids, st.sampled_from([2**40, 2**33 + 7, 99]))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=40))
    if edges and draw(st.booleans()):  # repeat some edges reversed
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges)))]
    extra = draw(st.lists(st.one_of(ids, sparse_ids), max_size=6))
    labels = draw(st.dictionaries(sparse_ids, st.integers(0, 3), max_size=8))
    return edges, extra, labels


# -- from_edges ----------------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(edge_inputs(), st.sampled_from(["tuples", "lists", "array", "iterator"]))
def test_from_edges_matches_set_builder(inputs, form):
    edges, extra, labels = inputs
    given_edges = {
        "tuples": edges,
        "lists": [list(e) for e in edges],
        "array": np.array(edges, dtype=np.int64).reshape(-1, 2),
        "iterator": iter(edges),
    }[form]
    g = Graph.from_edges(given_edges, labels=labels, extra_vertices=extra)
    rows = oracle_from_edges(edges, extra)
    assert_matches(g, rows, labels)
    # Every edge is present both ways.
    assert all(v in rows[u] for v, nbrs in rows.items() for u in nbrs)


def test_from_edges_self_loop_adds_no_vertex():
    g = Graph.from_edges([(3, 3), (1, 2)])
    assert g.sorted_vertices() == [1, 2]
    assert Graph.from_edges([(3, 3)], extra_vertices=[3]).sorted_vertices() == [3]


@pytest.mark.parametrize("edges", [np.arange(3), [(1, 2, 3), (4, 5, 6)],
                                   [(1, 2), (3,)], iter([(1, 2), (3,)])])
def test_from_edges_rejects_what_is_not_pairs(edges):
    with pytest.raises(ValueError):
        Graph.from_edges(edges)


# -- Graph(mapping) ----------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(sparse_ids, id_lists, max_size=10),
       st.dictionaries(sparse_ids, st.integers(0, 3), max_size=8),
       st.sampled_from([list, tuple, set, np.array]))
def test_mapping_matches_set_builder(adjacency, labels, row_type):
    # Rows may be asymmetric, hold self-loops and repeats, and name ids
    # that have no row of their own.
    given_rows = {v: row_type(nbrs) for v, nbrs in adjacency.items()}
    g = Graph(given_rows, labels=labels)
    assert_matches(g, oracle_rows(adjacency), labels)


def test_mapping_rows_stay_unsymmetrised():
    g = Graph({0: [1, 2], 1: [], 5: [5]})
    assert g.neighbors(1) == ()
    assert g.neighbors(2) == ()
    assert g.neighbors(5) == ()
    assert g.sorted_vertices() == [0, 1, 2, 5]
    assert g.num_edges == 1  # two entries, halved as before


def test_empty_graphs():
    for g in (Graph(), Graph({}), Graph.from_edges([])):
        assert g.num_vertices == 0 and g.num_edges == 0
        assert g.max_degree() == 0 and list(g.edges()) == []
        assert [a.tolist() for a in g.csr_arrays()] == [[], [0], [], []]


# -- the store ---------------------------------------------------------------


def test_csr_arrays_are_the_read_only_store():
    g = Graph.from_edges([(0, 1), (1, 2)], labels={1: 4})
    arrays = g.csr_arrays()
    assert all(a is b for a, b in zip(arrays, g.csr_arrays()))
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[:1] = 7
    row = g.neighbors_array(1)
    assert not row.flags.writeable
    assert np.shares_memory(row, arrays[2])


@pytest.fixture(scope="module")
def e2e_workloads():
    """``benchmarks/e2e/workloads.py``, loaded by path (read only)."""
    name = "e2e_workloads_for_digest"
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses resolve annotations here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("name", ["tc_rmat_serial1", "tc_er_pull_process2",
                                  "tc_er_evict_serial2", "mcf_dense_cluster2",
                                  "svc_mixed_closed2"])
def test_digest_matches_set_builder_on_benchmark_graphs(e2e_workloads, name):
    """The service's result-cache keys hash the CSR arrays: the array
    build must give every benchmark graph the digest the set builder
    gave it."""
    workloads = e2e_workloads
    edges, n = workloads.make_edges(workloads.WORKLOADS[name], 7, False)
    g = workloads.build_graph(edges, n)
    assert graph_digest(g) == oracle_digest(oracle_from_edges(edges, range(n)))


# -- partitioning ------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(edge_inputs(), st.integers(1, 5))
def test_partition_rows_match_hash_partition(inputs, num_workers):
    edges, extra, labels = inputs
    g = Graph.from_edges(edges, labels=labels, extra_vertices=extra)
    parts = _partition_rows(g, num_workers)
    assert len(parts) == num_workers
    for w, rows in enumerate(parts):
        want = [v for v in g.sorted_vertices()
                if hash_partition(v, num_workers) == w]
        assert [v for v, _label, _adj in rows] == want
        for v, label, adj in rows:
            assert type(v) is int and type(label) is int
            assert label == g.label(v)
            assert isinstance(adj, np.ndarray) and adj.dtype == np.int64
            assert not adj.flags.writeable
            assert adj.tolist() == list(g.neighbors(v))


# -- LabelTrimmer: the array branch is the tuple branch -----------------------


@settings(deadline=None, max_examples=150)
@given(st.lists(sparse_ids, max_size=20, unique=True),
       st.dictionaries(sparse_ids, st.integers(0, 3), max_size=12),
       st.sets(st.integers(0, 3)), st.integers(0, 3))
def test_label_trimmer_array_branch_matches_tuple_branch(row, labels, allowed, label):
    row = sorted(row)
    trimmer = LabelTrimmer(allowed, lambda u: labels.get(u, 0))
    arr = np.array(row, dtype=np.int64)
    arr.flags.writeable = False
    got = trimmer.trim(7, label, arr)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.tolist() == list(trimmer.trim(7, label, tuple(row)))
