"""Tests for the shared-memory CSR."""

import pickle

import numpy as np
import pytest

from repro.graph import Graph, SharedCSR


# -- SharedCSR (the process backend's zero-copy graph) ---------------------


@pytest.fixture
def shared_csr(er_graph):
    csr = SharedCSR.from_graph(er_graph)
    yield csr
    csr.close()
    csr.unlink()


def test_shared_entries_match_graph(er_graph, shared_csr):
    for v in er_graph.vertices():
        label, adj = shared_csr.entry(v)
        assert label == er_graph.label(v)
        assert tuple(adj) == tuple(er_graph.neighbors(v))


def test_shared_counts(er_graph, shared_csr):
    assert shared_csr.num_vertices == er_graph.num_vertices
    assert shared_csr.meta.num_entries == 2 * er_graph.num_edges


def test_shared_meta_is_picklable(shared_csr):
    meta = pickle.loads(pickle.dumps(shared_csr.meta))
    assert meta == shared_csr.meta


def test_shared_attach_sees_same_arrays(er_graph, shared_csr):
    attached = SharedCSR.attach(shared_csr.meta)
    try:
        assert not attached.owner
        np.testing.assert_array_equal(attached.indices, shared_csr.indices)
        np.testing.assert_array_equal(attached.vertex_ids,
                                      shared_csr.vertex_ids)
        v = int(shared_csr.vertex_ids[0])
        a_label, a_adj = attached.entry(v)
        s_label, s_adj = shared_csr.entry(v)
        assert a_label == s_label
        np.testing.assert_array_equal(a_adj, s_adj)
    finally:
        attached.close()


def test_shared_arrays_are_readonly(shared_csr):
    with pytest.raises(ValueError):
        shared_csr.indices[0] = 99


def test_shared_unknown_vertex_raises(shared_csr):
    with pytest.raises(KeyError):
        shared_csr.entry(10**9)


def test_attacher_cannot_unlink(shared_csr):
    attached = SharedCSR.attach(shared_csr.meta)
    try:
        with pytest.raises(ValueError):
            attached.unlink()
    finally:
        attached.close()


def test_shared_noncontiguous_ids():
    g = Graph.from_edges([(10, 200), (200, 3000), (10, 3000)])
    csr = SharedCSR.from_graph(g)
    try:
        label, adj = csr.entry(200)
        assert label == 0
        assert tuple(adj) == (10, 3000)
        assert len(csr.entry(3000)[1]) == 2
    finally:
        csr.close()
        csr.unlink()


def test_shared_empty_graph():
    csr = SharedCSR.from_graph(Graph())
    try:
        assert csr.num_vertices == 0
        assert csr.meta.num_entries == 0
    finally:
        csr.close()
        csr.unlink()
