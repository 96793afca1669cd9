"""Tests for the vectorized sorted-array kernels and the zero-copy
adjacency contract (ndarray views into ``SharedCSR`` / the vertex cache).
"""

import numpy as np
import pytest

from repro.apps.common import GtTrimmer
from repro.core.vertex_cache import RequestOutcome, VertexCache
from repro.graph import Graph, SharedCSR, erdos_renyi, kernels
from repro.graph.graph import (
    adjacency_suffix_gt,
    intersect_sorted,
    intersect_sorted_count,
)


# ---------------------------------------------------------------------------
# Randomized equivalence against the pure-Python oracles
# ---------------------------------------------------------------------------

#: (max_value, size_a, size_b) regimes: balanced, skewed 1:100 both ways,
#: empty-on-either-side, identical universes, tiny, and dense overlap.
_REGIMES = [
    (1_000, 50, 50),
    (1_000, 3, 300),       # heavy skew: gallop path
    (1_000, 300, 3),
    (10_000, 0, 40),       # empty a
    (10_000, 40, 0),       # empty b
    (50, 30, 30),          # dense: most values shared
    (10**9, 100, 100),     # sparse: mostly disjoint, huge ids
    (8, 4, 4),             # tiny universe
]


def _sorted_unique(rng, max_value, size):
    if size == 0:
        return np.empty(0, dtype=np.int64)
    vals = rng.integers(0, max_value, size=size, dtype=np.int64)
    return np.unique(vals)


def _cases():
    rng = np.random.default_rng(0xC0FFEE)
    for regime, (max_value, na, nb) in enumerate(_REGIMES):
        for rep in range(25):
            a = _sorted_unique(rng, max_value, na)
            b = _sorted_unique(rng, max_value, nb)
            yield regime * 25 + rep, a, b


def test_intersect_matches_oracle_randomized():
    """~200 seeded random cases across all size/skew regimes."""
    ran = 0
    for _case, a, b in _cases():
        expected = intersect_sorted(a.tolist(), b.tolist())
        got = kernels.intersect(a, b)
        assert got.tolist() == expected, (a, b)
        assert got.dtype == np.int64
        ran += 1
    assert ran == 25 * len(_REGIMES)


def test_intersect_count_matches_oracle_randomized():
    for _case, a, b in _cases():
        expected = intersect_sorted_count(a.tolist(), b.tolist())
        assert kernels.intersect_count(a, b) == expected, (a, b)


def test_both_strategies_agree():
    """The gallop and merge variants are interchangeable."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = _sorted_unique(rng, 500, int(rng.integers(0, 60)))
        b = _sorted_unique(rng, 500, int(rng.integers(0, 60)))
        g = kernels.intersect_gallop(a, b).tolist()
        m = kernels.intersect_merge(a, b).tolist()
        assert g == m == intersect_sorted(a.tolist(), b.tolist())


def test_intersect_identical_and_disjoint():
    a = np.arange(0, 100, 2, dtype=np.int64)
    assert kernels.intersect(a, a).tolist() == a.tolist()
    assert kernels.intersect_count(a, a) == a.size
    b = a + 1  # all odd: disjoint
    assert kernels.intersect(a, b).size == 0
    assert kernels.intersect_count(a, b) == 0


def test_intersect_accepts_tuples():
    assert kernels.intersect((1, 3, 5), (3, 4, 5)).tolist() == [3, 5]
    assert kernels.intersect_count((1, 3, 5), (3, 4, 5)) == 2


def test_intersect_many_matches_pairwise_oracle():
    rng = np.random.default_rng(99)
    for _ in range(40):
        arrays = [
            _sorted_unique(rng, 200, int(rng.integers(0, 50)))
            for _ in range(int(rng.integers(1, 5)))
        ]
        expected = arrays[0].tolist()
        for nxt in arrays[1:]:
            expected = intersect_sorted(expected, nxt.tolist())
        assert kernels.intersect_many(arrays).tolist() == expected


def test_intersect_many_empty_input():
    assert kernels.intersect_many([]).size == 0
    assert kernels.intersect_many(iter([])).size == 0


def test_suffix_gt_matches_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = _sorted_unique(rng, 100, int(rng.integers(0, 40)))
        pivots = [-1, 0, 50, 99, 100]
        if a.size:
            pivots.extend((int(a[0]), int(a[-1]), int(a[a.size // 2])))
        for v in pivots:
            assert kernels.suffix_gt(a, v).tolist() == \
                list(adjacency_suffix_gt(a.tolist(), v))


def test_suffix_gt_is_a_view():
    a = np.arange(10, dtype=np.int64)
    out = kernels.suffix_gt(a, 4)
    assert out.tolist() == [5, 6, 7, 8, 9]
    assert np.shares_memory(out, a)


def test_as_ids_array_passthrough_and_convert():
    a = np.arange(5, dtype=np.int64)
    assert kernels.as_ids_array(a) is a  # no copy for int64 input
    t = kernels.as_ids_array((3, 1, 2))
    assert t.dtype == np.int64 and t.tolist() == [3, 1, 2]


# ---------------------------------------------------------------------------
# Zero-copy storage contract
# ---------------------------------------------------------------------------


@pytest.fixture
def shared(er_graph):
    csr = SharedCSR.from_graph(er_graph)
    yield er_graph, csr
    csr.close()
    csr.unlink()


def test_shared_entry_is_zero_copy_view(shared):
    g, csr = shared
    for v in list(g.vertices())[:20]:
        _label, adj = csr.entry(v)
        if len(adj) == 0:
            continue
        assert isinstance(adj, np.ndarray)
        assert np.shares_memory(adj, csr.indices)
        assert not adj.flags.writeable


def test_trimmed_shared_entry_stays_zero_copy(shared):
    """GtTrimmer returns a *slice* of the SharedCSR row: still shared."""
    g, csr = shared
    trimmer = GtTrimmer()
    for v in list(g.vertices())[:20]:
        label, adj = csr.entry(v)
        trimmed = trimmer.trim(v, label, adj)
        if len(trimmed) == 0:
            continue
        assert np.shares_memory(trimmed, csr.indices)
        assert trimmed.tolist() == [u for u in g.neighbors(v) if u > v]


def test_graph_neighbors_array_is_readonly_csr_view(er_graph):
    v = next(iter(er_graph.vertices()))
    arr = er_graph.neighbors_array(v)
    assert not arr.flags.writeable
    assert np.shares_memory(arr, er_graph.csr_arrays()[2])
    assert arr.tolist() == list(er_graph.neighbors(v))


def test_cache_eviction_never_invalidates_held_view():
    """A task holding a frontier ndarray survives eviction of the entry:
    the view keeps the buffer referenced (VertexView contract)."""
    c = VertexCache(num_buckets=4, capacity=4, overflow_alpha=0.0,
                    count_delta=1)
    row = np.arange(100, 200, dtype=np.int64)
    c.request(7, task_id=1)
    c.insert_response(7, 0, row)
    out = c.request(7, task_id=2)
    assert out.status == RequestOutcome.HIT
    held = out.entry.adj
    assert isinstance(held, np.ndarray)
    c.release(7)
    c.release(7)
    assert c.evict(10) >= 1  # the entry is gone from the cache...
    assert c.request(7, task_id=3).status == RequestOutcome.MISS_SEND
    assert held.tolist() == list(range(100, 200))  # ...the view is not


def test_cache_entry_memory_estimate_counts_real_nbytes():
    c = VertexCache(num_buckets=4, capacity=64, overflow_alpha=0.2,
                    count_delta=1)
    row = np.arange(50, dtype=np.int64)
    c.request(3, task_id=1)
    c.insert_response(3, 0, row)
    entry = c.get_locked(3)
    assert entry.memory_estimate_bytes() == 64 + row.nbytes


def test_worker_local_table_shares_csr_memory(er_graph, tmp_path):
    """The process backend's T_local faults rows in as SharedCSR views."""
    from repro.core.config import GThinkerConfig
    from repro.core.metrics import MetricsRegistry
    from repro.core.worker import Worker
    from repro.net import Transport

    csr = SharedCSR.from_graph(er_graph)
    try:
        cfg = GThinkerConfig(num_workers=1, compers_per_worker=1)
        from repro.apps.triangle import TriangleCountComper

        worker = Worker(
            worker_id=0, num_workers=1, config=cfg,
            app_factory=TriangleCountComper,
            transport=Transport(1), metrics=MetricsRegistry(),
            spill_dir=tmp_path,
        )
        worker.load_shared(csr)
        hub = max(er_graph.vertices(), key=er_graph.degree)
        _label, adj = worker.local_entry(hub)
        assert isinstance(adj, np.ndarray)
        gt = [u for u in er_graph.neighbors(hub) if u > hub]
        assert adj.tolist() == gt  # GtTrimmer applied
        if len(adj):
            assert np.shares_memory(adj, csr.indices)
    finally:
        csr.close()
        csr.unlink()
