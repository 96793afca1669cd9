"""Tests for low-degree task bundling (the implemented future-work item)."""

import pytest

from repro.algorithms import count_triangles
from repro.apps import BundledTriangleCountComper, TriangleCountComper
from repro.core import GThinkerConfig, run_job
from repro.graph import Graph, barabasi_albert, erdos_renyi


def cfg(**kw):
    base = dict(num_workers=3, compers_per_worker=2, task_batch_size=4,
                cache_capacity=128, cache_buckets=16)
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(200, m=4, seed=21)  # heavy-tailed: mixes degrees


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BundledTriangleCountComper(bundle_size=0)
    with pytest.raises(ValueError):
        BundledTriangleCountComper(heavy_threshold=1)


@pytest.mark.parametrize("bundle_size,heavy", [(1, 2), (8, 6), (64, 10), (500, 1000)])
def test_count_invariant_under_bundling(graph, bundle_size, heavy):
    res = run_job(
        lambda: BundledTriangleCountComper(bundle_size=bundle_size,
                                           heavy_threshold=heavy),
        graph, cfg(),
    )
    assert res.aggregate == count_triangles(graph)


def test_fewer_tasks_than_plain(graph):
    plain = run_job(TriangleCountComper, graph, cfg())
    bundled = run_job(
        lambda: BundledTriangleCountComper(bundle_size=32, heavy_threshold=12),
        graph, cfg(),
    )
    assert bundled.aggregate == plain.aggregate
    assert bundled.metrics["tasks:created"] < plain.metrics["tasks:created"]


def test_partial_bundle_flushed(graph):
    """A bundle size larger than the vertex count still counts everything
    — the spawn_flush hook must emit the final partial bundle."""
    res = run_job(
        lambda: BundledTriangleCountComper(bundle_size=10**6,
                                           heavy_threshold=10**6),
        graph, cfg(),
    )
    assert res.aggregate == count_triangles(graph)


def test_bundling_under_stealing():
    """Stolen spawn batches flush their partial bundles too."""
    g = erdos_renyi(300, 0.04, seed=5)
    res = run_job(
        lambda: BundledTriangleCountComper(bundle_size=16, heavy_threshold=8),
        g, cfg(num_workers=4, steal_batches=8, sync_every_rounds=2),
    )
    assert res.aggregate == count_triangles(g)


def test_steal_payload_ships_its_partial_bundle(tmp_path):
    """``spawn_batch_payload`` stops at ``max_tasks`` with the cursor
    already past the members buffered in the steal app's bundle; they
    must leave with that payload, not wait for a later one."""
    from repro.core.containers import deserialize_tasks
    from repro.core.job import build_cluster

    # Vertices 0-2 are light (buffered), 3 is heavy: its singleton task
    # fills a one-task payload while the bundle still holds 0, 1, 2.
    g = Graph.from_edges(
        [(0, 10), (0, 11), (1, 10), (1, 11), (1, 12), (2, 11), (2, 12)]
        + [(3, u) for u in range(10, 20)] + [(4, 10), (4, 11), (5, 12), (5, 13)])
    factory = lambda: BundledTriangleCountComper(bundle_size=8,  # noqa: E731
                                                 heavy_threshold=6)
    cluster = build_cluster(factory, g, cfg(num_workers=1,
                                            spill_dir=str(tmp_path)))
    worker = cluster.workers[0]
    payload, count = worker.spawn_batch_payload(1)
    assert worker.spawn_cursor() == 4
    assert worker._steal_app._bundle == []
    shipped = sorted(v for task in deserialize_tasks(payload)
                     for v in task.g.vertices())
    assert shipped == [0, 1, 2, 3]
    assert count == 2  # the heavy singleton and the flushed bundle
    worker.cleanup()


def test_bundled_tc_under_steal_spawns():
    """A 2-worker job whose steals are fresh spawn batches (this
    configuration undercounted before the payload flush fix)."""
    g = barabasi_albert(200, m=3, seed=2)
    res = run_job(
        lambda: BundledTriangleCountComper(bundle_size=8, heavy_threshold=6),
        g, cfg(num_workers=2, compers_per_worker=1, task_batch_size=2,
               cache_capacity=64, steal_batches=8, sync_every_rounds=4),
    )
    assert res.metrics.get("steal:tasks", 0) > 0
    assert res.aggregate == count_triangles(g)


def test_bundling_threaded(graph):
    res = run_job(
        lambda: BundledTriangleCountComper(bundle_size=16, heavy_threshold=8),
        graph, cfg(aggregator_sync_period_s=0.002), runtime="threaded",
    )
    assert res.aggregate == count_triangles(graph)


def test_triangle_free_bundles():
    g = Graph.from_edges([(i, i + 1) for i in range(50)])
    res = run_job(lambda: BundledTriangleCountComper(bundle_size=8), g, cfg())
    assert res.aggregate == 0
