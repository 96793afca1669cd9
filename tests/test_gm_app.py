"""The GM app on the level-wise matcher: bundles, hops, runtimes, steals."""

import functools

import pytest

from repro.algorithms import QueryGraph, count_matches, match_subgraph, path_query
from repro.apps import SubgraphMatchComper, query_radius
from repro.core import GThinkerConfig, run_job
from repro.core.containers import deserialize_tasks, serialize_tasks
from repro.graph import Graph, barabasi_albert, erdos_renyi, with_random_labels


def cfg(**kw):
    base = dict(num_workers=2, compers_per_worker=1, task_batch_size=4,
                cache_capacity=64, cache_buckets=16)
    base.update(kw)
    return GThinkerConfig(**base)


class OneAnchorPerTask(SubgraphMatchComper):
    """The paper's one-task-per-vertex shape."""

    BUNDLE_SIZE = 1


class LowHeavyBar(SubgraphMatchComper):
    """Anchors whose estimated ball reaches 6 vertices (degree >= 6 at
    radius 1, >= 3 at radius 2) get a task of their own."""

    BUNDLE_SIZE = 8
    HEAVY_BALL = 6


#: Path 3-1-0-2-4: the anchor (vertex 0) sits mid-path, so tasks pull
#: two hops for the whole bundle.
MID_PATH = QueryGraph([(1, 0), (0, 2), (1, 3), (2, 4)])


def test_mid_path_query_has_radius_two():
    assert MID_PATH.order[0] == 0
    assert query_radius(MID_PATH) == 2


@pytest.mark.parametrize("runtime", ["serial", "process"])
def test_radius_two_query_on_two_workers(runtime):
    g = erdos_renyi(45, 0.1, seed=31)
    res = run_job(functools.partial(SubgraphMatchComper, MID_PATH), g, cfg(),
                  runtime=runtime)
    assert res.aggregate == count_matches(g, MID_PATH) > 0
    # 45 anchors at most, 32 to a bundle: a handful of tasks, not 45.
    assert res.metrics["tasks:created"] <= 6


@pytest.mark.parametrize("runtime", ["serial", "process"])
def test_labelled_query_with_trimmer_on_two_workers(runtime):
    g = with_random_labels(erdos_renyi(60, 0.15, seed=9), 3, seed=1)
    q = QueryGraph([(0, 1), (1, 2), (0, 2), (2, 3)],
                   labels={0: 0, 1: 1, 2: 2, 3: 0})
    res = run_job(
        functools.partial(SubgraphMatchComper, q, data_labels=g.labels()),
        g, cfg(), runtime=runtime)
    assert res.aggregate == count_matches(g, q) > 0


@pytest.mark.parametrize("app", [SubgraphMatchComper, OneAnchorPerTask,
                                 LowHeavyBar])
def test_every_emit_shape_counts_the_same(app):
    """Heavy anchors alone, light ones bundled, or all alone: one answer."""
    g = barabasi_albert(120, m=3, seed=4)  # degrees straddle 6
    assert any(g.degree(v) >= 6 for v in g.vertices())
    assert any(g.degree(v) < 6 for v in g.vertices())
    for q in (path_query(2), MID_PATH):
        res = run_job(functools.partial(app, q), g, cfg())
        assert res.aggregate == count_matches(g, q)


def test_bundling_cuts_the_task_count():
    g = erdos_renyi(100, 0.08, seed=2)
    q = path_query(2)
    one = run_job(functools.partial(OneAnchorPerTask, q), g, cfg())
    bundled = run_job(functools.partial(SubgraphMatchComper, q), g, cfg())
    assert one.aggregate == bundled.aggregate == count_matches(g, q)
    assert bundled.metrics["tasks:created"] * 8 < one.metrics["tasks:created"]


def test_collected_embeddings_are_the_kernels_rows():
    g = erdos_renyi(30, 0.25, seed=14)
    q = QueryGraph([(0, 1), (1, 2), (0, 2), (2, 3)])
    res = run_job(
        functools.partial(LowHeavyBar, q, collect_embeddings=True), g, cfg())
    assert len(res.outputs) == res.aggregate
    assert all(type(x) is int
               for emb in res.outputs for kv in emb.items() for x in kv)
    assert ({frozenset(emb.items()) for emb in res.outputs}
            == {frozenset(emb.items()) for emb in match_subgraph(g, q)})


def test_gm_task_context_travels_as_an_int_tuple():
    """(hops, *anchors) rides the flat int-tuple frame, not a pickle."""
    tasks = []
    app = SubgraphMatchComper(path_query(2))

    class Collect:
        def add_task(self, task):
            tasks.append(task)

    app.bind_engine(Collect())
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    from repro.core.api import VertexView
    import numpy as np

    for v in (1, 2):
        app.task_spawn(VertexView(v, 0, np.asarray(g.neighbors(v))))
    app.spawn_flush()
    (task,) = tasks
    assert task.context == (0, 1, 2)
    payload = serialize_tasks([task])
    assert b"\x80" not in payload  # no pickle opcode stream in the frame
    (back,) = deserialize_tasks(payload)
    assert back.context == (0, 1, 2)
    assert back.g.adjacency().keys() == task.g.adjacency().keys()
    for v, row in task.g.adjacency().items():
        assert np.array_equal(back.g.neighbors(v), row)
    assert back.pending_pulls() == task.pending_pulls() == (0, 3)


def test_gm_under_steal_spawns():
    """Batches small enough that idle workers steal fresh spawns: a
    bundle cut short by the payload's task limit must ship with it
    (this configuration lost anchors before the flush fix)."""
    g = barabasi_albert(200, m=3, seed=2)
    q = path_query(2)
    res = run_job(
        functools.partial(LowHeavyBar, q), g,
        cfg(num_workers=2, task_batch_size=2, steal_batches=1,
            sync_every_rounds=2))
    assert res.metrics.get("steal:tasks", 0) > 0
    assert res.aggregate == count_matches(g, q)
