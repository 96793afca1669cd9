"""A finished job is freed by reference counting, not by the next
full garbage collection: teardown unhooks the worker graph and no miner
recurses through a closure that refers to itself."""

import functools
import gc

import pytest

from repro.algorithms import triangle_query
from repro.apps import (
    MaxCliqueComper,
    MaximalCliqueComper,
    SubgraphMatchComper,
    TriangleCountComper,
)
from repro.core import GThinkerConfig, run_job
from repro.graph import erdos_renyi

APPS = {
    "tc": TriangleCountComper,
    "cliques": MaximalCliqueComper,
    "gm": functools.partial(SubgraphMatchComper, triangle_query()),
    "mcf": MaxCliqueComper,
}


@pytest.mark.parametrize("app", sorted(APPS))
def test_finished_job_leaves_no_cyclic_garbage(app):
    g = erdos_renyi(120, 0.1, seed=3)
    config = GThinkerConfig(num_workers=2, compers_per_worker=1)
    run_job(APPS[app], g, config)  # warm imports and lazy module state
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run_job(APPS[app], g, config)
        assert result.aggregate is not None
        del result
        gc.collect()
        leaked = sorted({
            f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage
            if type(o).__module__.startswith("repro.")
        })
        unreachable = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert leaked == []
    # Nothing else either: no closure cells, adjacency sets or locks
    # stranded by a cycle.
    assert unreachable == 0


def test_cleanup_keeps_results_readable(tmp_path):
    from repro.core.job import build_cluster
    from repro.core.runtime import SerialRuntime

    g = erdos_renyi(40, 0.2, seed=1)
    cluster = build_cluster(
        functools.partial(TriangleCountComper, list_triangles=True), g,
        GThinkerConfig(num_workers=2, spill_dir=str(tmp_path)))
    SerialRuntime().run(cluster)
    for w in cluster.workers:
        w.cleanup()
    assert all(e.worker is None for w in cluster.workers for e in w.engines)
    outputs = [rec for w in cluster.workers for rec in w.outputs()]
    assert len(outputs) == cluster.master.global_aggregator.value > 0
    assert cluster.metrics.snapshot()["tasks:finished"] > 0
