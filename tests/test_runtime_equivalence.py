"""Cross-runtime equivalence: serial, threaded, simulated and process
runs of the same job must produce identical answers (and identical
output *sets* — ordering is scheduling-dependent by design)."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import (
    count_matches,
    count_triangles,
    max_clique_reference,
    triangle_query,
)
from repro.apps import (
    MaxCliqueComper,
    QuasiCliqueComper,
    SubgraphMatchComper,
    TriangleCountComper,
)
from repro.core import GThinkerConfig, Session, run_job
from repro.graph import ShardedGraphStore, erdos_renyi
from repro.sim import run_simulated_job


def cfg(**kw):
    base = dict(num_workers=3, compers_per_worker=2, task_batch_size=4,
                cache_capacity=64, cache_buckets=16, decompose_threshold=16,
                aggregator_sync_period_s=0.002)
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(100, 0.1, seed=99)


def test_tc_equivalence(graph):
    expected = count_triangles(graph)
    serial = run_job(TriangleCountComper, graph, cfg(), runtime="serial")
    threaded = run_job(TriangleCountComper, graph, cfg(), runtime="threaded")
    simulated = run_simulated_job(TriangleCountComper, graph, cfg())
    assert serial.aggregate == threaded.aggregate == simulated.aggregate == expected


def test_mcf_equivalence(graph):
    expected = len(max_clique_reference(graph))
    sizes = {
        len(run_job(MaxCliqueComper, graph, cfg(), runtime="serial").aggregate),
        len(run_job(MaxCliqueComper, graph, cfg(), runtime="threaded").aggregate),
        len(run_simulated_job(MaxCliqueComper, graph, cfg()).aggregate),
    }
    assert sizes == {expected}


@pytest.mark.parametrize("runtime", ["process", "cluster"])
def test_sharded_store_job_matches_serial(tmp_path, graph, runtime):
    # The node-set backends load a store whole, then share or ship rows.
    store = ShardedGraphStore.create(tmp_path / "g", graph, num_shards=3)
    app = functools.partial(TriangleCountComper, list_triangles=True)
    serial = run_job(app, graph, cfg(), runtime="serial")
    res = run_job(app, store, cfg(num_workers=2), runtime=runtime)
    assert res.aggregate == serial.aggregate == count_triangles(graph)
    assert sorted(res.outputs) == sorted(serial.outputs)


def test_output_sets_equal_across_runtimes():
    g = erdos_renyi(40, 0.2, seed=7)
    serial = run_job(lambda: TriangleCountComper(list_triangles=True), g,
                     cfg(), runtime="serial")
    threaded = run_job(lambda: TriangleCountComper(list_triangles=True), g,
                       cfg(), runtime="threaded")
    assert set(serial.outputs) == set(threaded.outputs)
    assert len(serial.outputs) == len(threaded.outputs)


def test_serial_runs_deterministic(graph):
    """Two serial runs of the same job produce identical output order."""
    a = run_job(lambda: TriangleCountComper(list_triangles=True), graph, cfg())
    b = run_job(lambda: TriangleCountComper(list_triangles=True), graph, cfg())
    assert a.outputs == b.outputs
    assert a.aggregate == b.aggregate


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(20, 70),
    p=st.floats(0.05, 0.25),
    seed=st.integers(0, 1000),
    workers=st.integers(1, 5),
    compers=st.integers(1, 3),
    batch=st.integers(1, 8),
    capacity=st.integers(4, 200),
)
def test_tc_correct_under_random_configs(n, p, seed, workers, compers, batch, capacity):
    """Engine-level property: the distributed answer equals the oracle
    for arbitrary graphs x arbitrary (legal) configurations."""
    g = erdos_renyi(n, p, seed=seed)
    config = GThinkerConfig(
        num_workers=workers, compers_per_worker=compers,
        task_batch_size=batch, cache_capacity=capacity,
        cache_buckets=8, sync_every_rounds=8,
    )
    res = run_job(TriangleCountComper, g, config)
    assert res.aggregate == count_triangles(g)


# -- process backend vs the serial oracle --------------------------------
#
# The factories below must be picklable (classes / functools.partial):
# runtime="process" ships them to every worker process.


def test_tc_process_equals_oracle(graph):
    res = run_job(TriangleCountComper, graph, cfg(), runtime="process")
    assert res.aggregate == count_triangles(graph)


def test_mcf_process_equals_oracle(graph):
    res = run_job(MaxCliqueComper, graph, cfg(), runtime="process")
    assert len(res.aggregate) == len(max_clique_reference(graph))


def test_gm_process_equals_oracle():
    g = erdos_renyi(50, 0.15, seed=9)
    q = triangle_query()
    factory = functools.partial(SubgraphMatchComper, q)
    res = run_job(factory, g, cfg(num_workers=2), runtime="process")
    assert res.aggregate == count_matches(g, q)


def test_process_output_sets_match_serial():
    g = erdos_renyi(40, 0.2, seed=7)
    factory = functools.partial(TriangleCountComper, list_triangles=True)
    serial = run_job(factory, g, cfg(), runtime="serial")
    process = run_job(factory, g, cfg(), runtime="process")
    assert set(process.outputs) == set(serial.outputs)
    assert len(process.outputs) == len(serial.outputs)


def test_process_spill_forcing_config():
    """Tiny batches + aggressive decomposition force the disk-spill path
    (and usually steals) across process boundaries."""
    g = erdos_renyi(60, 0.18, seed=5)
    # batch size 1 → Q_task capacity 3: a single decomposition (~average
    # degree children) overflows regardless of process scheduling.
    config = cfg(num_workers=2, task_batch_size=1, decompose_threshold=4)
    res = run_job(MaxCliqueComper, g, config, runtime="process")
    assert len(res.aggregate) == len(max_clique_reference(g))
    assert res.metrics.get("tasks:spilled", 0) > 0


def test_process_aggregator_sync_heavy_config():
    """A near-continuous sync cadence must not change the answer (the
    pruning bound just propagates faster)."""
    g = erdos_renyi(60, 0.15, seed=11)
    config = cfg(aggregator_sync_period_s=0.0002)
    res = run_job(MaxCliqueComper, g, config, runtime="process")
    assert len(res.aggregate) == len(max_clique_reference(g))


def test_process_local_table_bytes_match_serial(graph):
    """S4 regression: the process runtime faults T_local rows in lazily,
    but by job end every owned row has been materialized, so each
    worker's trimmed local-table footprint must equal the serial
    runtime's (which loads eagerly) — also on a serial job that attaches
    its Session's resident tables instead of building them."""
    with Session(graph, cfg(num_workers=2), runtime="serial") as session:
        serial, memo_hit = [session.submit(MaxCliqueComper).result(timeout=60)
                            for _ in range(2)]
    process = run_job(MaxCliqueComper, graph, cfg(num_workers=2),
                      runtime="process")
    for wid in range(2):
        key = f"max:worker{wid}:local_table_bytes"
        assert serial.metrics.get(key, 0) > 0
        assert process.metrics.get(key) == serial.metrics.get(key), key
        assert memo_hit.metrics.get(key) == serial.metrics.get(key), key


def test_process_merges_per_worker_metrics(graph):
    res = run_job(TriangleCountComper, graph, cfg(num_workers=2),
                  runtime="process")
    for wid in range(2):
        assert res.worker_metrics(wid).peak_memory_bytes > 0
    assert res.metrics.get("ipc:batches", 0) > 0


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(15, 45),
    p=st.floats(0.1, 0.3),
    seed=st.integers(0, 500),
    tau=st.integers(2, 40),
)
def test_mcf_correct_under_random_decomposition(n, p, seed, tau):
    """Task decomposition depth must never change the answer."""
    g = erdos_renyi(n, p, seed=seed)
    config = GThinkerConfig(num_workers=2, compers_per_worker=2,
                            task_batch_size=3, cache_capacity=64,
                            decompose_threshold=tau)
    res = run_job(MaxCliqueComper, g, config)
    assert len(res.aggregate or ()) == len(max_clique_reference(g))
