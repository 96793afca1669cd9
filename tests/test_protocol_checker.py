"""Tests for the opt-in concurrency protocol checkers (repro.check)."""

import threading

import numpy as np
import pytest

from repro.algorithms import count_triangles, max_clique_reference
from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.check import (
    CheckedTaskQueue,
    CheckedVertexCache,
    SingleWriterGuard,
    TaskLifecycleChecker,
)
from repro.check.fuzz import HopSumComper, hop_sum_oracle
from repro.core.api import Task, VertexView
from repro.core.config import GThinkerConfig
from repro.core.containers import TaskQueue, make_task_id
from repro.core.errors import ProtocolViolation
from repro.core.job import build_cluster, run_job
from repro.core.vertex_cache import VertexCache
from repro.graph import Graph, erdos_renyi, hash_partition


def make_cluster(**overrides):
    g = Graph.from_edges([(i, i + 1) for i in range(30)])
    kwargs = dict(
        num_workers=2,
        compers_per_worker=2,
        task_batch_size=4,
        cache_capacity=64,
        cache_buckets=8,
    )
    kwargs.update(overrides)
    return build_cluster(TriangleCountComper, g, GThinkerConfig(**kwargs)), g


# -- enabling ----------------------------------------------------------------


def test_checkers_off_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CHECK", raising=False)
    cluster, _g = make_cluster()
    for w in cluster.workers:
        assert w.checker is None
        assert type(w.cache) is VertexCache
        for e in w.engines:
            assert e.checker is None
            assert type(e.q_task) is TaskQueue


def test_checkers_enabled_via_config():
    cluster, _g = make_cluster(check_protocols=True)
    for w in cluster.workers:
        assert isinstance(w.checker, TaskLifecycleChecker)
        assert isinstance(w.cache, CheckedVertexCache)
        for e in w.engines:
            assert e.checker is w.checker
            assert isinstance(e.q_task, CheckedTaskQueue)


def test_checkers_enabled_via_env(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "1")
    assert GThinkerConfig().check_enabled
    cluster, _g = make_cluster()
    assert all(w.checker is not None for w in cluster.workers)
    monkeypatch.setenv("REPRO_CHECK", "0")
    assert not GThinkerConfig().check_enabled


# -- the lifecycle state machine ---------------------------------------------


def run_full_lifecycle(checker, comper_id=0):
    """Drive one task through a legal parked-and-yielded life."""
    t = Task(context="x")
    checker.on_queued(t, comper_id)
    checker.on_started(t, comper_id)
    t.task_id = make_task_id(comper_id, 0)
    checker.on_parked(t, comper_id)
    checker.on_ready(t)
    checker.on_resumed(t, comper_id)
    t.task_id = -1
    checker.on_yielded(t, comper_id)
    checker.on_queued(t, comper_id)  # re-queue after yield is legal
    checker.on_started(t, comper_id)
    checker.on_finished(t, comper_id)
    return t


def test_lifecycle_legal_path():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    run_full_lifecycle(checker)
    assert checker.live_tasks() == 0
    assert checker.transitions == 9
    checker.assert_quiescent()


def test_lifecycle_rejects_untracked_start():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    with pytest.raises(ProtocolViolation, match="on_started"):
        checker.on_started(Task(), 0)


def test_lifecycle_rejects_queue_with_live_id():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    t = Task()
    t.task_id = make_task_id(0, 7)
    with pytest.raises(ProtocolViolation, match="live task id"):
        checker.on_queued(t, 0)


def test_lifecycle_rejects_park_under_foreign_id():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    t = Task()
    checker.on_queued(t, 1)
    checker.on_started(t, 1)
    t.task_id = make_task_id(0, 3)  # minted by comper 0, parked on comper 1
    with pytest.raises(ProtocolViolation, match="wrong engine"):
        checker.on_parked(t, 1)


def test_lifecycle_rejects_cross_comper_pop():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    t = Task()
    checker.on_queued(t, 0)
    with pytest.raises(ProtocolViolation, match="owned by comper 0"):
        checker.on_started(t, 1)


def test_lifecycle_rejects_adoption_with_live_id():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    t = Task()
    t.task_id = make_task_id(1, 9)
    with pytest.raises(ProtocolViolation, match="serialize_tasks"):
        checker.on_adopted([t], 0)


def test_lifecycle_rejects_foreign_comper():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    with pytest.raises(ProtocolViolation, match="does not belong"):
        checker.on_queued(Task(), 5)


def test_lifecycle_quiescence_reports_leaked_tasks():
    checker = TaskLifecycleChecker(worker_id=0, compers_per_worker=2)
    checker.on_queued(Task(), 0)
    with pytest.raises(ProtocolViolation, match="unfinished"):
        checker.assert_quiescent()


# -- the cache-protocol checker ----------------------------------------------


def checked_cache_and_vertex():
    cluster, g = make_cluster(check_protocols=True)
    w0 = cluster.workers[0]
    v = next(x for x in g.vertices() if hash_partition(x, 2) == 1)
    return w0.cache, v


def test_cache_request_then_release_balances():
    cache, v = checked_cache_and_vertex()
    tid = make_task_id(0, 0)
    cache.request(v, tid)
    cache.insert_response(v, 0, (1, 2))
    assert cache.get_locked(v, tid).vid == v
    cache.release(v, tid)
    cache.assert_quiescent()


def test_cache_rejects_release_without_request():
    cache, v = checked_cache_and_vertex()
    with pytest.raises(ProtocolViolation, match="release-without-request"):
        cache.release(v, make_task_id(0, 0))


def test_cache_rejects_get_locked_without_hold():
    cache, v = checked_cache_and_vertex()
    owner = make_task_id(0, 0)
    cache.request(v, owner)
    cache.insert_response(v, 0, (1, 2))
    with pytest.raises(ProtocolViolation, match="no ledger lock"):
        cache.get_locked(v, make_task_id(1, 0))  # a task with no hold
    cache.release(v, owner)


def test_delivery_rejects_a_view_the_task_holds_no_lock_on():
    """Every view handed to a parked task (hits at park time, arrivals
    from the receiver) must be of a vertex the task holds a ledger lock
    on: a resumed task computes on its views with no ``get_locked``
    round, so delivery is where the ledger is checked."""
    cluster, g = make_cluster(check_protocols=True)
    w0 = cluster.workers[0]
    engine = w0.engines[0]
    v, other = [x for x in g.vertices() if hash_partition(x, 2) == 1][:2]
    task = Task(context="x")
    task.pull(v)
    engine.add_task(task)
    assert engine.step()  # parks on v, holding one ledger lock
    assert len(engine.t_task) == 1
    forged = {other: VertexView(other, 0, np.asarray(g.neighbors(other)))}
    with pytest.raises(ProtocolViolation, match="no ledger lock"):
        engine.deliver(task.task_id, forged)
    assert len(engine.t_task) == 1  # not delivered, so not ready


def test_cache_rejects_anonymous_request():
    cache, v = checked_cache_and_vertex()
    with pytest.raises(ProtocolViolation, match="without a task id"):
        cache.request(v, -1)


def test_cache_quiescence_reports_leaked_locks():
    cache, v = checked_cache_and_vertex()
    cache.request(v, make_task_id(0, 0))
    cache.insert_response(v, 0, (1, 2))
    with pytest.raises(ProtocolViolation, match="ledger not empty"):
        cache.assert_quiescent()


# -- single-writer guards ----------------------------------------------------


def test_single_writer_guard_detects_overlap():
    guard = SingleWriterGuard("test-section")
    inside = threading.Event()
    release = threading.Event()

    def hold():
        with guard.entered():
            inside.set()
            release.wait(5)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert inside.wait(5)
        with pytest.raises(ProtocolViolation, match="concurrent mutation"):
            with guard.entered():
                pass
    finally:
        release.set()
        holder.join(5)
    with guard.entered():  # recovers once the writer leaves
        pass


def test_single_writer_guard_is_reentrant():
    guard = SingleWriterGuard("test-section")
    with guard.entered():
        with guard.entered():
            pass
    with guard.entered():
        pass


def test_checked_task_queue_guards_mutations():
    q = CheckedTaskQueue(batch_size=2)
    inside = threading.Event()
    release = threading.Event()

    def slow_append():
        with q.guard.entered():
            inside.set()
            release.wait(5)

    writer = threading.Thread(target=slow_append)
    writer.start()
    try:
        assert inside.wait(5)
        with pytest.raises(ProtocolViolation):
            q.append(Task())
    finally:
        release.set()
        writer.join(5)
    assert len(q) == 0  # reads stay unguarded
    q.append(Task())
    assert q.pop() is not None


# -- the interleaving fuzzer -------------------------------------------------

FUZZ_GRAPH = erdos_renyi(40, 0.15, seed=5)
FUZZ_TRIANGLES = count_triangles(FUZZ_GRAPH)
FUZZ_CLIQUE = len(max_clique_reference(FUZZ_GRAPH))
FUZZ_HOPS = hop_sum_oracle(FUZZ_GRAPH)


def checked_config(seed):
    return GThinkerConfig(
        num_workers=2,
        compers_per_worker=2,
        task_batch_size=2,
        cache_capacity=48,
        cache_buckets=8,
        decompose_threshold=16,
        check_protocols=True,
        seed=seed,
    )


def test_checked_runtime_is_deterministic_per_seed():
    results = [
        run_job(HopSumComper, FUZZ_GRAPH, checked_config(9), runtime="checked")
        for _ in range(2)
    ]
    assert results[0].aggregate == results[1].aggregate == FUZZ_HOPS
    assert (
        results[0].metrics["tasks:iterations"]
        == results[1].metrics["tasks:iterations"]
    )


def test_checked_runtime_forces_checkers_on():
    cfg = checked_config(0).with_updates(check_protocols=False)
    result = run_job(TriangleCountComper, FUZZ_GRAPH, cfg, runtime="checked")
    assert result.aggregate == FUZZ_TRIANGLES


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_triangle_count(seed):
    result = run_job(
        TriangleCountComper, FUZZ_GRAPH, checked_config(seed), runtime="checked"
    )
    assert result.aggregate == FUZZ_TRIANGLES


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_max_clique(seed):
    result = run_job(
        MaxCliqueComper, FUZZ_GRAPH, checked_config(seed), runtime="checked"
    )
    assert len(result.aggregate or ()) == FUZZ_CLIQUE


@pytest.mark.parametrize("seed", range(20))
def test_fuzz_yield_heavy_walks(seed):
    result = run_job(
        HopSumComper, FUZZ_GRAPH, checked_config(seed), runtime="checked"
    )
    assert result.aggregate == FUZZ_HOPS
