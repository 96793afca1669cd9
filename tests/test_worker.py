"""Tests for the Worker component (local table, spawning, stealing)."""

import pytest

from repro.core.api import Comper, Task, VertexView
from repro.core.config import GThinkerConfig
from repro.core.containers import deserialize_tasks
from repro.core.job import build_cluster
from repro.core.worker import CostMeter
from repro.graph import erdos_renyi, hash_partition


class SpawnEverything(Comper):
    """Creates one trivial task per vertex (for worker-level tests)."""

    def task_spawn(self, v: VertexView) -> None:
        self.add_task(Task(context=v.id))

    def compute(self, task, frontier):
        return False


@pytest.fixture
def cluster(small_config, er_graph):
    return build_cluster(SpawnEverything, er_graph, small_config)


def test_graph_partitioned_across_workers(cluster, er_graph):
    total = sum(w.num_local_vertices for w in cluster.workers)
    assert total == er_graph.num_vertices
    for w in cluster.workers:
        for v in range(er_graph.num_vertices):
            if w.owns_vertex(v):
                assert w.local_view(v) is not None


def test_local_view_for_remote_vertex_is_none(cluster):
    w = cluster.workers[0]
    remote = next(
        v for v in range(1000) if hash_partition(v, len(cluster.workers)) != 0
    )
    assert w.local_view(remote) is None


def _shared_workers(graph, num_workers, tmp_path):
    """Workers attached to a SharedCSR (the process runtime's load path)."""
    from repro.core.metrics import MetricsRegistry
    from repro.core.worker import Worker
    from repro.graph.csr import SharedCSR
    from repro.net import Transport

    csr = SharedCSR.from_graph(graph)
    cfg = GThinkerConfig(num_workers=num_workers, compers_per_worker=1)
    workers = [
        Worker(worker_id=i, num_workers=num_workers, config=cfg,
               app_factory=SpawnEverything, transport=Transport(num_workers),
               metrics=MetricsRegistry(), spill_dir=tmp_path)
        for i in range(num_workers)
    ]
    for w in workers:
        w.load_shared(csr)
    return csr, workers


def _assert_ownership_is_the_hash_partition(workers, graph):
    n = len(workers)
    everything = list(graph.vertices())
    for w in workers:
        mine = [v for v in everything if hash_partition(v, n) == w.worker_id]
        assert [v for v in everything if w.owns_vertex(v)] == mine
        assert w.remote_of(everything) == [
            v for v in everything if not w.owns_vertex(v)
        ]
        assert w.remote_of(mine) == []
        # The bulk frontier is the per-vertex one, in order.
        assert w.local_views(mine) == [w.local_view(v) for v in mine]
        assert [view.id for view in w.local_views(mine)] == mine


def test_remote_of_agrees_with_owns_vertex_after_load_rows(cluster, er_graph):
    _assert_ownership_is_the_hash_partition(cluster.workers, er_graph)


def test_remote_of_agrees_with_owns_vertex_after_load_shared(er_graph, tmp_path):
    csr, workers = _shared_workers(er_graph, 3, tmp_path)
    try:
        # Nothing is faulted in yet: ownership must not depend on it.
        assert all(not w._local for w in workers)
        _assert_ownership_is_the_hash_partition(workers, er_graph)
    finally:
        csr.close()
        csr.unlink()


def test_remote_of_single_worker_is_empty_without_probing(er_graph):
    one = build_cluster(
        SpawnEverything, er_graph, GThinkerConfig(num_workers=1)
    ).workers[0]
    # Even an id in no table: with one worker nothing can be remote, and
    # the frontier build is what rejects it.
    assert one.remote_of([0, 1, 10**9]) == []
    with pytest.raises(KeyError, match="bad vertex id in a pull"):
        one.local_views([0, 10**9])


def test_local_views_rejects_unknown_id_after_load_shared(er_graph, tmp_path):
    csr, (w,) = _shared_workers(er_graph, 1, tmp_path)
    try:
        with pytest.raises(KeyError, match="bad vertex id in a pull"):
            w.local_views([0, 10**9])
    finally:
        csr.close()
        csr.unlink()


def test_local_entry_unknown_vertex_raises(cluster):
    w = cluster.workers[0]
    with pytest.raises(KeyError):
        w.local_entry(10**9)


def test_spawn_into_respects_room(cluster):
    w = cluster.workers[0]
    engine = w.engines[0]
    before = w.unspawned_count()
    spawned = w.spawn_into(engine, room=engine.q_task.refill_room())
    assert spawned > 0
    assert w.unspawned_count() == before - spawned
    assert len(engine.q_task) > 0


def test_spawn_cursor_exhaustion(cluster):
    w = cluster.workers[0]
    engine = w.engines[0]
    while w.unspawned_count():
        w.spawn_into(engine, room=10**6)
        # drain so the queue never blocks the refill loop
        while engine.q_task.pop() is not None:
            pass
    assert w.spawn_into(engine, room=10) == 0


def test_spawn_batch_payload_for_stealing(cluster):
    w = cluster.workers[0]
    payload_info = w.spawn_batch_payload(max_tasks=5)
    assert payload_info is not None
    payload, count = payload_info
    tasks = deserialize_tasks(payload)
    assert len(tasks) == count <= 5
    # Spawned-for-steal tasks come off the same shared cursor.
    assert w.unspawned_count() < w.num_local_vertices


def test_spawn_batch_payload_empty_when_exhausted(cluster):
    w = cluster.workers[0]
    w.set_spawn_cursor(w.num_local_vertices)
    assert w.spawn_batch_payload(5) is None


def test_remaining_workload_estimate(cluster):
    w = cluster.workers[0]
    est = w.remaining_workload_estimate()
    assert est == w.unspawned_count()
    w.l_file.spill([Task(), Task()])
    assert w.remaining_workload_estimate() == est + 2
    w.l_file.cleanup()


def test_outputs_collected(cluster):
    w = cluster.workers[0]
    w.add_output("a")
    w.add_output("b")
    assert w.outputs() == ["a", "b"]
    w.set_outputs(["x"])
    assert w.outputs() == ["x"]


def test_engine_routing_by_global_id(cluster, small_config):
    for w in cluster.workers:
        base = w.worker_id * small_config.compers_per_worker
        for i, engine in enumerate(w.engines):
            assert engine.global_id == base + i
            assert w.engine_by_global_id(base + i) is engine
        with pytest.raises(KeyError):
            w.engine_by_global_id(base + len(w.engines))


def test_trimmer_applied_at_load(small_config):
    from repro.apps import TriangleCountComper

    g = erdos_renyi(30, 0.3, seed=2)
    cluster = build_cluster(TriangleCountComper, g, small_config)
    for w in cluster.workers:
        for v in g.vertices():
            view = w.local_view(v) if w.owns_vertex(v) else None
            if view is not None:
                assert all(u > v for u in view.adj)  # Γ_> trimming




def test_cost_meter_drain():
    m = CostMeter()
    m.add(0.5)
    m.add(0.25)
    assert m.drain() == pytest.approx(0.75)
    assert m.drain() == 0.0


def test_gc_step_only_on_overflow(cluster):
    w = cluster.workers[0]
    assert w.gc_step() is False  # empty cache: nothing to do


# -- step_round: the one scheduling round ------------------------------------


class _ScriptedEngine:
    """Stands in for a ComperEngine: ``step()`` replays a result script."""

    def __init__(self, script):
        self._script = iter(script)
        self.steps = 0

    def step(self):
        self.steps += 1
        return next(self._script, False)


def _scripted_worker(cluster, script):
    """Worker 0 with a counted comm step and one scripted engine."""
    w = cluster.workers[0]
    w.engines = [_ScriptedEngine(script)]
    w.comm_steps = 0
    real_comm_step = w.comm.step

    def comm_step():
        w.comm_steps += 1
        return real_comm_step()

    w.comm.step = comm_step
    return w


def test_step_round_steps_comm_exactly_once(cluster):
    w = _scripted_worker(cluster, [True] * 100)
    w.step_round(7)
    assert w.comm_steps == 1
    assert w.engines[0].steps == 7


def test_step_round_ends_on_first_round_without_progress(cluster):
    w = _scripted_worker(cluster, [True, True, True, False, True])
    worked, rounds = w.step_round(10)
    assert worked is True
    # Three productive rounds and the idle one that ended the burst.
    assert rounds == w.engines[0].steps == 4


def test_step_round_reports_idle_round(cluster):
    w = _scripted_worker(cluster, [])
    assert w.step_round(10) == (False, 1)


def test_step_round_never_exceeds_its_budget(cluster):
    from repro.core.worker import ENGINE_BURST_STEPS

    w = _scripted_worker(cluster, [True] * 1000)
    for budget in (0, 1, 5):
        before = w.engines[0].steps
        assert w.step_round(budget) == (budget > 0, budget)
        assert w.engines[0].steps - before == budget
    assert w.step_round() == (True, ENGINE_BURST_STEPS)


def test_step_round_callback_fires_once_per_engine_round(cluster):
    w = _scripted_worker(cluster, [True, True, False])
    seen = []
    _, rounds = w.step_round(10, seen.append)
    assert seen == [w] * rounds == [w] * 3


def test_node_session_step_is_one_worker_round(cluster):
    """Quiesced: comm only.  Otherwise one burst, the injector observing
    every engine round of it."""
    from repro.core.controlplane import FailureInjector, NodeSession

    class CountingInjector(FailureInjector):
        rounds_observed = 0

        def observe_round(self, worker):
            self.rounds_observed += 1

    w = _scripted_worker(cluster, [True, True, False])
    injector = CountingInjector(None, w.worker_id, 0)
    session = NodeSession(w, w.transport, injector, w.metrics)

    session.quiesced = True
    session.step()
    assert (w.comm_steps, w.engines[0].steps) == (1, 0)
    assert injector.rounds_observed == 0

    session.quiesced = False
    assert session.step() is True
    assert (w.comm_steps, w.engines[0].steps) == (2, 3)
    assert injector.rounds_observed == 3


def test_drained_tracks_every_source_of_work(cluster):
    w = cluster.workers[0]
    assert not w.drained()  # unspawned vertices
    w.set_spawn_cursor(w.num_local_vertices)
    assert w.drained()
    w.comm.queue_requests([next(
        v for v in range(1000) if not w.owns_vertex(v)
    )])
    assert not w.drained()  # a queued pull
