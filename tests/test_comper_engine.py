"""Engine-level tests of the comper pop/push rounds, parking and refills."""

import functools
import threading

import pytest

from repro.algorithms import count_triangles
from repro.apps import TriangleCountComper
from repro.core.api import Comper, Task, VertexView
from repro.core.comper import ComperEngine
from repro.core.config import GThinkerConfig
from repro.core.containers import ReadyBuffer
from repro.core.errors import TaskError
from repro.core.job import build_cluster, run_job
from repro.core.runtime import SerialRuntime
from repro.graph import Graph, erdos_renyi, hash_partition


def cfg(**kw):
    base = dict(num_workers=2, compers_per_worker=1, task_batch_size=4,
                cache_capacity=64, cache_buckets=8, sync_every_rounds=4)
    base.update(kw)
    return GThinkerConfig(**base)


class PullOneRemote(Comper):
    """Each task pulls exactly one (possibly remote) vertex, then records
    the adjacency it saw."""

    def task_spawn(self, v: VertexView) -> None:
        if len(v.adj):
            t = Task(context=v.id)
            t.pull(v.adj[0])
            self.add_task(t)

    def compute(self, task, frontier):
        (view,) = frontier
        self.output((task.context, view.id, view.adj))
        return False


class MultiHop(Comper):
    """Tasks iterate twice: pull first neighbor, then its first neighbor."""

    def task_spawn(self, v: VertexView) -> None:
        if len(v.adj):
            t = Task(context={"hops": 0, "origin": v.id})
            t.pull(v.adj[0])
            self.add_task(t)

    def compute(self, task, frontier):
        task.context["hops"] += 1
        view = frontier[0]
        if task.context["hops"] == 1 and len(view.adj):
            task.pull(view.adj[0])
            return True
        self.output((task.context["origin"], task.context["hops"]))
        return False


@pytest.fixture
def graph():
    return erdos_renyi(40, 0.2, seed=13)


def test_remote_pulls_resolve_correctly(graph):
    cluster = build_cluster(PullOneRemote, graph, cfg())
    SerialRuntime().run(cluster)
    outputs = [rec for w in cluster.workers for rec in w.outputs()]
    assert len(outputs) == sum(1 for v in graph.vertices() if graph.degree(v))
    for origin, pulled, adj in outputs:
        assert pulled == graph.neighbors(origin)[0]
        assert tuple(adj) == graph.neighbors(pulled)


def test_multi_iteration_tasks(graph):
    cluster = build_cluster(MultiHop, graph, cfg())
    SerialRuntime().run(cluster)
    outputs = [rec for w in cluster.workers for rec in w.outputs()]
    assert outputs
    assert all(hops in (1, 2) for _origin, hops in outputs)
    assert any(hops == 2 for _origin, hops in outputs)


def test_cache_locks_all_released_at_end(graph):
    """After the job, every cached vertex must be unlocked (evictable)."""
    cluster = build_cluster(PullOneRemote, graph, cfg())
    SerialRuntime().run(cluster)
    for w in cluster.workers:
        w.cache.check_invariants()
        size = w.cache.exact_size()
        assert w.cache.evict(10**9) == size  # everything evictable


def test_user_exception_wrapped(graph):
    class Exploder(PullOneRemote):
        def compute(self, task, frontier):
            raise ValueError("user bug")

    cluster = build_cluster(Exploder, graph, cfg())
    with pytest.raises(TaskError):
        SerialRuntime().run(cluster)


def test_pending_threshold_gates_pop(graph):
    """With D=0, a comper that has any pending task must not pop more."""
    cluster = build_cluster(PullOneRemote, graph, cfg(pending_threshold=0))
    SerialRuntime().run(cluster)
    # Correctness preserved even under maximal gating...
    outputs = [rec for w in cluster.workers for rec in w.outputs()]
    assert len(outputs) == sum(1 for v in graph.vertices() if graph.degree(v))
    # ...and the gate actually fired.
    assert cluster.metrics.get("comper:pop_blocked_pending") > 0


def test_cache_overflow_gates_pop(graph):
    # δ=1 commits every counter change: with the default δ=10, a worker
    # seeing fewer than 10 remote pulls would never publish its size and
    # the (tiny) cache would never observe its own overflow.
    cluster = build_cluster(
        PullOneRemote, graph,
        cfg(cache_capacity=2, cache_overflow_alpha=0.0, cache_count_delta=1),
    )
    SerialRuntime().run(cluster)
    outputs = [rec for w in cluster.workers for rec in w.outputs()]
    assert len(outputs) == sum(1 for v in graph.vertices() if graph.degree(v))
    assert cluster.metrics.get("cache:evictions") > 0


def test_task_ids_unique_per_engine(graph):
    cluster = build_cluster(PullOneRemote, graph, cfg(compers_per_worker=2))
    SerialRuntime().run(cluster)
    # 48-bit sequences started at 0 for each comper; uniqueness is by
    # construction, but engines must have parked at least one task each
    # for the id machinery to have been exercised.
    assert cluster.metrics.get("cache:miss_first") > 0


def test_spill_and_refill_roundtrip():
    """A spawn-heavy app on one comper must spill batches and reload them."""

    class FanOut(Comper):
        def task_spawn(self, v: VertexView) -> None:
            for i in range(6):
                self.add_task(Task(context=(v.id, i)))

        def compute(self, task, frontier):
            self.output(task.context)
            return False

    g = Graph.from_edges([(i, i + 1) for i in range(30)])
    cluster = build_cluster(FanOut, g, cfg(num_workers=1, task_batch_size=2))
    SerialRuntime().run(cluster)
    outputs = [rec for w in cluster.workers for rec in w.outputs()]
    assert len(outputs) == 31 * 6
    assert len(set(outputs)) == len(outputs)
    assert cluster.metrics.get("tasks:spilled") > 0
    assert cluster.metrics.get("tasks:refilled_from_disk") == \
        cluster.metrics.get("tasks:spilled")


class PullBadId(Comper):
    """The task spawned from ``src`` pulls ``bad``, an id in no table."""

    def __init__(self, src: int, bad: int) -> None:
        super().__init__()
        self.src, self.bad = src, bad

    def task_spawn(self, v: VertexView) -> None:
        if v.id == self.src:
            t = Task()
            t.pull_many([self.bad])
            self.add_task(t)

    def compute(self, task, frontier):  # pragma: no cover - never reached
        return False


def _absent_id_hashing_to(worker_id: int, num_workers: int) -> int:
    return next(v for v in range(10**6, 10**6 + 64)
                if hash_partition(v, num_workers) == worker_id)


@pytest.mark.parametrize("runtime", ["serial", "checked"])
@pytest.mark.parametrize("check_protocols", [True, False])
@pytest.mark.parametrize("num_workers,bad_owner", [(1, 0), (2, 0), (2, 1)])
def test_pull_of_absent_vertex_fails_with_context(
    graph, runtime, check_protocols, num_workers, bad_owner
):
    """Ownership is table membership, so an absent id looks remote on N
    workers; it must still fail loudly — where its miss is routed (it
    hashes to the puller), where it is served (it hashes elsewhere), or
    where the frontier is built (one worker) — through the bulk cache
    ops and through their checked per-vertex decomposition alike."""
    src = next(v for v in graph.vertices()
               if hash_partition(v, num_workers) == 0)
    bad = _absent_id_hashing_to(bad_owner, num_workers)
    config = cfg(num_workers=num_workers, check_protocols=check_protocols)
    with pytest.raises((KeyError, TaskError)) as err:
        run_job(functools.partial(PullBadId, src, bad), graph, config,
                runtime=runtime)
    message = str(err.value)
    assert str(bad) in message
    if bad_owner == 0:
        assert isinstance(err.value, KeyError)
        assert "bad vertex id in a pull" in message
    else:
        assert "does not own" in message


@pytest.mark.parametrize("runtime", ["serial", "checked"])
def test_bulk_and_per_vertex_paths_report_the_same_counters(runtime):
    """The bulk cache ops and their per-vertex decomposition
    (``CheckedVertexCache``, switched on by ``check_protocols``) consume
    the one per-iteration remote list: at one schedule a deterministic
    eviction-heavy TC job must pin the same cache and comm counters
    either way.  (The ``checked`` runtime always decomposes, so there
    the two runs also pin its seeded schedule as repeatable.)  The bulk
    ops take one bucket mutex per vertex, as the decomposition does, so
    the lock count is pinned too."""
    g = erdos_renyi(400, 0.03, seed=5)
    pinned = ("cache:hits", "cache:miss_first", "cache:miss_duplicate",
              "cache:evictions", "comm:requests_queued",
              "tasks:created", "tasks:finished", "tasks:iterations")
    seen, locks = {}, {}
    for decomposed in (False, True):
        config = GThinkerConfig(
            num_workers=2, compers_per_worker=1, task_batch_size=16,
            cache_capacity=g.num_vertices // 20, cache_buckets=8,
            check_protocols=decomposed,
        )
        result = run_job(TriangleCountComper, g, config, runtime=runtime)
        assert result.aggregate == count_triangles(g)
        seen[decomposed] = {k: result.metrics.get(k, 0) for k in pinned}
        locks[decomposed] = result.metrics.get("cache:bucket_lock_acquisitions")
    assert seen[False] == seen[True]
    assert seen[False]["cache:evictions"] > 0
    assert seen[False]["cache:miss_first"] > 0
    assert locks[False] == locks[True]


class PullHub(Comper):
    """Every task pulls one hub vertex.  On the worker that does not own
    it the first pulls miss; every later one hits the cache."""

    def __init__(self, hub: int, seen=None) -> None:
        super().__init__()
        self.hub, self.seen = hub, seen

    def task_spawn(self, v: VertexView) -> None:
        t = Task(context=v.id)
        t.pull(self.hub)
        self.add_task(t)

    def compute(self, task, frontier):
        (view,) = frontier
        if self.seen is not None:
            self.seen(task)
        self.output((task.context, view.id, tuple(view.adj)))
        return False


def _hub(graph):
    return next(v for v in graph.vertices()
                if hash_partition(v, 2) == 1 and graph.degree(v))


def _check_hub_outputs(graph, hub, outputs):
    assert sorted(o[0] for o in outputs) == sorted(graph.vertices())
    assert {o[1:] for o in outputs} == {(hub, graph.neighbors(hub))}


@pytest.mark.parametrize("runtime", ["serial", "checked"])
def test_all_hit_task_computes_in_the_round_it_is_popped(
    graph, runtime, monkeypatch
):
    """A task whose every remote pull hits the cache leaves T_task at
    once and computes inside the pop that started it: only tasks that
    missed pass through B_task (and the checked runtime's lifecycle and
    lock-ledger checkers accept the parked -> ready -> computing path)."""
    phase = threading.local()

    def in_phase(name, method):
        def wrapped(self, *args):
            outer = getattr(phase, "name", None)
            phase.name = name
            try:
                return method(self, *args)
            finally:
                phase.name = outer
        return wrapped

    monkeypatch.setattr(ComperEngine, "_start",
                        in_phase("pop", ComperEngine._start))
    monkeypatch.setattr(ComperEngine, "_push",
                        in_phase("push", ComperEngine._push))
    put = ReadyBuffer.put
    ready = []
    monkeypatch.setattr(ReadyBuffer, "put",
                        lambda self, task: (ready.append(task), put(self, task)))
    computed_in = []
    hub = _hub(graph)
    result = run_job(
        functools.partial(PullHub, hub,
                          lambda task: computed_in.append(phase.name)),
        graph, cfg(), runtime=runtime)
    _check_hub_outputs(graph, hub, result.outputs)
    m = result.metrics
    missed = m.get("cache:miss_first", 0) + m.get("cache:miss_duplicate", 0)
    assert m.get("cache:hits", 0) > missed > 0
    assert len(ready) == computed_in.count("push") == missed
    assert computed_in.count("pop") == graph.num_vertices - missed


def test_threaded_steals_lose_no_task_under_preemption(graph):
    """Worker 1 owns the hub and drains at once, so the master steals
    from worker 0 while both workers' threads run.  A 0.1 ms switch
    interval preempts threads inside every window where a task sits in
    no container a termination snapshot reads (an undispatched stolen
    batch, a refill reading its file): about 7 % of these jobs lost
    tasks before those windows were closed."""
    import sys

    hub = _hub(graph)
    config = cfg(pending_threshold=0)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(100):
            result = run_job(functools.partial(PullHub, hub), graph, config,
                             runtime="threaded")
            _check_hub_outputs(graph, hub, result.outputs)
    finally:
        sys.setswitchinterval(old)


class CountRemotePulls(PullHub):
    """PullHub that records, per computed task, whether its worker
    pulled the hub remotely (every task computes exactly once)."""

    def __init__(self, hub, remote) -> None:
        super().__init__(hub)
        self.remote = remote

    def compute(self, task, frontier):
        self.remote.append(not self._engine.worker.owns_vertex(self.hub))
        return super().compute(task, frontier)


def test_cache_counters_exact_under_preemption(graph):
    """Two compers per worker and the response receiver race on one
    cache under a 0.1 ms switch interval.  The OP counters are bumped
    under the bucket mutex each transition holds, so they stay exact:
    one response per first miss, one served id per first miss, and one
    OP1 outcome per remote pull issued."""
    import sys

    hub = _hub(graph)
    config = cfg(compers_per_worker=2, pending_threshold=0)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(20):
            remote = []
            result = run_job(
                functools.partial(CountRemotePulls, hub, remote), graph,
                config, runtime="threaded")
            _check_hub_outputs(graph, hub, result.outputs)
            m = result.metrics
            first = m.get("cache:miss_first", 0)
            assert first > 0
            assert m.get("cache:responses") == first
            assert m.get("comm:requests_served") == first
            assert (m.get("cache:hits", 0) + first
                    + m.get("cache:miss_duplicate", 0)) == sum(remote)
    finally:
        sys.setswitchinterval(old)


def test_all_hit_answers_on_threaded(graph):
    """With D = 0 a comper pops nothing while its first (missing) task
    waits, so every later pull of the hub is a hit computed inline,
    with the response receiver running on its own thread, while the
    master steals from the worker that owns the hub."""
    hub = _hub(graph)
    config = cfg(pending_threshold=0, task_batch_size=64)
    result = run_job(functools.partial(PullHub, hub), graph, config,
                     runtime="threaded")
    _check_hub_outputs(graph, hub, result.outputs)
    assert result.metrics.get("cache:hits", 0) > 0
