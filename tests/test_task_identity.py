"""Regression tests: task identity across yield, spill, refill and steal.

A task id encodes the comper that minted it at park time
(``make_task_id(comper, seq)``) and the response receiver routes
arrivals by that id.  A task that *yields* (hits the inline-iteration
limit) goes back through ``Q_task`` and may then be spilled and refilled
by a different comper — or stolen by a different worker — so its id must
be invalidated on the way out.  Before the fix, the stale id survived
the handoff and the next arrival was routed to the original engine,
which no longer had a pending entry for it.

The choreographed tests below drive that exact interleaving step by
step; the e2e tests hammer the same paths with a multi-iteration app
under an aggressive configuration (inline limit 1, batch size 1-2).
"""

import pytest

from repro.algorithms import count_triangles
from repro.apps import TriangleCountComper
from repro.core.api import Comper, SumAggregator, Task
from repro.core.config import GThinkerConfig
from repro.core.containers import (
    comper_of_task_id,
    deserialize_tasks,
    make_task_id,
    serialize_tasks,
    snapshot_tasks,
)
from repro.core.errors import TaskError
from repro.core.job import build_cluster, run_job
from repro.graph import Graph, erdos_renyi, hash_partition


class ScriptedComper(Comper):
    """``compute`` follows the pull script carried in the task context.

    The context is the int tuple of pulls the next compute() call issues
    (a context kind spills and steals encode); the call after that, with
    the script used up, finishes the task.
    """

    def task_spawn(self, v):
        pass  # tasks are injected by the tests, never spawned

    def compute(self, task, frontier):
        if not task.context:
            return False
        task.pull_many(task.context)
        task.context = ()
        return True


def make_cluster(**overrides):
    g = Graph.from_edges([(i, i + 1) for i in range(40)])
    kwargs = dict(
        num_workers=2,
        compers_per_worker=2,
        task_batch_size=1,
        cache_capacity=64,
        cache_buckets=8,
        inline_iteration_limit=1,
    )
    kwargs.update(overrides)
    return build_cluster(ScriptedComper, g, GThinkerConfig(**kwargs)), g


def owned_by(g, worker_id, num_workers=2):
    return [v for v in g.vertices() if hash_partition(v, num_workers) == worker_id]


def pump_comm(cluster, rounds=4):
    for _ in range(rounds):
        for w in cluster.workers:
            w.comm.step()


def park_and_yield(cluster, engine, first_pull, next_pulls):
    """Park a scripted task, deliver its response, resume it to a yield.

    On return the task sits at the tail of ``engine.q_task`` behind two
    filler tasks, so the next ``add_task`` spills exactly this task
    (spill takes the last ``C`` = 1 tasks from the tail).
    """
    task = Task(context=tuple(next_pulls))
    task.pull(first_pull)
    engine.add_task(task)
    assert engine.step()  # pop -> park, mint id, request first_pull
    assert len(engine.t_task) == 1
    pump_comm(cluster)  # request -> serve -> response wakes the task
    assert len(engine.b_task) == 1
    engine.add_task(Task(context=()))
    engine.add_task(Task(context=()))
    assert engine._push()  # resume -> one compute iteration -> inline yield
    assert len(engine.q_task) == 3
    return task


def test_yield_invalidates_task_id():
    cluster, g = make_cluster()
    engine = cluster.workers[0].engines[0]
    v1, v2 = owned_by(g, 1)[:2]
    task = park_and_yield(cluster, engine, v1, [v2])
    assert task.task_id == -1  # the parked-phase id must not survive the yield


def test_serialize_tasks_strips_ids():
    tasks = [Task(context=i) for i in range(3)]
    for i, t in enumerate(tasks):
        t.task_id = make_task_id(2, i)
    out = deserialize_tasks(serialize_tasks(tasks))
    assert all(t.task_id == -1 for t in out)
    # The in-memory originals are invalidated too: they are leaving
    # this owner, so holding on to the id would be just as stale.
    assert all(t.task_id == -1 for t in tasks)


def test_spill_refill_across_compers_routes_arrival_to_new_owner():
    """yield -> spill -> refill by a *different comper* -> park -> arrival.

    Before the fix the task re-parked on comper B under the id minted by
    comper A, and the response for its second pull was routed to A's
    empty pending table (KeyError, surfaced as TaskError).
    """
    cluster, g = make_cluster()
    w0 = cluster.workers[0]
    a, b = w0.engines
    v1, v2 = owned_by(g, 1)[:2]

    task = park_and_yield(cluster, a, v1, [v2])
    a.add_task(Task(context=()))  # overflow: spills the yielded task
    assert len(w0.l_file) == 1

    assert b.step()  # refill from L_file, pop, park under b's own id
    assert len(b.t_task) == 1
    assert len(a.t_task) == 0
    # The refilled copy parked under an id minted by b, not a's old id.
    parked_id = next(iter(b.t_task._entries))
    assert comper_of_task_id(parked_id) == b.global_id
    assert task.task_id == -1  # the spilled original left with no id

    pump_comm(cluster)  # the v2 response must wake the task on b
    assert len(b.t_task) == 0
    assert len(b.b_task) == 1
    assert b._push()  # and b can finish it
    assert len(b.b_task) == 0


def test_steal_reparks_task_under_thief_worker_id():
    """yield -> spill -> steal -> refill on *another worker* -> arrival.

    Before the fix the stolen task kept an id naming a comper of the
    victim worker; the thief's receiver could not resolve it to any
    local engine.
    """
    cluster, g = make_cluster()
    w0, w1 = cluster.workers
    a = w0.engines[0]
    c = w1.engines[0]
    v1 = owned_by(g, 1)[0]
    u = owned_by(g, 0)[0]  # remote from the thief's point of view

    park_and_yield(cluster, a, v1, [u])
    a.add_task(Task(context=()))  # spill the yielded task
    assert len(w0.l_file) == 1

    # The one steal move: ("steal", thief, n) on the master's channel.
    moved = cluster.master._steal_via_master(
        0, 1, cluster.config.task_batch_size)
    assert moved == 1
    w1.comm.step()  # receive the TaskBatchTransfer into w1's L_file
    assert len(w1.l_file) == 1

    assert c.step()  # refill the stolen batch, pop, park under c's id
    assert len(c.t_task) == 1

    pump_comm(cluster)  # the response for u must come back to comper c
    assert len(c.t_task) == 0
    assert len(c.b_task) == 1


def test_remote_set_is_rederived_by_the_worker_that_restarts_the_task():
    """yield -> spill -> steal -> refill on another worker: which pulls
    are remote is relative to the worker, so the per-iteration remote
    list must not travel with the task (same hazard as the stale id),
    and neither may the cache views delivered to it: those are locked
    entries of the parking worker's cache, and neither a checkpoint, a
    spill file nor a steal batch carries them."""
    cluster, g = make_cluster()
    w0, w1 = cluster.workers
    a = w0.engines[0]
    c = w1.engines[0]
    v1, v2 = owned_by(g, 1)[:2]  # remote for w0, local for w1
    u = owned_by(g, 0)[0]        # local for w0, remote for w1

    task = Task(context=(u, v2))
    task.pull(v1)
    a.add_task(task)
    assert a.step()  # park on w0
    assert task.remote_in_flight == [v1]
    assert task.views_in_flight == {}
    pump_comm(cluster)
    # Ready in B_task with the arrived view, locked in w0's cache...
    assert list(task.views_in_flight) == [v1]
    # ...which a checkpoint of the waiting task does not record.
    (restored,) = deserialize_tasks(snapshot_tasks([task]))
    assert restored.views_in_flight is None
    a.add_task(Task(context=()))
    a.add_task(Task(context=()))
    assert a._push()  # resume -> compute pulls [u, v2] -> inline yield
    # Released with the iteration and not recomputed for the yield.
    assert task.remote_in_flight == () and task.pulls_in_flight == []
    assert task.views_in_flight is None
    assert task.pending_pulls() == (u, v2)

    a.add_task(Task(context=()))  # spill the yielded task
    assert cluster.master._steal_via_master(
        0, 1, cluster.config.task_batch_size) == 1
    w1.comm.step()  # TaskBatchTransfer lands in w1's L_file
    assert c.step()  # refill, pop, resolve pulls on w1
    (entry,) = c.t_task._entries.values()
    stolen = entry.task
    assert stolen.pulls_in_flight == [u, v2]
    assert stolen.remote_in_flight == [u]  # w0 would have said [v2]
    assert stolen.views_in_flight == {}  # nothing delivered on w1 yet
    assert w0.remote_of([u, v2]) == [v2]

    pump_comm(cluster)
    assert c._push()  # frontier: u from the cache, v2 from w1's T_local
    assert stolen.remote_in_flight == () and stolen.views_in_flight is None
    for w in cluster.workers:  # every cache lock was released
        w.cache.check_invariants()
        size = w.cache.exact_size()
        assert w.cache.evict(10**9) == size


def test_serialize_tasks_drops_the_remote_list():
    t = Task(context=1)
    t.pull(7)
    t.remote_in_flight = [7]  # as if a park-time list had leaked
    (out,) = deserialize_tasks(serialize_tasks([t]))
    assert t.remote_in_flight == () and out.remote_in_flight == ()
    assert out.views_in_flight is None


def test_misrouted_arrival_raises_contextual_task_error():
    """An arrival whose id resolves to no pending entry is a TaskError
    naming the message, vertex and task id — not a bare KeyError from a
    dict lookup deep in the receiver."""
    cluster, g = make_cluster()
    w0 = cluster.workers[0]
    a = w0.engines[0]
    v1 = owned_by(g, 1)[0]

    task = Task(context=())
    task.pull(v1)
    a.add_task(task)
    assert a.step()  # park + request
    # Corrupt the identity the way the pre-fix yield path did: re-key
    # the pending entry under a different comper's id.
    entry = a.t_task._entries.pop(task.task_id)
    stale = make_task_id(a.global_id + 1, 999)
    a.t_task._entries[stale] = entry
    task.task_id = stale
    with pytest.raises(TaskError) as err:
        pump_comm(cluster)
    assert "ResponseBatch" in str(err.value)
    assert str(v1) in str(err.value)


class HopSumComper(Comper):
    """Greedy max-neighbor walks of ``HOPS`` steps, one per edge endpoint.

    Every compute() pulls exactly one more vertex, so with
    ``inline_iteration_limit=1`` each task yields (and re-queues) after
    every iteration — the heaviest possible traffic on the
    yield/spill/refill/steal identity handoffs.  Spawning one walk per
    neighbor overshoots the queue's refill room, forcing spills.  The
    endpoint sum has a trivial serial oracle.
    """

    HOPS = 3

    def make_aggregator(self):
        return SumAggregator()

    def task_spawn(self, v):
        for n in v.adj:
            task = Task(context=self.HOPS)
            task.pull(n)
            self.add_task(task)

    def compute(self, task, frontier):
        view = frontier[0]
        task.context -= 1
        if task.context == 0:
            self.aggregate(view.id)
            return False
        task.pull(max(view.adj))
        return True


def hop_sum_oracle(g, hops=HopSumComper.HOPS):
    total = 0
    for v in g.vertices():
        for cur in g.neighbors(v):
            for _ in range(hops - 1):
                cur = max(g.neighbors(cur))
            total += cur
    return total


@pytest.mark.parametrize("runtime", ["serial", "threaded"])
def test_yield_heavy_job_end_to_end(runtime):
    g = erdos_renyi(60, 0.1, seed=13)
    cfg = GThinkerConfig(
        num_workers=2,
        compers_per_worker=2,
        task_batch_size=1,
        cache_capacity=48,
        cache_buckets=8,
        inline_iteration_limit=1,
        seed=3,
    )
    result = run_job(HopSumComper, g, cfg, runtime=runtime)
    assert result.aggregate == hop_sum_oracle(g)
    # The run must actually have exercised the risky paths.
    assert result.metrics.get("comper:inline_yields", 0) > 0
    assert result.metrics.get("tasks:spilled", 0) > 0


@pytest.mark.parametrize("runtime", ["serial", "threaded"])
def test_triangle_count_under_aggressive_spill(runtime):
    g = erdos_renyi(70, 0.12, seed=11)
    cfg = GThinkerConfig(
        num_workers=2,
        compers_per_worker=2,
        task_batch_size=2,
        cache_capacity=32,
        cache_buckets=8,
        inline_iteration_limit=1,
        seed=5,
    )
    result = run_job(TriangleCountComper, g, cfg, runtime=runtime)
    assert result.aggregate == count_triangles(g)
