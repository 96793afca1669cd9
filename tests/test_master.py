"""Tests for the master: termination detection, stealing, sync."""

import functools

import pytest

from repro.algorithms import count_triangles
from repro.apps import BundledTriangleCountComper, TriangleCountComper
from repro.core.api import Comper, SumAggregator, Task, VertexView
from repro.core.config import GThinkerConfig
from repro.core.job import build_cluster
from repro.core.controlplane import plan_steals
from repro.core.runtime import SerialRuntime
from repro.graph import erdos_renyi
from tests.oracles import skewed


class NoopApp(Comper):
    def task_spawn(self, v: VertexView) -> None:
        pass  # never creates tasks

    def compute(self, task, frontier):
        return False


class OneTaskPerVertex(Comper):
    def task_spawn(self, v: VertexView) -> None:
        self.add_task(Task(context=v.id))

    def compute(self, task, frontier):
        self.output(task.context)
        return False


def cfg(**kw):
    base = dict(num_workers=3, compers_per_worker=2, task_batch_size=4,
                cache_capacity=64, cache_buckets=8, sync_every_rounds=4)
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture
def graph():
    return erdos_renyi(60, 0.1, seed=9)


def test_termination_requires_double_snapshot(graph):
    cluster = build_cluster(NoopApp, graph, cfg())
    master = cluster.master
    # Vertices not yet spawned: not idle.
    assert master.sync() is False
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    # First idle observation: not yet done (needs two in a row).
    assert master.sync() is False
    assert master.sync() is True
    assert master.done


class PullContext(Comper):
    """Spawns nothing; a task planted through ``add_task`` pulls its
    context vertex, then outputs the id that arrived."""

    def task_spawn(self, v: VertexView) -> None:
        pass

    def compute(self, task, frontier):
        if frontier:
            self.output(frontier[0].id)
            return False
        task.pull(task.context)
        return True


def _closed_cluster(app, graph):
    """A cluster whose spawn cursors are exhausted, nothing spawned."""
    cluster = build_cluster(app, graph, cfg())
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    return cluster


def _park_remote_pull(cluster):
    """Plant a task on worker 0 that pulls a vertex worker 1 owns and
    step its comper once: the task parks in ``T_task``."""
    remote = cluster.workers[1]._spawn_order[0]
    engine = cluster.workers[0].engines[0]
    engine.add_task(Task(context=remote))
    engine.step()
    assert len(engine.t_task) == 1
    return remote


def test_progress_resets_double_snapshot(graph):
    """A task born and retired between two idle sweeps changes the
    totals: the second sweep is a first idle observation again."""
    cluster = _closed_cluster(NoopApp, graph)
    master = cluster.master
    assert master.sync() is False
    engine = cluster.workers[0].engines[0]
    engine.add_task(Task())  # something happened in between
    engine.step()
    assert (engine.born, engine.finished) == (1, 1)
    assert master.sync() is False  # totals changed: not terminal yet
    assert master.sync() is True


def test_in_flight_messages_block_termination(graph):
    """A pull on the wire belongs to a parked task that has not retired."""
    cluster = _closed_cluster(PullContext, graph)
    remote = _park_remote_pull(cluster)
    cluster.workers[0].comm.step()  # the request batch is on the wire
    assert cluster.transport.port(1).queue
    master = cluster.master
    assert master.sync() is False
    assert master.sync() is False  # still in flight
    SerialRuntime().run(cluster)
    assert [rec for w in cluster.workers for rec in w.outputs()] == [remote]


def test_polled_but_undispatched_batch_blocks_termination(graph):
    """A stolen batch between the thief's poll and its dispatch is in no
    container; it must still count as on the wire until it lands, or two
    idle snapshots end the job with its tasks lost."""
    from repro.net import TaskBatchTransfer

    cluster = build_cluster(OneTaskPerVertex, graph, cfg(num_workers=2))
    victim, thief = cluster.workers
    payload, count = victim.spawn_batch_payload(4)
    cluster.transport.send(TaskBatchTransfer(
        src=0, dst=1, payload=payload, num_tasks=count))
    stolen = sorted(victim._spawn_order[:count])
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    (msg,) = cluster.transport.poll(1)  # polled, not yet dispatched
    master = cluster.master
    assert master.sync() is False
    assert master.sync() is False  # the batch is still in flight
    thief.comm._dispatch(msg, 0.0)  # the batch lands in L_file
    SerialRuntime().run(cluster)
    assert sorted(rec for w in cluster.workers for rec in w.outputs()) \
        == stolen


def test_pending_tasks_block_termination(graph):
    cluster = _closed_cluster(PullContext, graph)
    remote = _park_remote_pull(cluster)
    master = cluster.master
    assert master.sync() is False
    assert master.sync() is False
    SerialRuntime().run(cluster)
    assert [rec for w in cluster.workers for rec in w.outputs()] == [remote]


def test_sync_after_done_is_stable(graph):
    cluster = build_cluster(NoopApp, graph, cfg())
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    master = cluster.master
    master.sync()
    master.sync()
    assert master.done
    assert master.sync() is True  # idempotent


# -- termination windows ----------------------------------------------------
#
# Each case calls Master.sync() twice from inside one window where a
# task, or a spawn vertex that will become one, sits in no container:
# neither call may end the job, and the job must still finish with the
# oracle's answer.  A whole-job case opens its window every time a
# comper enters it; a planted case opens it where the task in the window
# is the only work left, so a counter bumped out of order shows.


class WalkComper(Comper):
    """One walk per (spawn vertex, neighbour): each compute() pulls the
    current vertex's largest neighbour, ``HOPS`` hops in all, so with
    ``inline_iteration_limit=1`` every iteration yields; the walk's last
    compute adds a child task that aggregates where the walk ended.
    Spawning one walk per neighbour overshoots the queue's refill room,
    so batches spill and are refilled."""

    HOPS = 3

    def make_aggregator(self):
        return SumAggregator()

    def task_spawn(self, v):
        for n in v.adj:
            self.add_task(self.walk(n))

    @classmethod
    def walk(cls, start):
        task = Task(context=cls.HOPS)
        task.pull(start)
        return task

    def compute(self, task, frontier):
        if not frontier:  # a child: the walk's end
            self.aggregate(task.context)
            return False
        view = frontier[0]
        task.context -= 1
        if task.context == 0:
            self.add_task(Task(context=view.id))
            return False
        task.pull(max(view.adj))
        return True


def walk_end(g, start):
    for _ in range(WalkComper.HOPS - 1):
        start = max(g.neighbors(start))
    return start


def _wrap(obj, name, window, when=None):
    """Open ``window`` before each call of ``obj.name`` that ``when``
    accepts."""
    original = getattr(obj, name)

    def hooked(*args):
        if when is None or when(*args):
            window()
        return original(*args)

    setattr(obj, name, hooked)


def _computing(engine):
    """Record the task each compute() call runs on; returns the record,
    which holds one entry while compute() runs."""
    current = []
    compute = engine.app.compute

    def hooked(task, frontier):
        current[:] = [task]
        try:
            return compute(task, frontier)
        finally:
            current.append(None)

    engine.app.compute = hooked
    return current


def _walk_job(check, install):
    """Every walk of a 2-worker job; ``install(worker, window)`` hooks
    each worker."""
    g = erdos_renyi(30, 0.2, seed=3)
    cluster = build_cluster(WalkComper, g, cfg(
        num_workers=2, task_batch_size=1, inline_iteration_limit=1,
        check_protocols=check))
    _drive(cluster, install)
    want = sum(walk_end(g, n) for v in g.vertices() for n in g.neighbors(v))
    return cluster.master.global_aggregator.value, want


def _planted_walk(check, install):
    """One walk planted on a closed 1-worker cluster: it and its child
    are the only tasks of the job."""
    g = erdos_renyi(30, 0.2, seed=3)
    cluster = build_cluster(WalkComper, g, cfg(
        num_workers=1, inline_iteration_limit=1, check_protocols=check))
    worker = cluster.workers[0]
    worker.set_spawn_cursor(worker.num_local_vertices)
    start = worker._spawn_order[0]
    worker.engines[0].add_task(WalkComper.walk(start))
    _drive(cluster, install)
    return cluster.master.global_aggregator.value, walk_end(g, start)


def _drive(cluster, install):
    opened = []

    def window():
        opened.append(True)
        _two_syncs_stay_open(cluster.master)

    for w in cluster.workers:
        install(w, window)
    SerialRuntime().run(cluster)
    assert opened


def _two_syncs_stay_open(master):
    assert master.sync() is False
    assert master.sync() is False


def _before_task_spawn(worker, window):
    """The cursor has moved past the vertex; task_spawn has not run."""
    for engine in worker.engines:
        _wrap(engine.app, "task_spawn", window)


def _after_take_file(worker, window):
    """The batch has left ``L_file`` and is not in ``Q_task`` yet."""
    take_file = worker.l_file.take_file

    def hooked():
        tasks = take_file()
        if tasks is not None:
            window()
        return tasks

    worker.l_file.take_file = hooked


def _before_children(worker, window):
    """A parent is inside compute() and has not added its child yet."""
    for engine in worker.engines:
        current = _computing(engine)
        _wrap(engine.app, "add_task", window,
              when=lambda task, current=current: len(current) == 1)


def _in_yield_requeue(worker, window):
    """A yielded task is being re-queued: it has left every container
    and is neither born again nor counted as a yield yet."""
    for engine in worker.engines:
        current = _computing(engine)
        _wrap(engine, "add_task", window,
              when=lambda task, current=current: current[:1] == [task])


def _bundle_members_buffered(check, flush_window):
    """Comper 0 holds bundle members while comper 1 has exhausted the
    cursor and mined its own bundle: every container is empty.  Then
    either two syncs run at once, or (``flush_window``) inside comper
    0's spawn_flush, before emit_bundle's add_task."""
    g = erdos_renyi(60, 0.2, seed=5)
    cluster = build_cluster(
        functools.partial(BundledTriangleCountComper, 1000, 10**6), g,
        GThinkerConfig(num_workers=1, compers_per_worker=2,
                       task_batch_size=2, check_protocols=check))
    e0, e1 = cluster.workers[0].engines
    e0.step()
    assert e0.app._bundle
    while e1.step():
        pass
    assert cluster.workers[0].unspawned_count() == 0
    assert cluster.workers[0].tasks_in_memory() == 0
    if flush_window:
        opened = []

        def window():
            opened.append(True)
            _two_syncs_stay_open(cluster.master)

        _wrap(e0.app, "emit_bundle", window)
        SerialRuntime().run(cluster)
        assert opened
    else:
        _two_syncs_stay_open(cluster.master)
        SerialRuntime().run(cluster)
    return cluster.master.global_aggregator.value, count_triangles(g)


_WINDOWS = {
    "bundle_members_buffered":
        functools.partial(_bundle_members_buffered, flush_window=False),
    "spawn_flush_before_add_task":
        functools.partial(_bundle_members_buffered, flush_window=True),
    "cursor_advanced_before_task_spawn":
        functools.partial(_walk_job, install=_before_task_spawn),
    "take_file_batch_left_l_file":
        functools.partial(_walk_job, install=_after_take_file),
    "compute_before_children":
        functools.partial(_planted_walk, install=_before_children),
    "compute_before_children_whole_job":
        functools.partial(_walk_job, install=_before_children),
    "yield_requeue":
        functools.partial(_planted_walk, install=_in_yield_requeue),
    "yield_requeue_whole_job":
        functools.partial(_walk_job, install=_in_yield_requeue),
}


@pytest.mark.parametrize("check", [False, True], ids=["plain", "checked"])
@pytest.mark.parametrize("window", sorted(_WINDOWS))
def test_no_sync_inside_a_window_ends_the_job(window, check):
    got, want = _WINDOWS[window](check)
    assert got == want


def _skewed_graph():
    """Nine in ten of 300 vertices on worker 1 of 3."""
    return skewed(erdos_renyi(300, 0.03, seed=9), 3)


def _steal_cfg():
    return cfg(steal_batches=8, sync_every_rounds=1, task_batch_size=1)


class TestStealing:
    def test_plan_moves_batches_to_idle_worker(self, graph):
        cluster = build_cluster(OneTaskPerVertex, graph, cfg(steal_batches=4))
        # Make worker 0 "done spawning" and others untouched: the gap in
        # remaining-work estimates triggers a steal toward worker 0.
        w0 = cluster.workers[0]
        w0.set_spawn_cursor(w0.num_local_vertices)
        cluster.master.sync()
        # A TaskBatchTransfer should now be in flight (or already have
        # moved vertices off the victims' spawn cursors).
        stolen = cluster.metrics.get("steal:tasks")
        assert stolen > 0
        # ...and on the wire: sent by the victims, not yet dispatched.
        ports = [cluster.transport.port(w.worker_id) for w in cluster.workers]
        assert sum(p.sent_count for p in ports) \
            > sum(p.received_count for p in ports)

    def test_steal_disabled(self, graph):
        cluster = build_cluster(OneTaskPerVertex, graph,
                                cfg(steal_batches=0))
        w0 = cluster.workers[0]
        w0.set_spawn_cursor(w0.num_local_vertices)
        cluster.master.sync()
        assert cluster.metrics.get("steal:batches") == 0

    def test_no_steal_when_balanced(self, graph):
        cluster = build_cluster(OneTaskPerVertex, graph, cfg())
        cluster.master.sync()
        # All workers have comparable unspawned counts: no batch moves.
        assert cluster.metrics.get("steal:batches") == 0

    def test_stolen_tasks_complete_job(self):
        """End-to-end with aggressive stealing off the one worker that
        owns most vertices: outputs must cover every vertex exactly
        once."""
        graph = _skewed_graph()
        cluster = build_cluster(OneTaskPerVertex, graph, _steal_cfg())
        SerialRuntime().run(cluster)
        assert cluster.metrics.get("steal:tasks") > 0
        outputs = [rec for w in cluster.workers for rec in w.outputs()]
        assert sorted(outputs) == sorted(graph.vertices())

    def test_stolen_tc_tasks_match_the_oracle(self):
        """Stolen TC tasks carry their row Γ_>(u) in ``t.g`` through the
        steal payload; the count must still be the oracle's."""
        graph = _skewed_graph()
        cluster = build_cluster(TriangleCountComper, graph, _steal_cfg())
        SerialRuntime().run(cluster)
        assert cluster.metrics.get("steal:tasks") > 0
        assert cluster.master.global_aggregator.value == count_triangles(graph)

    def test_uncounted_steal_births_fail_the_job(self, monkeypatch):
        """A steal collector that skips ``born_for_steals`` makes the
        stolen tasks retire without a birth: the sweep sees more tasks
        retired than born and fails the job at once, instead of waiting
        for ``born == retired`` forever."""
        import time

        from repro.core.errors import GThinkerError
        from repro.core.worker import _CollectorEngine

        monkeypatch.setattr(_CollectorEngine, "add_task",
                            lambda self, task: self.collected.append(task))
        cluster = build_cluster(
            OneTaskPerVertex, erdos_renyi(300, 0.02, seed=9),
            cfg(steal_batches=8, sync_every_rounds=1, task_batch_size=1),
        )
        idle = cluster.workers[0]  # spawned out: the others' tasks move
        idle.set_spawn_cursor(idle.num_local_vertices)
        t0 = time.monotonic()
        with pytest.raises(GThinkerError, match=r"(\d+) tasks retired but "
                                                r"only (\d+) born"):
            SerialRuntime().run(cluster)
        assert time.monotonic() - t0 < 1.0
        assert cluster.metrics.get("steal:tasks") > 0


def test_aggregator_final_sync_before_done(graph):
    """Partials aggregated after the last periodic sync still count."""
    from repro.core.api import SumAggregator

    class LateAggregator(OneTaskPerVertex):
        def make_aggregator(self):
            return SumAggregator()

        def compute(self, task, frontier):
            self.aggregate(1)
            return False

    cluster = build_cluster(LateAggregator, graph, cfg())
    SerialRuntime().run(cluster)
    assert cluster.master.global_aggregator.value == graph.num_vertices


# -- the steal planner: one policy, every runtime --------------------------
#
# ``plan_steals`` is the arithmetic behind every master round (every
# runtime's ``ControlPlaneMaster._round``); its memo on an unchanged
# view is pinned by test_controlplane.
# Each row: per-worker workloads, batch size
# ``C``, ``steal_batches``, the previous plan's (victim, thief) pairs,
# what ``move`` reports per call (None = everything asked for), and the
# expected (victim, thief, amount) calls and returned pairs.

_PLAN_CASES = {
    # gap 100 -> min(gap // 4, steal_batches * C) = 8 per move, twice.
    "amount_is_a_quarter_of_the_gap_capped":
        ([0, 100], 4, 2, set(), None, [(1, 0, 8), (1, 0, 8)], {(1, 0)}),
    # gap 40 -> 10 (< cap 16), gap 20 -> 5, gap 10 -> one batch, gap 2.
    "amount_follows_the_shrinking_gap":
        ([0, 40], 4, 4, set(), None,
         [(1, 0, 10), (1, 0, 5), (1, 0, 4)], {(1, 0)}),
    # gap 12 > 2C but gap // 4 == 3 < C: floor at one batch.
    "at_least_one_batch":
        ([0, 12], 4, 2, set(), None, [(1, 0, 4)], {(1, 0)}),
    "gap_within_two_batches_moves_nothing":
        ([10, 18], 4, 2, set(), None, [], set()),
    "gap_just_over_two_batches_moves":
        ([10, 19], 4, 2, set(), None, [(1, 0, 4)], {(1, 0)}),
    # Last plan moved 1 -> 0; the imbalance flipped, but shipping the
    # work straight back would ping-pong.
    "pair_not_reversed_next_plan":
        ([100, 0], 4, 2, {(1, 0)}, None, [], set()),
    # ...and the plan after that (empty prev_pairs) is free again.
    "reversal_allowed_one_plan_later":
        ([100, 0], 4, 2, set(), None, [(0, 1, 8), (0, 1, 8)], {(0, 1)}),
    "same_direction_not_blocked":
        ([0, 100], 4, 1, {(1, 0)}, None, [(1, 0, 4)], {(1, 0)}),
    "victim_with_nothing_to_give_stops_the_plan":
        ([0, 100], 4, 3, set(), [0], [(1, 0, 12)], set()),
    "short_move_is_accounted_as_moved":
        ([0, 100], 4, 2, set(), [2, 8], [(1, 0, 8), (1, 0, 8)], {(1, 0)}),
    # The extremes are re-picked after every move.
    "three_workers_pick_extremes_each_round":
        ([0, 30, 100], 4, 2, set(), None,
         [(2, 0, 8), (2, 0, 8)], {(2, 0)}),
    "single_worker_never_steals":
        ([50], 4, 2, set(), None, [], set()),
}


@pytest.mark.parametrize("case", sorted(_PLAN_CASES))
def test_plan_steals(case):
    workloads, batch, steal_batches, prev, replies, calls, pairs = (
        _PLAN_CASES[case])
    seen = []

    def move(victim, thief, amount):
        seen.append((victim, thief, amount))
        return amount if replies is None else replies[len(seen) - 1]

    got = plan_steals(
        [(w, wid) for wid, w in enumerate(workloads)],
        batch, steal_batches, frozenset(prev), move,
    )
    assert seen == calls
    assert got == frozenset(pairs)
