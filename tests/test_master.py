"""Tests for the master: termination detection, stealing, sync."""

import pytest

from repro.core.api import Comper, Task, VertexView
from repro.core.config import GThinkerConfig
from repro.core.job import build_cluster
from repro.core.controlplane import plan_steals
from repro.core.runtime import SerialRuntime
from repro.graph import erdos_renyi


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


def test_progress_resets_double_snapshot(graph):
    cluster = build_cluster(NoopApp, graph, cfg())
    master = cluster.master
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    assert master.sync() is False
    cluster.workers[0].note_progress()  # something happened in between
    assert master.sync() is False  # progress changed: not terminal yet
    assert master.sync() is True


def test_in_flight_messages_block_termination(graph):
    from repro.net import RequestBatch

    cluster = build_cluster(NoopApp, graph, cfg())
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    cluster.transport.send(RequestBatch(src=0, dst=1, vertex_ids=[1]))
    master = cluster.master
    assert master.sync() is False
    assert master.sync() is False  # still in flight
    # Dropped by the test: counting it received empties the wire.
    (msg,) = cluster.transport.poll(1)
    cluster.transport.mark_received(1)
    cluster.workers[1].note_progress()
    master.sync()
    assert master.sync() is True


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
    cluster = build_cluster(NoopApp, graph, cfg())
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    engine = cluster.workers[0].engines[0]
    engine.t_task.insert(1, Task(), req=1)
    master = cluster.master
    assert master.sync() is False
    assert master.sync() is False


def test_sync_after_done_is_stable(graph):
    cluster = build_cluster(NoopApp, graph, cfg())
    for w in cluster.workers:
        w.set_spawn_cursor(w.num_local_vertices)
    master = cluster.master
    master.sync()
    master.sync()
    assert master.done
    assert master.sync() is True  # idempotent


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

    def test_stolen_tasks_complete_job(self, graph):
        """End-to-end with aggressive stealing: outputs must cover every
        vertex exactly once."""
        cluster = build_cluster(
            OneTaskPerVertex, graph, cfg(steal_batches=8, sync_every_rounds=2)
        )
        SerialRuntime().run(cluster)
        outputs = [rec for w in cluster.workers for rec in w.outputs()]
        assert sorted(outputs) == sorted(graph.vertices())


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
