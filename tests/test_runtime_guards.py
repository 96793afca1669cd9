"""Runtime safety guards: livelock detection, error propagation, limits."""

import pytest

from repro.core.api import Comper, Task, VertexView
from repro.core.config import GThinkerConfig
from repro.core.errors import GThinkerError, JobAbortedError, TaskError
from repro.core.job import build_cluster, run_job
from repro.core.master import Master
from repro.core.runtime import SerialRuntime, ThreadedRuntime
from repro.core.worker import Worker
from repro.graph import erdos_renyi
from repro.sim import SimulatedRuntime, run_simulated_job


class Quiet(Comper):
    def task_spawn(self, v):
        pass

    def compute(self, task, frontier):
        return False


class Forever(Comper):
    """Every task re-pulls forever: the job can never finish."""

    def task_spawn(self, v: VertexView) -> None:
        t = Task(context=v.id)
        if len(v.adj):
            t.pull(v.adj[0])
            self.add_task(t)

    def compute(self, task, frontier):
        task.pull(frontier[0].id)
        return True  # never finishes


def cfg(**kw):
    base = dict(num_workers=2, compers_per_worker=1, task_batch_size=4,
                cache_capacity=64, cache_buckets=8, sync_every_rounds=8)
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture
def graph():
    return erdos_renyi(30, 0.2, seed=4)


def test_serial_livelock_guard(graph):
    cluster = build_cluster(Forever, graph, cfg())
    with pytest.raises(GThinkerError, match="did not terminate"):
        SerialRuntime(max_rounds=200).run(cluster)


# -- the serial loop counts engine rounds, whatever the burst size -------------


class _SerialRecorder:
    """Records what the serial loop sees: every ``Worker.step_round``
    result, and after which pass over the workers ``Master.sync`` ran."""

    def __init__(self, monkeypatch, cluster):
        self.num_workers = len(cluster.workers)
        self.calls = []
        self.synced_after = []
        real_round, real_sync = Worker.step_round, Master.sync

        def step_round(worker, *args, **kwargs):
            self.calls.append(real_round(worker, *args, **kwargs))
            return self.calls[-1]

        def sync(master):
            self.synced_after.append(len(self.calls) // self.num_workers - 1)
            return real_sync(master)

        monkeypatch.setattr(Worker, "step_round", step_round)
        monkeypatch.setattr(Master, "sync", sync)

    def passes(self):
        """``(engine rounds, worked)`` per pass: the most rounds any
        worker's burst ran, the way the loop counts them."""
        n = self.num_workers
        chunks = [self.calls[i:i + n] for i in range(0, len(self.calls), n)]
        return [(max(r for _, r in c), any(w for w, _ in c)) for c in chunks]


@pytest.fixture
def tc_cluster():
    """A triangle job long enough for several syncs and full bursts."""
    from repro.apps import TriangleCountComper

    return build_cluster(TriangleCountComper, erdos_renyi(150, 0.08, seed=4),
                         cfg())


def test_serial_syncs_once_per_sync_every_engine_rounds(tc_cluster, monkeypatch):
    cluster = tc_cluster
    every = cluster.config.sync_every_rounds
    rec = _SerialRecorder(monkeypatch, cluster)
    SerialRuntime().run(cluster)

    rounds = 0
    boundary, idle = [], []
    for i, (ran, worked) in enumerate(rec.passes()):
        rounds += ran
        if rounds % every == 0:
            boundary.append(i)
        elif not worked:
            idle.append(i)
    # One sync per `every` engine rounds (no burst ran across a
    # boundary) plus one per idle pass: the per-task loop's formula.
    assert len(boundary) == rounds // every
    assert rec.synced_after == sorted(boundary + idle)
    assert max(ran for ran, _ in rec.passes()) == every, "no full burst ran"


@pytest.mark.parametrize("k", [3, 13, 40])
def test_serial_abort_lands_on_engine_round_k(tc_cluster, k):
    """Not after the burst that crossed round k: the burst is clipped."""
    with pytest.raises(JobAbortedError, match=f"after {k} rounds"):
        SerialRuntime().run(tc_cluster, abort_after_rounds=k)


def test_threaded_deadline_guard(graph):
    cluster = build_cluster(Forever, graph, cfg(aggregator_sync_period_s=0.01))
    with pytest.raises(GThinkerError, match="exceeded"):
        ThreadedRuntime(join_timeout_s=1.0).run(cluster)


def test_simulated_event_cap(graph):
    cluster = build_cluster(Forever, graph, cfg(), timed_transport=True)
    with pytest.raises(GThinkerError):
        SimulatedRuntime(max_events=2_000).run(cluster)


def test_simulated_virtual_time_cap(graph):
    cluster = build_cluster(Forever, graph, cfg(), timed_transport=True)
    with pytest.raises(GThinkerError):
        SimulatedRuntime(max_virtual_time_s=0.05).run(cluster)


def test_serial_task_error_includes_task_id(graph):
    class Bad(Forever):
        def compute(self, task, frontier):
            raise KeyError("inner")

    with pytest.raises(TaskError, match="task"):
        run_job(Bad, graph, cfg())


def test_empty_graph_job_terminates():
    from repro.graph import Graph

    res = run_job(Quiet, Graph(), cfg())
    assert res.outputs == []


def test_app_that_spawns_nothing_terminates(graph):
    res = run_job(Quiet, graph, cfg())
    assert res.aggregate is None
    assert res.metrics.get("tasks:created", 0) == 0
