"""The async control plane (``control_plane='async'``): push-based
status, master-bypass (``dsteal``) stealing, and the event-driven
master loop, checked against the legacy synchronous sweep oracle.

Covers the PR-10 contract: identical answers to ``'sweep'`` on TC, MCF
and GM under the process and cluster runtimes, task conservation under
direct steals (a property test, also with protocol checking on — the
``runtime='checked'`` configuration), cancellation of a running async
job, the wake-on-first-message fix to ``_wait_for_wake``, steal-plan
memoization, and the new control-plane timers on both modes.
"""

import functools
import queue
import random
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    count_triangles,
    max_clique_reference,
    triangle_query,
)
from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.apps.match import SubgraphMatchComper
from repro.core import GThinkerConfig, Session, run_job
from repro.core.api import Comper, SumAggregator, Task
from repro.core.containers import deserialize_tasks
from repro.core.controlplane import (
    ControlPlaneMaster,
    FailureInjector,
    NodeSession,
    NodeStatus,
)
from repro.core.errors import JobCancelledError
from repro.core.metrics import MetricsRegistry
from repro.core.session import JOB_CANCELLED, JOB_RUNNING
from repro.core.worker import Worker
from repro.graph import Graph, erdos_renyi
from repro.graph.partition import hash_partition
from repro.net.transport import ProcessTransport


def cfg(**kw):
    base = dict(
        num_workers=2, compers_per_worker=2, task_batch_size=4,
        cache_capacity=256, cache_buckets=16,
        aggregator_sync_period_s=0.005,
        control_reply_timeout_s=30.0,
    )
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.15, seed=11)


def test_config_rejects_unknown_control_plane():
    with pytest.raises(ValueError):
        GThinkerConfig(num_workers=2, control_plane="bogus")


# -- answers match the serial oracle under both runtimes ------------------


GM_FACTORY = functools.partial(SubgraphMatchComper, triangle_query())


@pytest.mark.parametrize("runtime", ["process", "cluster"])
def test_async_tc_matches_oracle(graph, runtime):
    expected = count_triangles(graph)
    res = run_job(TriangleCountComper, graph,
                  cfg(control_plane="async"), runtime=runtime)
    assert res.aggregate == expected
    assert res.metrics.get("control:status_pushes", 0) > 0


@pytest.mark.parametrize("runtime", ["process", "cluster"])
def test_async_mcf_matches_oracle(graph, runtime):
    ref = max_clique_reference(graph)
    res = run_job(MaxCliqueComper, graph,
                  cfg(control_plane="async"), runtime=runtime)
    clique = sorted(res.aggregate)
    assert len(clique) == len(ref)
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            assert v in graph.neighbors(u)


@pytest.mark.parametrize("runtime", ["process", "cluster"])
def test_async_gm_matches_oracle(graph, runtime):
    oracle = run_job(GM_FACTORY, graph, cfg(), runtime="serial")
    res = run_job(GM_FACTORY, graph,
                  cfg(control_plane="async"), runtime=runtime)
    assert res.aggregate == oracle.aggregate


# -- direct steals never duplicate or drop a task (property test) ---------
#
# A two-node rig driven entirely through NodeSession.handle: the victim
# answers fire-and-forget ``dsteal`` commands by shipping L_file batches
# straight over the data transport; after the thief's comm loop lands
# them, the task-id multiset across both nodes must equal the original.
# Parametrized over check_protocols — True is exactly the extra
# validation ``runtime='checked'`` switches on (see job.py) — so the
# conservation property also holds under the checked configuration.


def _two_node_rig(tmpdir, check_protocols):
    config = cfg(compers_per_worker=1, control_plane="async",
                 check_protocols=check_protocols)
    queues = [queue.Queue(), queue.Queue()]
    workers, sessions = [], []
    for wid in (0, 1):
        metrics = MetricsRegistry()
        transport = ProcessTransport(wid, queues, metrics=metrics)
        spill = Path(tmpdir) / f"w{wid}"
        spill.mkdir()
        worker = Worker(
            worker_id=wid, num_workers=2, config=config,
            app_factory=TriangleCountComper, transport=transport,
            metrics=metrics, spill_dir=spill,
        )
        worker.load_rows([])
        workers.append(worker)
        sessions.append(
            NodeSession(worker, transport, FailureInjector(None, wid, 0),
                        metrics, config)
        )
    return workers, sessions


def _drain_lfile_contexts(worker):
    contexts = []
    while True:
        info = worker.l_file.take_payload()
        if info is None:
            break
        payload, num = info
        tasks = deserialize_tasks(payload)
        assert len(tasks) == num
        contexts.extend(t.context for t in tasks)
    return contexts


@pytest.mark.parametrize("check_protocols", [False, True])
@settings(deadline=None, max_examples=25)
@given(
    batch_sizes=st.lists(st.integers(min_value=1, max_value=6),
                         min_size=1, max_size=4),
    steal_count=st.integers(min_value=1, max_value=8),
    max_tasks=st.integers(min_value=1, max_value=8),
)
def test_dsteal_conserves_task_multiset(check_protocols, batch_sizes,
                                        steal_count, max_tasks):
    tmpdir = tempfile.mkdtemp(prefix="dsteal-")
    try:
        workers, sessions = _two_node_rig(tmpdir, check_protocols)
        victim, thief = workers
        expected, next_ctx = [], 0
        for size in batch_sizes:
            tasks = [Task(context=next_ctx + i) for i in range(size)]
            next_ctx += size
            expected.extend(t.context for t in tasks)
            victim.l_file.spill(tasks)
        for _ in range(steal_count):
            reply = sessions[0].handle(("dsteal", 1, max_tasks))
            # The victim always pushes a corrective status back, even
            # when it had nothing left to give.
            assert reply[0] == "status"
            assert isinstance(reply[1], NodeStatus)
        # Land whatever was shipped; each batch is one inbox message.
        while thief.comm.step():
            pass
        survivors = _drain_lfile_contexts(victim) + _drain_lfile_contexts(thief)
        assert sorted(survivors) == sorted(expected)
        direct = sessions[0].metrics.get("steal:direct_batches")
        assert direct == min(steal_count, len(batch_sizes))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


# -- a steal-heavy async job actually uses the direct path ----------------


def _skewed_graph(heavy_worker, num_workers=2):
    """Same construction as the fault-matrix steal workload: one worker
    owns a dense 48-vertex partition whose MCF tasks decompose and stall
    the spawn cursor, making it the deterministic first steal victim."""
    heavy, light = [], []
    v = 0
    while len(heavy) < 48 or len(light) < 8:
        owner = hash_partition(v, num_workers)
        (heavy if owner == heavy_worker else light).append(v)
        v += 1
    ids = heavy[:48] + light[:8]
    heavy_set = set(heavy[:48])
    rng = random.Random(13)
    edges = [(ids[i], ids[j])
             for i in range(len(ids)) for j in range(i + 1, len(ids))
             if rng.random() < (0.5 if ids[i] in heavy_set
                                and ids[j] in heavy_set else 0.15)]
    return Graph.from_edges(edges, extra_vertices=ids)


def test_async_steals_bypass_master():
    g = _skewed_graph(heavy_worker=0)
    config = cfg(task_batch_size=1, decompose_threshold=4,
                 control_plane="async")
    res = run_job(MaxCliqueComper, g, config, runtime="process")
    ref = max_clique_reference(g)
    assert len(res.aggregate) == len(ref)
    stats = res.control_plane_stats
    assert stats.direct_steal_batches > 0
    assert stats.status_pushes > 0
    # Every direct batch is also counted in the generic steal counters.
    assert res.metrics.get("steal:batches", 0) >= stats.direct_steal_batches


# -- cancellation of a running async job ----------------------------------


class SlowComper(Comper):
    """A long steady burn (module level: runtime='process' pickles it)."""

    def __init__(self, iters: int = 2000, delay: float = 0.002) -> None:
        super().__init__()
        self.iters = iters
        self.delay = delay

    def task_spawn(self, v) -> None:
        if v.id < 4:
            t = Task(context=0)
            t.pull(v.id)
            self.add_task(t)

    def compute(self, task, frontier) -> bool:
        time.sleep(self.delay)
        task.context += 1
        if task.context >= self.iters:
            self.aggregate(1)
            return False
        task.pull(frontier[0].id)
        return True

    def make_aggregator(self):
        return SumAggregator()


def test_async_running_job_cancels(graph):
    config = cfg(compers_per_worker=1, sync_every_rounds=2,
                 inline_iteration_limit=2, control_plane="async")
    with Session(graph, config, runtime="process") as session:
        handle = session.submit(SlowComper)
        deadline = time.monotonic() + 10
        while handle.status() != JOB_RUNNING:
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.005)
        time.sleep(0.05)
        assert handle.cancel()
        with pytest.raises(JobCancelledError):
            handle.result(timeout=30)
        assert handle.status() == JOB_CANCELLED
        # The session survives: a follow-up async job runs clean.
        after = session.submit(TriangleCountComper)
        assert after.result(timeout=60).aggregate == count_triangles(graph)


# -- _wait_for_wake: wake on the first pending message --------------------


class _RecordingMaster(ControlPlaneMaster):
    """A master with plumbing stubbed for unit-level protocol tests."""

    def __init__(self, config, replies=None):
        super().__init__(config, TriangleCountComper, join_timeout_s=30.0)
        self.sent = []
        self._replies = replies or (lambda cmd: None)
        self.drain_calls = []

    @property
    def num_nodes(self):
        return self.config.num_workers

    def _send(self, node_id, cmd):
        self.sent.append((node_id, cmd))

    def _recv(self, node_id, timeout=None):
        return self._replies(self.sent[-1][1])

    def _drain_events(self, timeout):
        self.drain_calls.append(timeout)


def test_pending_wake_skips_the_blocking_drain():
    """A wake consumed out-of-band (e.g. during a sweep's _recv) must
    make the next _wait_for_wake return immediately instead of sleeping
    out its full timeout — the idle-then-burst regression."""
    master = _RecordingMaster(cfg())
    assert master._note_oob(0, ("wake", 0))
    t0 = time.perf_counter()
    assert master._wait_for_wake(10.0)
    assert time.perf_counter() - t0 < 1.0
    assert master.drain_calls == []  # never reached the backend
    # The flag is one-shot: the next wait really blocks on the backend.
    assert not master._wait_for_wake(0.0)
    assert master.drain_calls == [0.0]


def test_status_push_counts_and_folds_once():
    master = _RecordingMaster(cfg())
    master._status_table = [None] * 2
    master._status_heard = [0.0] * 2
    status = NodeStatus(worker_id=1, tasks_in_memory=0, tasks_on_disk=0,
                        unspawned=0, outgoing=0, sent=3, received=3,
                        progress=7, workload=0, partial=5)
    assert master._note_oob(1, ("status", status))
    assert master.global_aggregator.value == 5
    assert status.partial is None  # folded exactly once, then cleared
    assert master._status_table[1] is status
    assert master._status_dirty
    assert master.metrics.get("control:status_pushes") == 1
    # A synchronous reply is not consumed as OOB.
    assert not master._note_oob(0, ("stolen", 4))


@pytest.mark.parametrize("control_plane", ["sweep", "async"])
def test_idle_burst_job_does_not_wait_out_the_sync_period(graph,
                                                          control_plane):
    """With a 5 s sync period a short job must still finish in a small
    fraction of one period: drained nodes wake the master immediately
    in both modes (wake edge / status push), so completion latency is
    bounded by work, not by the sweep cadence."""
    config = cfg(aggregator_sync_period_s=5.0, control_plane=control_plane)
    t0 = time.monotonic()
    res = run_job(TriangleCountComper, graph, config, runtime="process")
    assert res.aggregate == count_triangles(graph)
    assert time.monotonic() - t0 < 4.0


# -- steal-plan memoization ------------------------------------------------


def _statuses(workloads):
    return [
        NodeStatus(worker_id=i, tasks_in_memory=1, tasks_on_disk=0,
                   unspawned=0, outgoing=0, sent=0, received=0,
                   progress=0, workload=w, partial=None)
        for i, w in enumerate(workloads)
    ]


def test_plan_steals_memoizes_unchanged_statuses():
    config = cfg(task_batch_size=4, steal_batches=2)
    master = _RecordingMaster(config, replies=lambda cmd: ("stolen", cmd[2]))
    master._plan_steals(_statuses([0, 100]), master._steal_via_master)
    first_round = len(master.sent)
    assert first_round > 0
    assert all(cmd[0] == "steal" for _nid, cmd in master.sent)
    # Identical (fresh) statuses: the sorted view is unchanged, so the
    # whole plan is skipped and counted.
    master._plan_steals(_statuses([0, 100]), master._steal_via_master)
    assert len(master.sent) == first_round
    assert master.metrics.get("control:steal_plan_skipped") == 1
    # A changed estimate recomputes.
    master._plan_steals(_statuses([0, 300]), master._steal_via_master)
    assert len(master.sent) > first_round
    assert master.metrics.get("control:steal_plan_skipped") == 1


def test_plan_steals_async_memoizes_and_fires_and_forgets():
    config = cfg(task_batch_size=4, steal_batches=2)
    master = _RecordingMaster(config)
    # Inside the hysteresis band: nothing to send, but the key is
    # recorded so the next identical table skips the plan entirely.
    master._status_table = _statuses([10, 12])
    master._plan_steals(master._status_table, master._steal_direct)
    assert master.sent == []
    master._plan_steals(master._status_table, master._steal_direct)
    assert master.metrics.get("control:steal_plan_skipped") == 1
    # A real gap publishes dsteal commands without any _recv round-trip
    # and optimistically discounts the victim's workload.
    master._status_table = _statuses([0, 100])
    master._plan_steals(master._status_table, master._steal_direct)
    assert master.sent and all(cmd[0] == "dsteal"
                               for _nid, cmd in master.sent)
    assert master._status_table[1].workload < 100


# -- control-plane timers and the typed accessor ---------------------------


@pytest.mark.parametrize("control_plane", ["sweep", "async"])
def test_master_timers_reported_on_both_modes(graph, control_plane):
    res = run_job(TriangleCountComper, graph,
                  cfg(control_plane=control_plane), runtime="process")
    stats = res.control_plane_stats
    assert stats.master_sweep_s > 0.0
    assert stats.control_idle_s >= 0.0
    assert "time:master_sweep_s" in res.metrics
    assert "time:control_idle_s" in res.metrics
    if control_plane == "async":
        assert stats.status_pushes > 0
    else:
        assert stats.status_pushes == 0


def test_async_master_protocol_time_at_most_the_sweeps():
    """The gate the retired ``bench_pullpath.py`` carried: on one fixed
    process job (MCF, cache holding the working set) the async master
    spends no more time on protocol work than the probing sweep master,
    which blocks on every node's reply each round.  Measured ~50x apart,
    so scheduler jitter cannot flip it."""
    n = 1500
    g = erdos_renyi(n, 40 / (n - 1), seed=42)
    sweep_s = {}
    for mode in ("sweep", "async"):
        res = run_job(
            MaxCliqueComper, g,
            GThinkerConfig(num_workers=2, compers_per_worker=1,
                           task_batch_size=64, cache_capacity=4 * n,
                           cache_buckets=64, decompose_threshold=100,
                           control_plane=mode),
            runtime="process",
        )
        assert len(res.aggregate) == len(max_clique_reference(g))
        sweep_s[mode] = res.control_plane_stats.master_sweep_s
    assert 0.0 < sweep_s["async"] <= sweep_s["sweep"], sweep_s
