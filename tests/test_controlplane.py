"""The process/cluster control plane (``core/controlplane.py``).

Covers task conservation when a node answers ``steal`` (a property
test, also with protocol checking on — the ``runtime='checked'``
configuration), wake-on-first-message in ``_wait_for_wake``,
steal-plan memoization, prompt completion under a long sync period,
and the control-plane timers.
"""

import queue
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import count_triangles
from repro.apps import TriangleCountComper
from repro.core import GThinkerConfig, run_job
from repro.core.api import Task
from repro.core.containers import deserialize_tasks
from repro.core.controlplane import (
    ControlPlaneMaster,
    FailureInjector,
    NodeSession,
    NodeStatus,
)
from repro.core.metrics import MetricsRegistry
from repro.core.worker import Worker
from repro.graph import erdos_renyi
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


def test_config_has_no_control_plane_knob():
    with pytest.raises(TypeError):
        GThinkerConfig(num_workers=2, control_plane="sweep")


# -- steals never duplicate or drop a task (property test) ----------------
#
# A two-node rig driven entirely through NodeSession.handle: the victim
# answers ``steal`` commands by shipping L_file batches over the data
# transport and replying ``("stolen", moved)``; after the thief's comm
# loop lands them, the task-id multiset across both nodes must equal the
# original.  Parametrized over check_protocols — True is exactly the
# extra validation ``runtime='checked'`` switches on (see job.py) — so
# the conservation property also holds under the checked configuration.


def _two_node_rig(tmpdir, check_protocols):
    config = cfg(compers_per_worker=1, check_protocols=check_protocols)
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
                        metrics)
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
def test_steal_conserves_task_multiset(check_protocols, batch_sizes,
                                       steal_count, max_tasks):
    tmpdir = tempfile.mkdtemp(prefix="steal-")
    try:
        workers, sessions = _two_node_rig(tmpdir, check_protocols)
        victim, thief = workers
        expected, next_ctx = [], 0
        for size in batch_sizes:
            tasks = [Task(context=next_ctx + i) for i in range(size)]
            next_ctx += size
            expected.extend(t.context for t in tasks)
            victim.l_file.spill(tasks)
        moved = []
        for _ in range(steal_count):
            tag, count = sessions[0].handle(("steal", 1, max_tasks))
            assert tag == "stolen"
            moved.append(count)
        # One spilled batch per steal while L_file lasts, then nothing
        # (the victim has no unspawned rows to cut a fresh batch from).
        assert sum(1 for m in moved if m) == min(steal_count, len(batch_sizes))
        # Land whatever was shipped; each batch is one inbox message.
        while thief.comm.step():
            pass
        landed = _drain_lfile_contexts(thief)
        assert len(landed) == sum(moved)
        survivors = _drain_lfile_contexts(victim) + landed
        assert sorted(survivors) == sorted(expected)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


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
    assert master._note_oob(("wake", 0))
    t0 = time.perf_counter()
    assert master._wait_for_wake(10.0)
    assert time.perf_counter() - t0 < 1.0
    assert master.drain_calls == []  # never reached the backend
    # The flag is one-shot: the next wait really blocks on the backend.
    assert not master._wait_for_wake(0.0)
    assert master.drain_calls == [0.0]
    # A synchronous reply is not consumed as out-of-band.
    assert not master._note_oob(("stolen", 4))
    assert not master._pending_wake


def test_idle_burst_job_does_not_wait_out_the_sync_period(graph):
    """With a 5 s sync period a short job must still finish in a small
    fraction of one period: a drained node's wake edge brings the master
    back at once, so completion latency is bounded by work, not by the
    sweep cadence."""
    config = cfg(aggregator_sync_period_s=5.0)
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
    master._plan_steals(_statuses([0, 100]))
    first_round = len(master.sent)
    assert first_round > 0
    assert all(cmd[0] == "steal" for _nid, cmd in master.sent)
    # Identical (fresh) statuses: the sorted view is unchanged, so the
    # whole plan is skipped and counted.
    master._plan_steals(_statuses([0, 100]))
    assert len(master.sent) == first_round
    assert master.metrics.get("control:steal_plan_skipped") == 1
    # A changed estimate recomputes.
    master._plan_steals(_statuses([0, 300]))
    assert len(master.sent) > first_round
    assert master.metrics.get("control:steal_plan_skipped") == 1


# -- control-plane timers and the typed accessor ---------------------------


def test_master_timers_reported_on_process(graph):
    res = run_job(TriangleCountComper, graph, cfg(), runtime="process")
    stats = res.control_plane_stats
    assert stats.master_sweep_s > 0.0
    assert stats.control_idle_s >= 0.0
    assert "time:master_sweep_s" in res.metrics
    assert "time:control_idle_s" in res.metrics
