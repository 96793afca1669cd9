"""Fault tolerance of ``runtime="process"``: sync-barrier checkpoints,
worker-loss recovery, failure injection, and the CI kill-worker matrix.

Every end-to-end test here compares a job with an injected worker kill
against the no-failure oracle — same aggregate, same output multiset —
and asserts via the ``ft:recoveries`` metric that the kill actually
fired (a plan that never triggers would make the comparison vacuous).
"""

import functools
import random
import time

import pytest

from repro.algorithms import count_triangles, max_clique_reference
from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.core import (
    FailurePlanConfig,
    GThinkerConfig,
    JobAbortedError,
    WorkerProcessError,
    resume_job,
    run_job,
)
from repro.core.procruntime import _ProcessMaster
from repro.graph import Graph, erdos_renyi
from repro.graph.partition import hash_partition
from repro.net.transport import ProcessTransport


def cfg(**kw):
    base = dict(
        num_workers=2, compers_per_worker=2, task_batch_size=4,
        cache_capacity=256, cache_buckets=16, decompose_threshold=16,
        aggregator_sync_period_s=0.005,
        worker_restart_backoff_s=0.0,       # fast tests
        control_reply_timeout_s=30.0,
    )
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(70, 0.12, seed=11)


#: Picklable output-listing factory (runtime="process" ships it).
TC_LISTING = functools.partial(TriangleCountComper, list_triangles=True)


class ExplodingComper(TriangleCountComper):
    """App whose compute always raises (the unrecoverable case)."""

    def compute(self, task, frontier):
        raise RuntimeError("boom at compute")


class CorruptingComper(TriangleCountComper):
    """App whose worker 0 drops one garbage payload on worker 1's
    data-plane inbox — mp queue or TCP socket, whichever the runtime
    built — before spawning its first task."""

    def task_spawn(self, v):
        worker = self._engine.worker
        if worker.worker_id == 0 and not getattr(worker, "_corrupted", False):
            worker._corrupted = True
            junk = b"\x93neither GTWIRE1 nor anything else"
            transport = worker.transport
            if isinstance(transport, ProcessTransport):
                transport._queues[1].put(junk)
            else:
                transport._connect(1).sendall(
                    len(junk).to_bytes(8, "little") + junk)
        super().task_spawn(v)


def _assert_is_max_clique(graph, clique):
    ref = max_clique_reference(graph)
    assert len(clique) == len(ref)
    members = sorted(clique)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            assert v in graph.neighbors(u)


# -- recovery matches the no-failure oracle ------------------------------


def test_kill_at_sync_with_checkpoints_matches_oracle(graph):
    """Worker 1 dies mid-sync after a barrier checkpoint was taken; the
    job rolls back to the barrier and still produces the oracle answer
    with no duplicated or lost outputs."""
    oracle = run_job(TC_LISTING, graph, cfg(), runtime="serial")
    plan = FailurePlanConfig(kill_worker=1, when="sync", at_count=2)
    res = run_job(TC_LISTING, graph,
                  cfg(failure_plan=plan, checkpoint_every_syncs=1),
                  runtime="process")
    assert res.aggregate == count_triangles(graph) == oracle.aggregate
    assert sorted(res.outputs) == sorted(oracle.outputs)
    assert res.metrics.get("ft:recoveries", 0) == 1
    assert res.metrics.get("ft:checkpoints", 0) >= 1


def test_kill_without_checkpoints_restarts_fresh(graph):
    """With no barrier taken yet the rollback point is "from scratch":
    the job restarts cleanly (no double-counted aggregate, no duplicate
    outputs from the dead incarnation's queues)."""
    oracle = run_job(TC_LISTING, graph, cfg(), runtime="serial")
    plan = FailurePlanConfig(kill_worker=0, when="sync", at_count=1)
    res = run_job(TC_LISTING, graph, cfg(failure_plan=plan),
                  runtime="process")
    assert res.aggregate == count_triangles(graph)
    assert sorted(res.outputs) == sorted(oracle.outputs)
    assert res.metrics.get("ft:recoveries", 0) == 1


def test_random_plan_recovers_mcf(graph):
    """A seeded random plan (probability 1: every worker flips heads at
    its first sync) still converges to the oracle clique."""
    plan = FailurePlanConfig(when="random", probability=1.0, seed=3)
    res = run_job(MaxCliqueComper, graph,
                  cfg(failure_plan=plan, checkpoint_every_syncs=1),
                  runtime="process")
    _assert_is_max_clique(graph, res.aggregate)
    assert res.metrics.get("ft:recoveries", 0) >= 1


# -- resume from a process-written shard ---------------------------------


def test_process_shard_resumes_on_process_and_serial(graph, tmp_path):
    """An aborted process job leaves a barrier shard that both the
    process runtime and the serial runtime can resume (shards are
    runtime-portable)."""
    ck = str(tmp_path / "job.ckpt")
    with pytest.raises(JobAbortedError):
        run_job(TriangleCountComper, graph,
                cfg(checkpoint_every_syncs=1), runtime="process",
                checkpoint_path=ck, abort_after_rounds=3)
    expected = count_triangles(graph)
    resumed_proc = resume_job(TriangleCountComper, graph, ck, cfg(),
                              runtime="process")
    assert resumed_proc.aggregate == expected
    resumed_serial = resume_job(TriangleCountComper, graph, ck, cfg(),
                                runtime="serial")
    assert resumed_serial.aggregate == expected


# -- failure classification ----------------------------------------------


def test_worker_loss_fatal_when_restarts_exhausted(graph):
    """max_worker_restarts=0 restores the pre-fault-tolerance behaviour:
    the loss surfaces as a *recoverable* WorkerProcessError (the caller
    could retry with restarts enabled)."""
    plan = FailurePlanConfig(kill_worker=1, when="sync", at_count=1)
    with pytest.raises(WorkerProcessError) as ei:
        run_job(TriangleCountComper, graph,
                cfg(failure_plan=plan, max_worker_restarts=0),
                runtime="process")
    assert ei.value.recoverable


def test_rearmed_plan_exhausts_restarts(graph):
    """rearm=True keeps killing after every recovery, so the retry
    budget runs out and the last loss is re-raised."""
    plan = FailurePlanConfig(kill_worker=0, when="sync", at_count=1,
                             rearm=True)
    with pytest.raises(WorkerProcessError) as ei:
        run_job(TriangleCountComper, graph,
                cfg(failure_plan=plan, max_worker_restarts=2),
                runtime="process")
    assert ei.value.recoverable


def test_app_error_is_not_recoverable(graph):
    """A worker that *reports* an exception is a bug, not a machine
    loss: no rollback is attempted, the traceback is surfaced."""
    with pytest.raises(WorkerProcessError) as ei:
        run_job(ExplodingComper, graph, cfg(), runtime="process")
    assert not ei.value.recoverable
    assert "boom at compute" in str(ei.value)


@pytest.mark.parametrize("runtime", ["process", "cluster"])
def test_reported_errors_are_classified_alike_on_both_runtimes(graph, runtime):
    """Every node runs the one serve loop, so its error report carries
    the same classification on ``process`` and ``cluster``: a corrupt
    data-plane payload is environment damage a rollback clears
    (recoverable), an app exception would recur (final)."""
    with pytest.raises(WorkerProcessError) as ei:
        run_job(CorruptingComper, graph, cfg(max_worker_restarts=0),
                runtime=runtime)
    assert ei.value.recoverable is True
    assert ei.value.worker_id == 1
    assert "WireDecodeError" in str(ei.value)

    with pytest.raises(WorkerProcessError) as ei:
        run_job(ExplodingComper, graph, cfg(), runtime=runtime)
    assert ei.value.recoverable is False
    assert "boom at compute" in str(ei.value)


# -- S3: the _send error path (unit level, stubbed pipes) ----------------


class _BrokenConn:
    """A control pipe whose send() always fails; recv() replays a
    scripted reply sequence, then reports EOF."""

    def __init__(self, replies):
        self._replies = list(replies)

    def send(self, cmd):
        raise BrokenPipeError("worker side closed")

    def poll(self, timeout=0):
        return True

    def recv(self):
        if not self._replies:
            raise EOFError
        return self._replies.pop(0)


def _master_with_conn(conn):
    master = object.__new__(_ProcessMaster)
    master.conns = [conn]
    return master


def test_send_surfaces_error_report_behind_stale_replies():
    """S3 regression: on a broken pipe, _send must drain past stale
    pre-death replies to the worker's error report instead of
    mislabelling an app bug as a recoverable machine loss."""
    conn = _BrokenConn([
        ("stolen", 2),  # a stale steal reply sent before the death
        ("error", 0, "ValueError", "Traceback (most recent call last): boom",
         False),
    ])
    with pytest.raises(WorkerProcessError) as ei:
        _master_with_conn(conn)._send(0, ("sync", None))
    assert not ei.value.recoverable
    assert "ValueError" in str(ei.value)
    assert "boom" in str(ei.value)
    assert isinstance(ei.value.__cause__, BrokenPipeError)


def test_send_to_silently_dead_worker_is_recoverable():
    """No error report in the pipe → a machine loss, with the original
    pipe error chained for debugging."""
    with pytest.raises(WorkerProcessError) as ei:
        _master_with_conn(_BrokenConn([]))._send(0, ("quiesce",))
    assert ei.value.recoverable
    assert isinstance(ei.value.__cause__, BrokenPipeError)


class _LateWakeConn:
    """A control pipe that delivers one ``("wake", 0)`` after ``delay``
    seconds and then stays silent (a hung worker that did drain once)."""

    def __init__(self, delay):
        self._wake_at = time.monotonic() + delay
        self._delivered = False

    def _ready(self):
        return not self._delivered and time.monotonic() >= self._wake_at

    def poll(self, timeout=0):
        end = time.monotonic() + timeout
        while not self._ready() and time.monotonic() < end:
            time.sleep(0.001)
        return self._ready()

    def recv(self):
        self._delivered = True
        return ("wake", 0)


class _LiveProc:
    def is_alive(self):
        return True


def test_recv_deadline_survives_a_wake():
    """A wake ahead of the reply must not restart the reply timeout: a
    worker that wakes once and then hangs is reported within one
    ``control_reply_timeout_s``, not two."""
    timeout = 0.4
    master = _master_with_conn(_LateWakeConn(delay=0.7 * timeout))
    master.config = cfg(control_reply_timeout_s=timeout)
    master.procs = [_LiveProc()]
    t0 = time.monotonic()
    with pytest.raises(WorkerProcessError) as ei:
        master._recv(0)
    elapsed = time.monotonic() - t0
    assert ei.value.recoverable
    assert master._pending_wake  # the wake was consumed, not dropped
    assert elapsed < 1.5 * timeout, elapsed


# -- the CI kill-worker matrix -------------------------------------------
#
# Each row kills one worker at one lifecycle point (mid-spawn cursor,
# post-spill, on a steal command) and checks the recovered job against
# the no-failure oracle.  Run standalone with `pytest -m faultmatrix`.


def _spill_graph():
    # The proven spill-forcing workload: batch size 1 → Q_task capacity
    # 3, so MCF decomposition overflows to disk on both workers.
    return erdos_renyi(60, 0.18, seed=5)


def _skewed_graph(heavy_worker, num_workers=2):
    """A graph whose vertex ids hash so one worker owns ~6x the
    vertices of the other, with a *dense* heavy partition: each heavy
    task decomposes, the resulting subtasks trip the pending threshold
    (``D = 8C``) and stall the spawn cursor, so the heavy worker's
    steal reservoir (unspawned frontier) outlives many sync sweeps and
    its workload estimate dominates — making it the deterministic
    first steal victim even though engines now run in bursts."""
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


def _matrix_cfg(plan, **kw):
    return cfg(num_workers=2, task_batch_size=1, decompose_threshold=4,
               checkpoint_every_syncs=1, failure_plan=plan, **kw)


@pytest.mark.faultmatrix
@pytest.mark.parametrize("victim", [0, 1])
@pytest.mark.parametrize("event,at_count", [
    ("spawn", 3),   # 3rd round observing a partially advanced cursor
    ("spill", 1),   # 1st round observing a spilled batch in L_file
    ("steal", 1),   # on receiving the 1st steal command
])
def test_kill_matrix_matches_oracle(event, at_count, victim):
    # The spill rows gate pops on any pending pull (pending_threshold=0):
    # the kill point needs Q_task to overflow, and with the default
    # D = 8C worker 1 on this graph often drains its queue without ever
    # spilling (4 of 12 runs left the plan unfired).
    graph = _skewed_graph(victim) if event == "steal" else _spill_graph()
    plan = FailurePlanConfig(kill_worker=victim, when=event,
                             at_count=at_count)
    if event == "spill":
        config = _matrix_cfg(plan, pending_threshold=0)
    else:
        config = _matrix_cfg(plan)
    res = run_job(MaxCliqueComper, graph, config, runtime="process")
    _assert_is_max_clique(graph, res.aggregate)
    assert res.metrics.get("ft:recoveries", 0) >= 1, (
        f"kill plan ({event}, worker {victim}) never fired - vacuous row"
    )
