"""Fault tolerance of ``runtime="process"``: sync-barrier checkpoints,
worker-loss recovery, failure injection, and the CI kill-worker matrix.

Every end-to-end test here compares a job with an injected worker kill
against the no-failure oracle — same aggregate, same output multiset —
and asserts via the ``ft:recoveries`` metric that the kill actually
fired (a plan that never triggers would make the comparison vacuous).
"""

import functools
import multiprocessing as mp
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
from repro.core.controlplane import PEER_LOST
from repro.graph import Graph, erdos_renyi
from repro.graph.partition import hash_partition
from repro.net.transport import ProcessTransport


def cfg(**kw):
    base = dict(
        num_workers=2, compers_per_worker=2, task_batch_size=4,
        cache_capacity=256, cache_buckets=16, decompose_threshold=16,
        aggregator_sync_period_s=0.005,
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


def test_serial_barrier_shard_with_pulls_and_a_steal_in_flight_resumes_on_process(
        graph, tmp_path):
    """The serial runtime checkpoints through the same barrier: a shard
    taken while pulls and a just-stolen batch are on the wire settles
    them first, has balanced transport counters, and resumes on the
    process runtime to the oracle answer."""
    from repro.core import build_cluster
    from repro.core.checkpoint import JobCheckpoint
    from repro.core.job import _teardown

    ck = str(tmp_path / "serial.ckpt")
    cluster = build_cluster(TriangleCountComper, graph,
                            cfg(checkpoint_every_syncs=1))
    cluster.master.checkpoint_path = ck
    w0, w1 = cluster.workers
    ports = [cluster.transport.port(0), cluster.transport.port(1)]
    try:
        # Worker 1 spawns all its tasks while worker 0 only serves its
        # pulls, so worker 0 is left the victim of a steal.
        while w1.unspawned_count():
            w1.step_round()
            w0.comm.step()
        w1.step_round()  # its last pulls are on the wire, unserved
        assert sum(p.sent_count for p in ports) \
            > sum(p.received_count for p in ports)
        assert cluster.master.sync() is False
        assert cluster.metrics.get("steal:batches") >= 1
    finally:
        _teardown(cluster)
    shard = JobCheckpoint.load(ck)
    assert shard.epoch == 1
    sent = sum(s.sent for s in shard.worker_snapshots)
    assert sent > 0
    assert sent == sum(s.received for s in shard.worker_snapshots)
    resumed = resume_job(TriangleCountComper, graph, ck, cfg(),
                         runtime="process")
    assert resumed.aggregate == count_triangles(graph)


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


# -- S3: the master's error paths over real control endpoints ------------
#
# Built on ControlPlaneMaster itself over each endpoint kind the
# runtimes use (see the ``endpoint_pair`` fixture): the test holds the
# node end, scripts what the node sent, and closes it to play a death.


def _report(node_id, exc_type, recoverable=True):
    return ("error", node_id, exc_type,
            f"Traceback (most recent call last): {exc_type}", recoverable)


def test_send_surfaces_error_report_behind_stale_replies(endpoint_pair,
                                                         endpoint_master):
    """S3 regression: when a send finds the node gone, _send must drain
    past stale pre-death replies to the node's error report instead of
    mislabelling an app bug as a recoverable machine loss."""
    master_end, node_end = endpoint_pair()
    node_end.send(("stolen", 2))  # a stale steal reply sent before the death
    node_end.send(_report(0, "ValueError", recoverable=False))
    node_end.close()
    with pytest.raises(WorkerProcessError) as ei:
        endpoint_master(master_end)._send(0, ("sync", None))
    assert not ei.value.recoverable
    assert "ValueError" in str(ei.value)
    assert isinstance(ei.value.__cause__, PEER_LOST)


def test_send_to_silently_dead_worker_is_recoverable(endpoint_pair,
                                                     endpoint_master):
    """No error report on the channel → a machine loss, with the
    endpoint's own error chained for debugging."""
    master_end, node_end = endpoint_pair()
    node_end.close()
    with pytest.raises(WorkerProcessError) as ei:
        endpoint_master(master_end)._send(0, ("quiesce",))
    assert ei.value.recoverable
    assert isinstance(ei.value.__cause__, PEER_LOST)


def test_peer_loss_echo_yields_to_the_root_cause_report(endpoint_pair,
                                                       endpoint_master):
    """Node 1 dies of a corrupt payload; node 0's data channel to it
    breaks, and node 0's ``PeerLostError`` report reaches the master
    first.  The master must surface node 1's ``WireDecodeError``,
    chained from the echo, not blame node 0."""
    (master0, node0), (master1, node1) = endpoint_pair(), endpoint_pair()
    node0.send(_report(0, "PeerLostError"))
    node1.send(("wake", 1))
    node1.send(_report(1, "WireDecodeError"))
    with pytest.raises(WorkerProcessError) as ei:
        endpoint_master(master0, master1)._recv(0)
    assert ei.value.worker_id == 1
    assert ei.value.recoverable
    assert "WireDecodeError" in str(ei.value)
    assert ei.value.__cause__.worker_id == 0
    assert "PeerLostError" in str(ei.value.__cause__)


def test_peer_loss_after_a_silent_death_is_reported_as_is(endpoint_master):
    """No other node has a report — its pipe just closes — so the peer
    loss is the root cause and is raised without waiting out the
    drain."""
    (master0, node0), (master1, node1) = mp.Pipe(), mp.Pipe()
    try:
        node0.send(_report(0, "PeerLostError"))
        node1.close()
        t0 = time.monotonic()
        with pytest.raises(WorkerProcessError) as ei:
            endpoint_master(master0, master1)._recv(0)
        assert ei.value.worker_id == 0
        assert "PeerLostError" in str(ei.value)
        assert time.monotonic() - t0 < 0.5
    finally:
        for end in (master0, node0, master1):
            end.close()


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
