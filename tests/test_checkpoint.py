"""Fault-tolerance tests: checkpoint, injected failure, recovery."""

import functools

import numpy as np
import pytest

from repro.algorithms import (
    count_matches,
    count_triangles,
    enumerate_maximal_cliques,
    enumerate_quasi_cliques,
    max_clique_reference,
    path_query,
)
from repro.apps import (
    BundledTriangleCountComper,
    MaxCliqueComper,
    MaximalCliqueComper,
    QuasiCliqueComper,
    SubgraphMatchComper,
    TriangleCountComper,
)
from repro.core import GThinkerConfig, resume_job, run_job
from repro.core.checkpoint import JobCheckpoint, WorkerSnapshot
from repro.core.api import Task
from repro.core.containers import deserialize_tasks, snapshot_tasks
from repro.core.errors import CheckpointError, JobAbortedError
from repro.graph import erdos_renyi


def cfg(**kw):
    base = dict(
        num_workers=3, compers_per_worker=2, task_batch_size=4,
        cache_capacity=64, cache_buckets=16, decompose_threshold=16,
        sync_every_rounds=8, checkpoint_every_syncs=1,
    )
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(130, 0.09, seed=77)


def _one_task(payload: bytes) -> Task:
    (task,) = deserialize_tasks(payload)
    return task


class TestTaskSnapshots:
    """A checkpoint holds tasks as GTTASK1 batches (``snapshot_tasks``)."""

    def test_roundtrip_fresh_task(self):
        t = Task(context=(1,))
        t.g.add_vertex(1, (2, 3), label=4)
        t.pull(2)
        t.pull(3)
        back = _one_task(snapshot_tasks([t]))
        assert back.context == (1,)
        assert np.array_equal(back.g.neighbors(1), [2, 3])
        assert back.g.label(1) == 4
        assert back.pending_pulls() == (2, 3)

    def test_roundtrip_inflight_task(self):
        """A parked task saves its in-flight pulls for re-requesting."""
        t = Task()
        t.pull(5)
        t.pulls_in_flight = t.take_pulls()
        back = _one_task(snapshot_tasks([t]))
        assert back.pending_pulls() == (5,)
        assert back.pulls_in_flight == []

    def test_roundtrip_mixed_inflight_and_queued_pulls(self):
        """S1 regression: a task can hold in-flight pulls *and* freshly
        requested ones at once; the snapshot must be their union, not
        just the in-flight set."""
        t = Task()
        t.pull(5)
        t.pull(6)
        t.pulls_in_flight = t.take_pulls()
        t.pull(6)  # re-requested while still in flight: dedup
        t.pull(7)  # new pull queued behind the in-flight ones
        back = _one_task(snapshot_tasks([t]))
        assert back.pending_pulls() == (5, 6, 7)
        assert back.pulls_in_flight == []


class TestCheckpointFile:
    def test_save_load_roundtrip(self, tmp_path):
        ckpt = JobCheckpoint(
            worker_snapshots=[WorkerSnapshot(spawn_cursor=3, outputs=["x"])],
            aggregator_global=42,
            num_workers=1,
            compers_per_worker=2,
        )
        path = tmp_path / "job.ckpt"
        ckpt.save(path)
        back = JobCheckpoint.load(path)
        assert back.aggregator_global == 42
        assert back.worker_snapshots[0].spawn_cursor == 3
        assert back.worker_snapshots[0].outputs == ["x"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            JobCheckpoint.load(tmp_path / "nope.ckpt")

    def test_load_garbage(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            JobCheckpoint.load(bad)

    @pytest.mark.parametrize("shard", ["empty", "truncated", "missing_class"])
    def test_load_unpickling_failure_is_checkpoint_error(
            self, tmp_path, monkeypatch, shard):
        """Every way a shard fails to unpickle is one CheckpointError:
        an empty file (EOFError), a cut shard, and a shard naming a
        class that no longer exists (AttributeError) — as every shard
        that held pickled ``TaskSnapshot`` rows does."""
        from repro.core import checkpoint

        class TaskSnapshot:  # pickled under the retired class's name
            pass

        TaskSnapshot.__module__ = checkpoint.__name__
        TaskSnapshot.__qualname__ = "TaskSnapshot"
        monkeypatch.setattr(checkpoint, "TaskSnapshot", TaskSnapshot,
                            raising=False)
        stale = [TaskSnapshot()] if shard == "missing_class" else []
        path = tmp_path / "job.ckpt"
        JobCheckpoint(worker_snapshots=[WorkerSnapshot(3, tasks=stale)],
                      aggregator_global=42, num_workers=1,
                      compers_per_worker=1).save(path)
        monkeypatch.delattr(checkpoint, "TaskSnapshot")
        raw = path.read_bytes()
        path.write_bytes({"empty": b"", "truncated": raw[: len(raw) // 2],
                          "missing_class": raw}[shard])
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            JobCheckpoint.load(path)

    def test_load_wrong_type(self, tmp_path):
        import pickle

        bad = tmp_path / "wrong.ckpt"
        bad.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(CheckpointError):
            JobCheckpoint.load(bad)

    def test_epoch_and_transport_counters_roundtrip(self, tmp_path):
        """The process runtime's barrier fields survive save/load."""
        ckpt = JobCheckpoint(
            worker_snapshots=[WorkerSnapshot(spawn_cursor=1, sent=17,
                                             received=17)],
            aggregator_global=0,
            num_workers=1,
            compers_per_worker=1,
            epoch=7,
        )
        path = tmp_path / "epoch.ckpt"
        ckpt.save(path)
        back = JobCheckpoint.load(path)
        assert back.epoch == 7
        assert back.worker_snapshots[0].sent == 17
        assert back.worker_snapshots[0].received == 17


class TestSnapshotNonDestructive:
    """S5 regression: capturing a worker must not reorder B_task or
    perturb any container metric."""

    def test_ready_buffer_get_batch_put_roundtrip_is_fifo(self):
        from repro.core.containers import ReadyBuffer

        buf = ReadyBuffer()
        for i in range(7):
            buf.put(Task(context=i))
        drained = buf.get_batch(limit=10**9)
        for t in drained:
            buf.put(t)
        assert [t.context for t in buf.get_batch(limit=10**9)] == list(range(7))

    def test_snapshot_worker_preserves_b_task_and_metrics(self, graph):
        from repro.core import build_cluster
        from repro.core.checkpoint import snapshot_worker

        cluster = build_cluster(TriangleCountComper, graph, cfg())
        w = cluster.workers[0]
        engine = w.engines[0]
        for i in range(5):
            engine.b_task.put(Task(context=(-1, i)))  # (probe, i)
        before = cluster.metrics.snapshot()
        snap = snapshot_worker(w)
        assert cluster.metrics.snapshot() == before
        # The buffered tasks were captured...
        probed = [t.context for payload in snap.tasks
                  for t in deserialize_tasks(payload)
                  if isinstance(t.context, tuple) and t.context[:1] == (-1,)]
        assert probed == [(-1, i) for i in range(5)]
        # ...and are still buffered, in their original FIFO order.
        assert [t.context for t in engine.b_task.get_batch(limit=10**9)] == \
            [(-1, i) for i in range(5)]


def _abort_then_resume(app_factory, graph, tmp_path, rounds):
    ck = str(tmp_path / "job.ckpt")
    with pytest.raises(JobAbortedError):
        run_job(app_factory, graph, cfg(), runtime="serial",
                checkpoint_path=ck, abort_after_rounds=rounds)
    return resume_job(app_factory, graph, ck,
                      cfg(checkpoint_every_syncs=0))


class TestFailureRecovery:
    def test_tc_recovers_exact_count(self, graph, tmp_path):
        res = _abort_then_resume(TriangleCountComper, graph, tmp_path, rounds=24)
        assert res.aggregate == count_triangles(graph)

    def test_tc_recovers_from_early_failure(self, graph, tmp_path):
        res = _abort_then_resume(TriangleCountComper, graph, tmp_path, rounds=9)
        assert res.aggregate == count_triangles(graph)

    def test_mcf_recovers(self, graph, tmp_path):
        res = _abort_then_resume(MaxCliqueComper, graph, tmp_path, rounds=10)
        assert len(res.aggregate) == len(max_clique_reference(graph))

    def test_quasiclique_recovers_outputs(self, tmp_path):
        g = erdos_renyi(20, 0.3, seed=5)
        res = _abort_then_resume(
            lambda: QuasiCliqueComper(gamma=0.6, min_size=4), g, tmp_path, rounds=12
        )
        assert set(res.outputs) == set(enumerate_quasi_cliques(g, 0.6, min_size=4))

    @pytest.mark.parametrize("rounds", [4, 6, 7])
    def test_bundling_apps_recover_buffered_members(self, graph, tmp_path,
                                                    rounds):
        """Neither a bundle still buffered in an app nor a batch stolen
        in the checkpointing sync may fall between cursor and snapshot.

        Syncs fall every 2 rounds, so the shards are those of rounds 2,
        4 and 6.  The matching job ends before round 8: the barrier's
        comm steps land responses, which saves it engine rounds."""
        tc = functools.partial(BundledTriangleCountComper, bundle_size=16,
                               heavy_threshold=8)
        gm = functools.partial(SubgraphMatchComper, path_query(2))
        for factory, want in ((tc, count_triangles(graph)),
                              (gm, count_matches(graph, path_query(2)))):
            ck = str(tmp_path / f"job-{want}.ckpt")
            with pytest.raises(JobAbortedError):
                run_job(factory, graph, cfg(sync_every_rounds=2),
                        runtime="serial", checkpoint_path=ck,
                        abort_after_rounds=rounds)
            res = resume_job(factory, graph, ck, cfg(checkpoint_every_syncs=0))
            assert res.aggregate == want

    def test_abort_before_any_checkpoint(self, graph, tmp_path):
        """Failing before the first sync leaves no checkpoint file."""
        ck = tmp_path / "early.ckpt"
        with pytest.raises(JobAbortedError):
            run_job(TriangleCountComper, graph, cfg(sync_every_rounds=1000),
                    runtime="serial", checkpoint_path=str(ck),
                    abort_after_rounds=3)
        assert not ck.exists()

    def test_abort_round_picks_the_checkpoint_left_on_disk(self, graph, tmp_path):
        """``abort_after_rounds`` counts engine rounds, not bursts: the
        shard on disk is the one of the last sync *before* round k.
        Syncs fall on rounds 8 and 16 here (the abort is checked before
        the sync of its own round)."""
        def cursors_after_abort(k):
            ck = str(tmp_path / f"abort{k}.ckpt")
            with pytest.raises(JobAbortedError, match=f"after {k} rounds"):
                run_job(TriangleCountComper, graph, cfg(), runtime="serial",
                        checkpoint_path=ck, abort_after_rounds=k)
            return [w.spawn_cursor
                    for w in JobCheckpoint.load(ck).worker_snapshots]

        at_sync_8 = cursors_after_abort(9)
        assert cursors_after_abort(13) == at_sync_8
        assert cursors_after_abort(16) == at_sync_8
        assert cursors_after_abort(17) != at_sync_8

    def test_resume_worker_count_mismatch(self, graph, tmp_path):
        ck = str(tmp_path / "job.ckpt")
        with pytest.raises(JobAbortedError):
            run_job(TriangleCountComper, graph, cfg(), runtime="serial",
                    checkpoint_path=ck, abort_after_rounds=24)
        with pytest.raises(ValueError):
            resume_job(TriangleCountComper, graph, ck,
                       cfg(num_workers=5, checkpoint_every_syncs=0))

    def test_resume_default_config_from_checkpoint(self, graph, tmp_path):
        ck = str(tmp_path / "job.ckpt")
        with pytest.raises(JobAbortedError):
            run_job(TriangleCountComper, graph, cfg(), runtime="serial",
                    checkpoint_path=ck, abort_after_rounds=24)
        res = resume_job(TriangleCountComper, graph, ck)  # config inferred
        assert res.aggregate == count_triangles(graph)
        assert res.num_workers == 3


def test_checkpoint_of_completed_job_resumes_to_same_answer(graph, tmp_path):
    """Resuming from the final checkpoint re-delivers the same result."""
    ck = str(tmp_path / "job.ckpt")
    first = run_job(TriangleCountComper, graph, cfg(), runtime="serial",
                    checkpoint_path=ck)
    resumed = resume_job(TriangleCountComper, graph, ck,
                         cfg(checkpoint_every_syncs=0))
    assert first.aggregate == resumed.aggregate == count_triangles(graph)


# Every app's context kind through spill, steal, checkpoint and resume,
# with ``pickle.loads`` refusing: (factory, answer of a result, oracle).
_QC_GRAPH = erdos_renyi(40, 0.12, seed=5)
_NO_PICKLE_APPS = {
    "tc": (TriangleCountComper, lambda r: r.aggregate, count_triangles),
    "bundled_tc": (
        functools.partial(BundledTriangleCountComper, bundle_size=4,
                          heavy_threshold=8),
        lambda r: r.aggregate, count_triangles),
    "qc": (functools.partial(QuasiCliqueComper, gamma=0.6, min_size=4),
           lambda r: set(r.outputs),
           lambda g: set(enumerate_quasi_cliques(g, 0.6, min_size=4))),
    "mcf": (MaxCliqueComper, lambda r: len(r.aggregate),
            lambda g: len(max_clique_reference(g))),
    "gm": (functools.partial(SubgraphMatchComper, path_query(2)),
           lambda r: r.aggregate, lambda g: count_matches(g, path_query(2))),
    "maximal_cliques": (
        functools.partial(MaximalCliqueComper, min_size=3),
        lambda r: sorted(r.outputs),
        lambda g: sorted(c for c in enumerate_maximal_cliques(g)
                         if len(c) >= 3)),
}


@pytest.mark.parametrize("app", sorted(_NO_PICKLE_APPS))
def test_task_images_need_no_unpickling(app, graph, tmp_path, no_unpickling):
    """C = 1 makes every app spill; stealing moves batches; a shard
    taken at every sync holds tasks, spilled files included; and the
    resumed job gives the oracle's answer.  No step unpickles."""
    factory, answer, oracle = _NO_PICKLE_APPS[app]
    g = _QC_GRAPH if app == "qc" else graph
    job_cfg = functools.partial(cfg, task_batch_size=1, sync_every_rounds=2,
                                steal_batches=4)
    full = run_job(factory, g, job_cfg(), runtime="serial",
                   checkpoint_path=str(tmp_path / "full.ckpt"))
    assert answer(full) == oracle(g)
    assert full.metrics.get("steal:tasks", 0) > 0

    ck = str(tmp_path / "job.ckpt")
    with pytest.raises(JobAbortedError):
        run_job(factory, g, job_cfg(), runtime="serial", checkpoint_path=ck,
                abort_after_rounds=4)
    snaps = JobCheckpoint.load(ck).worker_snapshots
    assert sum(len(deserialize_tasks(p)) for s in snaps for p in s.tasks) > 0
    spilled_files = sum(len(s.tasks) - 1 for s in snaps)
    resumed = resume_job(factory, g, ck, job_cfg(checkpoint_every_syncs=0))
    assert answer(resumed) == oracle(g)
    assert spilled_files + resumed.metrics.get("tasks:spilled", 0) > 0
