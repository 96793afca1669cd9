"""Sessions, job handles, and the resume-as-parameter surface.

Covers the PR-7 API redesign contract: ``run_job`` / ``resume_job`` are
thin wrappers over a one-shot :class:`repro.Session` (same answers, same
exceptions), ``resume_from=`` equals the classic ``resume_job``
spelling on the same checkpoint shard — including one produced by a
killed ``runtime="process"`` job — and a worker-count mismatch on
resume fails early with a clear :class:`ValueError` on every
checkpoint-capable runtime.
"""

from __future__ import annotations

import multiprocessing as mp
import socket
import tempfile
import threading
import time

import pytest

from repro import GThinkerConfig, Session, run_job
from repro.algorithms import count_triangles, max_clique_reference
from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.core import resume_job
from repro.core.api import Comper, SumAggregator, Task
from repro.core.errors import JobAbortedError, JobCancelledError
from repro.core.job import resolve_resume
from repro.core import get_runtime
from repro.core.session import JOB_CANCELLED, JOB_DONE, JOB_RUNNING, LocalJobHandle
from repro.graph import erdos_renyi


def cfg(**kw):
    base = dict(num_workers=3, compers_per_worker=2, task_batch_size=4,
                sync_every_rounds=8)
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture
def graph():
    return erdos_renyi(60, 0.15, seed=11)


# -- the Session / JobHandle surface -----------------------------------


class TestSession:
    def test_submit_returns_handle_with_answer(self, graph):
        with Session(graph, cfg()) as session:
            handle = session.submit(TriangleCountComper)
            result = handle.result(timeout=60)
        assert result.aggregate == count_triangles(graph)
        assert handle.status() == JOB_DONE
        assert handle.done()

    def test_many_jobs_one_resident_graph(self, graph):
        with Session(graph, cfg()) as session:
            h_tc = session.submit(TriangleCountComper)
            h_mc = session.submit(MaxCliqueComper)
        assert h_tc.result().aggregate == count_triangles(graph)
        assert len(h_mc.result().aggregate) == len(max_clique_reference(graph))

    def test_unknown_runtime_fails_at_construction(self, graph):
        with pytest.raises(ValueError, match="nope"):
            Session(graph, runtime="nope")

    def test_bad_max_concurrent(self, graph):
        with pytest.raises(ValueError, match="max_concurrent"):
            Session(graph, max_concurrent=0)

    def test_submit_after_close_raises(self, graph):
        session = Session(graph, cfg())
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(TriangleCountComper)

    def test_failure_propagates_through_result(self, graph):
        class Boom(RuntimeError):
            pass

        def bad_factory():
            raise Boom("factory exploded")

        with Session(graph, cfg()) as session:
            handle = session.submit(bad_factory)
            with pytest.raises(Boom):
                handle.result(timeout=60)
        assert handle.status() == "failed"

    def test_result_timeout_keeps_job_alive(self, graph):
        release = threading.Event()

        def slow_factory():
            release.wait(30)
            return TriangleCountComper()

        with Session(graph, cfg()) as session:
            handle = session.submit(slow_factory)
            with pytest.raises(TimeoutError):
                handle.result(timeout=0.05)
            release.set()
            assert handle.result(timeout=60).aggregate == count_triangles(graph)

    def test_queued_job_cancels(self, graph):
        started, release = threading.Event(), threading.Event()

        def blocker():
            started.set()
            release.wait(30)
            return TriangleCountComper()

        with Session(graph, cfg(), max_concurrent=1) as session:
            session.submit(blocker)
            assert started.wait(10)
            queued = session.submit(TriangleCountComper)
            assert queued.status() == "queued"
            assert queued.cancel()
            assert queued.status() == JOB_CANCELLED
            with pytest.raises(JobCancelledError):
                queued.result(timeout=1)
            release.set()
        # A finished handle (terminal state) is never cancellable.
        assert not queued.cancel()

    def test_done_callback_fires_once(self, graph):
        seen = []
        with Session(graph, cfg()) as session:
            handle = session.submit(TriangleCountComper)
            handle.add_done_callback(seen.append)
            handle.result(timeout=60)
        # Registering on an already-finished handle runs immediately.
        handle.add_done_callback(seen.append)
        assert seen == [handle, handle]
        assert all(isinstance(h, LocalJobHandle) for h in seen)


# -- running-job cancellation ------------------------------------------


class SlowComper(Comper):
    """A long, steady burn: a few tasks iterating for many rounds.

    Each compute sleeps briefly and re-pulls a local vertex, so with a
    small ``inline_iteration_limit`` the engine keeps crossing sync
    boundaries — exactly where the abort token is honored.  Module
    level so ``runtime='process'`` can pickle it.
    """

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


def slow_cfg(**kw):
    # Tiny sync cadence + tiny inline budget: abort checks come fast.
    base = dict(num_workers=2, compers_per_worker=1, sync_every_rounds=2,
                inline_iteration_limit=2)
    base.update(kw)
    return GThinkerConfig(**base)


class TestRunningCancel:
    @pytest.mark.parametrize("runtime",
                             ["serial", "threaded", "process", "cluster"])
    def test_running_job_cancels_at_sync_boundary(self, graph, runtime,
                                                  tmp_path, monkeypatch):
        # Spill roots go to an empty dir, so a leaked one is seen.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with Session(graph, slow_cfg(), runtime=runtime) as session:
            handle = session.submit(SlowComper)
            deadline = time.monotonic() + 10
            while handle.status() != JOB_RUNNING:
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.005)
            time.sleep(0.05)  # let it actually mine a little
            assert handle.cancel()  # accepted: settles asynchronously
            with pytest.raises(JobCancelledError):
                handle.result(timeout=30)
            assert handle.status() == JOB_CANCELLED
            assert not list(tmp_path.glob("gthinker-spill*"))
            # Cancel is idempotent-False once terminal.
            assert not handle.cancel()
            # The session is still healthy: a follow-up job runs fine.
            after = session.submit(TriangleCountComper,
                                   config=cfg(num_workers=2))
            assert after.result(timeout=60).aggregate == count_triangles(graph)

    def test_capability_flags(self):
        # Every runtime cancels, so cancellation is no capability flag.
        for runtime in ("serial", "threaded", "process", "checked",
                        "cluster"):
            features = get_runtime(runtime).capabilities.feature_names()
            assert "cancellation" not in features, runtime

    def test_attach_mode_nodes_exit_when_their_job_is_cancelled(self, graph):
        """Cancelling an attach-mode cluster job closes every control
        channel; the externally started nodes see the close and return
        instead of waiting out a job that is gone."""
        from repro.core.clusterruntime import serve_node

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        nodes = [
            mp.get_context().Process(
                target=serve_node, args=(f"127.0.0.1:{port}",),
                kwargs=dict(bind_host="127.0.0.1", connect_timeout_s=30.0),
                daemon=True,
            )
            for _ in range(2)
        ]
        for node in nodes:
            node.start()
        config = slow_cfg(cluster_hosts=("127.0.0.1:0", "127.0.0.1:0"),
                          cluster_bind=f"127.0.0.1:{port}",
                          cluster_connect_timeout_s=30.0)
        try:
            with Session(graph, config, runtime="cluster") as session:
                handle = session.submit(SlowComper)
                deadline = time.monotonic() + 10
                while handle.status() != JOB_RUNNING:
                    assert time.monotonic() < deadline, "job never started"
                    time.sleep(0.005)
                time.sleep(0.2)  # let the nodes attach and mine a little
                assert handle.cancel()
                with pytest.raises(JobCancelledError):
                    handle.result(timeout=30)
                cancelled = time.monotonic()
            for node in nodes:
                node.join(timeout=max(0.0, cancelled + 5.0 - time.monotonic()))
                assert not node.is_alive(), "attach-mode node stranded"
        finally:
            for node in nodes:
                if node.is_alive():
                    node.terminate()


# -- the one-shot wrappers ---------------------------------------------


class TestRunJobWrapper:
    def test_run_job_same_answer_as_session(self, graph):
        direct = run_job(TriangleCountComper, graph, cfg())
        assert direct.aggregate == count_triangles(graph)

    def test_run_job_still_raises_synchronously(self, graph):
        # Exceptions cross the wrapper un-wrapped: an aborted job raises
        # JobAbortedError from run_job itself, exactly as before PR 7.
        with pytest.raises(JobAbortedError):
            run_job(TriangleCountComper, graph, cfg(), runtime="serial",
                    abort_after_rounds=3)

    def test_run_job_rejects_unknown_runtime(self, graph):
        with pytest.raises(ValueError, match="warp-drive"):
            run_job(TriangleCountComper, graph, cfg(), runtime="warp-drive")


# -- resume_from= and the resume_job equivalence ------------------------


def _make_shard(graph, tmp_path, runtime="serial", rounds=12, **cfg_kw):
    """Kill a checkpointing job early; returns the shard it left behind."""
    ck = str(tmp_path / "job.ckpt")
    cfg_kw.setdefault("checkpoint_every_syncs", 1)
    with pytest.raises(JobAbortedError):
        run_job(TriangleCountComper, graph, cfg(**cfg_kw), runtime=runtime,
                checkpoint_path=ck, abort_after_rounds=rounds)
    return ck


class TestResumeFrom:
    def test_resume_from_equals_resume_job(self, graph, tmp_path):
        ck = _make_shard(graph, tmp_path)
        via_param = run_job(TriangleCountComper, graph,
                            cfg(checkpoint_every_syncs=0),
                            resume_from=ck)
        via_classic = resume_job(TriangleCountComper, graph, ck,
                                 cfg(checkpoint_every_syncs=0))
        oracle = count_triangles(graph)
        assert via_param.aggregate == via_classic.aggregate == oracle
        assert via_param.num_workers == via_classic.num_workers

    def test_resume_from_killed_process_shard(self, graph, tmp_path):
        """Both resume spellings agree on a shard a killed
        runtime='process' job left behind — the cross-runtime
        portability the JobCheckpoint format promises."""
        # The process master syncs per scheduler round, so the abort has
        # to land early (round 3) to leave an unfinished shard behind.
        ck = _make_shard(graph, tmp_path, runtime="process", rounds=3,
                         sync_every_rounds=4)
        kw = dict(config=cfg(checkpoint_every_syncs=0), runtime="process")
        via_param = run_job(TriangleCountComper, graph, resume_from=ck, **kw)
        via_classic = resume_job(TriangleCountComper, graph, ck, **kw)
        assert (via_param.aggregate == via_classic.aggregate
                == count_triangles(graph))

    def test_session_submit_accepts_resume_from(self, graph, tmp_path):
        ck = _make_shard(graph, tmp_path)
        with Session(graph) as session:
            handle = session.submit(TriangleCountComper, resume_from=ck,
                                    config=cfg(checkpoint_every_syncs=0))
            assert handle.result(timeout=60).aggregate == count_triangles(graph)

    def test_resume_config_defaults_from_shard(self, graph, tmp_path):
        ck = _make_shard(graph, tmp_path)
        res = run_job(TriangleCountComper, graph, resume_from=ck)
        assert res.aggregate == count_triangles(graph)
        assert res.num_workers == 3  # adopted from the shard

    @pytest.mark.parametrize("runtime", ["serial", "process"])
    def test_mismatched_workers_fail_early_and_clearly(
        self, graph, tmp_path, runtime
    ):
        """A config whose num_workers disagrees with the shard raises a
        uniform ValueError on every runtime — including process, which
        used to surface it late as a CheckpointError after the workers
        had already spawned."""
        ck = _make_shard(graph, tmp_path)
        bad = cfg(num_workers=5, checkpoint_every_syncs=0)
        with pytest.raises(ValueError, match="num_workers"):
            resume_job(TriangleCountComper, graph, ck, bad, runtime=runtime)
        with pytest.raises(ValueError, match="num_workers"):
            run_job(TriangleCountComper, graph, bad, runtime=runtime,
                    resume_from=ck)

    def test_resolve_resume_is_the_single_path(self, graph, tmp_path):
        ck = _make_shard(graph, tmp_path)
        shard, inferred = resolve_resume(ck, None, "serial")
        assert shard.num_workers == inferred.num_workers == 3
        assert inferred.compers_per_worker == shard.compers_per_worker
        with pytest.raises(ValueError, match="num_workers=3"):
            resolve_resume(ck, cfg(num_workers=4), "serial")
