"""The runtime table: resolution, capabilities, uniform errors, and
spill-dir lifecycle."""

import socket
import tempfile

import pytest

from repro.core import (
    GThinkerConfig,
    JobResult,
    UnknownRuntimeError,
    UnsupportedRuntimeFeature,
    available_runtimes,
    capability_matrix,
    resume_job,
    run_job,
)
from repro.apps import TriangleCountComper
from repro.algorithms import count_triangles
from repro.graph import erdos_renyi


def cfg(**kw):
    base = dict(num_workers=2, compers_per_worker=2, task_batch_size=4,
                cache_capacity=64, cache_buckets=16)
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(50, 0.12, seed=21)


# -- resolution -----------------------------------------------------------


def test_all_builtin_runtimes_registered():
    assert set(available_runtimes()) >= {"serial", "threaded", "checked",
                                         "process"}


def test_capability_matrix_shape():
    matrix = capability_matrix()
    # Protocol checking, resume and cancellation work on every runtime,
    # so they are not capabilities.
    features = {"checkpointing", "failure_injection"}
    for name in ("serial", "threaded", "checked", "process", "cluster"):
        assert set(matrix[name]) == features
    assert matrix["serial"]["checkpointing"]
    assert matrix["serial"]["failure_injection"]
    # The process runtime is fully fault-tolerant: sync-barrier
    # checkpoints, worker-kill injection, resume from shards.
    for feature in features:
        assert matrix["process"][feature], feature
    assert not matrix["threaded"]["checkpointing"]


def test_every_builtin_runs_through_registry(graph):
    expected = count_triangles(graph)
    for name in ("serial", "threaded", "checked", "process"):
        result = run_job(TriangleCountComper, graph, cfg(), runtime=name)
        assert isinstance(result, JobResult)
        assert result.aggregate == expected, name


# -- uniform errors -------------------------------------------------------


def test_unknown_runtime_uniform_error(graph):
    with pytest.raises(UnknownRuntimeError, match="nope"):
        run_job(TriangleCountComper, graph, cfg(), runtime="nope")
    with pytest.raises(UnknownRuntimeError):
        resume_job(TriangleCountComper, graph, "/nonexistent.ckpt",
                   runtime="nope")
    # Back-compat: callers that caught ValueError still work.
    assert issubclass(UnknownRuntimeError, ValueError)
    assert issubclass(UnsupportedRuntimeFeature, ValueError)


def test_error_message_lists_registered_runtimes(graph):
    with pytest.raises(UnknownRuntimeError, match="serial"):
        run_job(TriangleCountComper, graph, cfg(), runtime="typo")


@pytest.mark.parametrize("runtime", ["threaded", "checked"])
def test_checkpointing_rejected_uniformly(graph, runtime):
    with pytest.raises(UnsupportedRuntimeFeature, match="checkpointing"):
        run_job(TriangleCountComper, graph,
                cfg(checkpoint_every_syncs=1), runtime=runtime,
                checkpoint_path="/tmp/unused.ckpt")


@pytest.mark.parametrize("runtime", ["threaded", "checked"])
def test_failure_injection_rejected_uniformly(graph, runtime):
    with pytest.raises(UnsupportedRuntimeFeature, match="failure_injection"):
        run_job(TriangleCountComper, graph, cfg(), runtime=runtime,
                abort_after_rounds=3)


def test_failure_plan_rejected_off_process(graph):
    """A worker-kill plan needs worker processes: threaded/checked reject
    via the capability gate, serial rejects explicitly (its
    failure_injection capability covers abort_after_rounds only)."""
    from repro.core import FailurePlanConfig

    plan = FailurePlanConfig(kill_worker=0, when="sync")
    for runtime in ("serial", "threaded", "checked"):
        with pytest.raises(UnsupportedRuntimeFeature):
            run_job(TriangleCountComper, graph, cfg(failure_plan=plan),
                    runtime=runtime)


def test_resume_works_on_process(tmp_path, graph):
    """resume_job shares run_job's dispatch: the process runtime now has
    the resume capability and restarts a job from a serial shard."""
    ckpt = tmp_path / "job.ckpt"
    with pytest.raises(Exception):
        run_job(TriangleCountComper, graph,
                cfg(checkpoint_every_syncs=1, sync_every_rounds=2),
                runtime="serial", checkpoint_path=str(ckpt),
                abort_after_rounds=4)
    assert ckpt.exists()
    result = resume_job(TriangleCountComper, graph, str(ckpt), cfg(),
                        runtime="process")
    assert result.aggregate == count_triangles(graph)


def test_resume_works_on_threaded_and_checked(tmp_path, graph):
    ckpt = tmp_path / "job.ckpt"
    with pytest.raises(Exception):
        run_job(TriangleCountComper, graph,
                cfg(checkpoint_every_syncs=1, sync_every_rounds=2),
                runtime="serial", checkpoint_path=str(ckpt),
                abort_after_rounds=4)
    expected = count_triangles(graph)
    for runtime in ("threaded", "checked"):
        result = resume_job(TriangleCountComper, graph, str(ckpt), cfg(),
                            runtime=runtime)
        assert result.aggregate == expected, runtime


# -- spill-dir lifecycle --------------------------------------------------


def _spill_dirs(root):
    return [p for p in root.iterdir() if p.name.startswith("gthinker-spill")]


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """Point tempfile at an empty dir so leak checks see only our job."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    yield tmp_path


@pytest.mark.parametrize("runtime", ["serial", "threaded", "process"])
def test_no_spill_dir_leak_on_success(private_tmpdir, graph, runtime):
    run_job(TriangleCountComper, graph, cfg(), runtime=runtime)
    assert _spill_dirs(private_tmpdir) == []


def test_no_spill_dir_leak_on_failure(private_tmpdir, graph):
    with pytest.raises(Exception):
        run_job(TriangleCountComper, graph, cfg(), runtime="serial",
                abort_after_rounds=2)
    assert _spill_dirs(private_tmpdir) == []


def test_cluster_bind_failure_leaks_no_spill_dir(private_tmpdir, graph):
    """A cluster job whose control port is already taken fails while
    building its master; the spill root made before that must still be
    removed."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        port = taken.getsockname()[1]
        with pytest.raises(OSError):
            run_job(TriangleCountComper, graph,
                    cfg(cluster_bind=f"127.0.0.1:{port}"),
                    runtime="cluster")
    assert _spill_dirs(private_tmpdir) == []


@pytest.fixture
def spill_roots_made(private_tmpdir, monkeypatch):
    """Paths of the ``gthinker-spill`` directories mkdtemp makes."""
    made = []
    mkdtemp = tempfile.mkdtemp

    def recording(*args, **kwargs):
        path = mkdtemp(*args, **kwargs)
        if kwargs.get("prefix", "").startswith("gthinker-spill"):
            made.append(path)
        return path

    monkeypatch.setattr(tempfile, "mkdtemp", recording)
    return made


def test_non_spilling_job_makes_no_spill_dir(private_tmpdir, spill_roots_made,
                                             graph):
    res = run_job(TriangleCountComper, graph, cfg(), runtime="serial")
    assert res.metrics.get("tasks:spilled", 0) == 0
    assert spill_roots_made == []
    assert _spill_dirs(private_tmpdir) == []


def test_spilling_job_leaves_no_spill_dir(private_tmpdir, spill_roots_made):
    from repro.algorithms import max_clique_reference
    from repro.apps import MaxCliqueComper

    g = erdos_renyi(60, 0.18, seed=5)
    # Batch size 1 caps Q_task at 3: one decomposition overflows it.
    res = run_job(MaxCliqueComper, g,
                  cfg(task_batch_size=1, decompose_threshold=4),
                  runtime="serial")
    assert len(res.aggregate) == len(max_clique_reference(g))
    assert res.metrics["tasks:spilled"] > 0
    assert len(spill_roots_made) == 1
    assert _spill_dirs(private_tmpdir) == []


def test_explicit_spill_dir_is_preserved(tmp_path, graph):
    spill = tmp_path / "my-spills"
    spill.mkdir()
    run_job(TriangleCountComper, graph, cfg(spill_dir=str(spill)),
            runtime="serial")
    assert spill.exists()  # caller-owned: never removed
