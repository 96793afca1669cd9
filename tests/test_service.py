"""The resident-graph job service: wire protocol, admission, fairness.

End-to-end over real localhost sockets: concurrent submitters get the
same answers as serial oracles, a repeated submission is served from the
result cache with *zero* mining rounds, per-job quotas bound concurrent
worker use, the stride scheduler keeps a backlogged tenant from starving
a light one, and a full admission queue rejects loudly.
"""

from __future__ import annotations

import functools
import threading
import time

import pytest

from repro import GThinkerConfig
from repro.algorithms import count_triangles, max_clique_reference
from repro.algorithms.matching import count_matches, triangle_query
from repro.apps import TriangleCountComper
from repro.core.api import Comper, SumAggregator, Task
from repro.core.errors import JobCancelledError, JobRejectedError, ServiceError
from repro.graph import erdos_renyi, graph_digest, with_random_labels
from repro.service import jobs as jobs_module
from repro.service import (
    GraphService,
    JobSpec,
    ResultCache,
    ServiceClient,
    cache_key,
    canonical_params,
    register_service_app,
)

TRIANGLE_EDGES = [[0, 1], [1, 2], [0, 2]]


def cfg(**kw):
    base = dict(num_workers=2, compers_per_worker=2, task_batch_size=4)
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return with_random_labels(erdos_renyi(90, 0.1, seed=23), num_labels=3,
                              seed=5)


@pytest.fixture(scope="module")
def oracles(graph):
    return {
        "tc": count_triangles(graph),
        "mcf": len(max_clique_reference(graph)),
        "gm": count_matches(graph, triangle_query()),
    }


@pytest.fixture
def service(graph):
    with GraphService(graph, config=cfg(), runtime="threaded",
                      worker_budget=4) as svc:
        yield svc


@pytest.fixture
def client(service):
    host, port = service.address
    with ServiceClient(f"{host}:{port}") as c:
        yield c


# -- a deterministic blocking app for scheduler tests -------------------

_STARTED = threading.Event()
_RELEASE = threading.Event()


def _block_builder(params):
    def factory():
        _STARTED.set()
        if not _RELEASE.wait(30):  # pragma: no cover - hung test guard
            raise RuntimeError("blocking app never released")
        return TriangleCountComper()

    return factory


register_service_app(
    "block", _block_builder,
    description="test-only: holds its worker quota until released",
    defaults={"id": 0},
)


def _fail_builder(params):
    def factory():
        raise RuntimeError("kaboom at mining time")

    return factory


register_service_app(
    "fail", _fail_builder,
    description="test-only: passes admission, explodes at run time",
)


@pytest.fixture
def gate():
    """Arms the 'block' app; yields (wait_started, release)."""
    _STARTED.clear()
    _RELEASE.clear()
    yield (lambda: _STARTED.wait(10)), _RELEASE.set
    _RELEASE.set()  # never leave a runner thread hanging


# -- a slow, steadily-syncing app for cancellation tests -----------------


class _ServiceSlowComper(Comper):
    """Long steady mining with frequent sync boundaries.

    Module level (and built via :func:`functools.partial`) so the
    ``process`` runtime can pickle the factory.
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


def _slow_builder(params):
    return functools.partial(_ServiceSlowComper,
                             int(params.get("iters", 2000)),
                             float(params.get("delay", 0.002)))


register_service_app(
    "slow", _slow_builder,
    description="test-only: mines slowly across many sync boundaries",
    defaults={"iters": 2000, "delay": 0.002, "id": 0},
)


def slow_cfg(**kw):
    # Tiny sync cadence + tiny inline budget: abort checks come fast.
    base = dict(num_workers=2, compers_per_worker=1, sync_every_rounds=2,
                inline_iteration_limit=2)
    base.update(kw)
    return GThinkerConfig(**base)


def _wait_status(svc, job_id, status, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if svc.status(job_id)["status"] == status:
            return True
        time.sleep(0.01)
    return False


# -- end-to-end over the socket -----------------------------------------


class TestEndToEnd:
    def test_hello_reports_graph_and_limits(self, graph, client):
        info = client.server_info()
        assert info["graph_digest"] == graph_digest(graph)
        assert info["num_vertices"] == graph.num_vertices
        assert {"tc", "mcf", "cliques", "qc", "gm"} <= set(info["apps"])
        assert info["worker_budget"] == 4

    def test_concurrent_submitters_match_oracles(self, service, oracles):
        """N client threads × (tc, mcf, gm) — every answer equals its
        serial oracle even while the jobs interleave."""
        host, port = service.address
        answers, failures = {}, []

        def submitter(name, app, params):
            try:
                with ServiceClient(f"{host}:{port}") as c:
                    handle = c.submit(app, params, tenant=name)
                    answers[(name, app)] = handle.result(timeout=120)
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                failures.append((name, app, exc))

        jobs = [("alice", "tc", {}), ("bob", "mcf", {}),
                ("carol", "gm", {"query_edges": TRIANGLE_EDGES}),
                ("dave", "tc", {"bundle": 8})]
        threads = [threading.Thread(target=submitter, args=j) for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not failures, failures
        assert answers[("alice", "tc")].aggregate == oracles["tc"]
        assert answers[("dave", "tc")].aggregate == oracles["tc"]
        assert len(answers[("bob", "mcf")].aggregate) == oracles["mcf"]
        assert answers[("carol", "gm")].aggregate == oracles["gm"]

    def test_remote_handle_protocol(self, client, oracles):
        handle = client.submit("tc")
        result = handle.result(timeout=120)
        assert result.aggregate == oracles["tc"]
        assert handle.status() == "done"
        assert handle.done()
        assert not handle.cancel()  # finished jobs are not cancellable

    def test_unknown_app_and_bad_params_reject(self, client):
        with pytest.raises(JobRejectedError, match="unknown app"):
            client.submit("frobnicate")
        with pytest.raises(JobRejectedError, match="gamma"):
            client.submit("qc", {"gamma": 7})
        with pytest.raises(JobRejectedError, match="unknown parameter"):
            client.submit("tc", {"wat": 1})

    def test_unknown_job_id_is_a_service_error(self, client):
        with pytest.raises(ServiceError, match="no such job"):
            client.status("job-9999")

    def test_failed_job_reports_error_string(self, client):
        # 'fail' passes admission but explodes once workers build it;
        # the error must come back typed with the original message.
        handle = client.submit("fail")
        with pytest.raises(ServiceError, match="kaboom"):
            handle.result(timeout=120)
        assert handle.status() == "failed"
        assert "RuntimeError" in handle.record["error"]


# -- the result cache ----------------------------------------------------


class TestResultCache:
    def test_repeat_submission_hits_cache_with_zero_rounds(self, client,
                                                           oracles):
        first = client.submit("mcf")
        r1 = first.result(timeout=120)
        assert first.record["mining_rounds"] > 0
        second = client.submit("mcf")
        assert second.record["cached"]
        assert second.record["status"] == "done"
        assert second.record["mining_rounds"] == 0
        r2 = second.result(timeout=10)
        assert r2.aggregate == r1.aggregate
        stats = client.stats()
        assert stats["cache_hits"] == 1
        assert stats["executed"] == 1  # the second submission ran nothing

    def test_default_params_share_the_cache_entry(self, client):
        spelled = client.submit("cliques", {"min_size": 3})
        spelled.result(timeout=120)
        # Same computation with the default elided: must hit, not rerun.
        defaulted = client.submit("cliques", {})
        assert defaulted.record["cached"]

    def test_different_params_miss(self, client):
        client.submit("cliques", {"min_size": 3}).result(timeout=120)
        other = client.submit("cliques", {"min_size": 5})
        assert not other.record["cached"]
        other.result(timeout=120)

    def test_cache_key_is_digest_and_canonical_params(self, graph):
        digest = graph_digest(graph)
        assert (cache_key(digest, "qc", {"gamma": 0.8})
                == cache_key(digest, "qc", {"min_size": 4, "gamma": 0.8}))
        assert (cache_key(digest, "qc", {"gamma": 0.8})
                != cache_key(digest, "qc", {"gamma": 0.9}))
        assert canonical_params("tc") == canonical_params("tc", {"bundle": 0})

    def test_cache_disabled(self, graph):
        with GraphService(graph, config=cfg(), result_cache_size=0) as svc:
            svc.submit(JobSpec("tc"))
            svc.wait_result("job-1", timeout=120)
            again = svc.submit(JobSpec("tc"))
            assert not again["cached"]
            svc.wait_result(again["job_id"], timeout=120)


# -- admission: quotas, fairness, backpressure ---------------------------


class TestAdmission:
    def test_quota_bounds_concurrency(self, graph, gate):
        """worker_budget=2 with 2-worker jobs ⇒ strictly one at a time."""
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            first = svc.submit(JobSpec("block"))
            assert wait_started()
            second = svc.submit(JobSpec("tc"))
            assert first["status"] == "running"
            assert second["status"] == "queued"
            assert svc.stats()["workers_available"] == 0
            release()
            svc.wait_result(second["job_id"], timeout=120)
            assert svc.stats()["workers_available"] == 2

    def test_per_job_quota_is_capped(self, graph):
        with GraphService(graph, config=cfg(), worker_budget=4,
                          max_workers_per_job=2) as svc:
            record = svc.submit(JobSpec("tc", num_workers=64))
            assert record["quota"] == 2
            result = svc.wait_result(record["job_id"], timeout=120)
            assert result.num_workers == 2

    def test_queue_full_rejects_explicitly(self, graph, gate):
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2,
                          max_queue_depth=2) as svc:
            svc.submit(JobSpec("block"))
            assert wait_started()
            svc.submit(JobSpec("tc"))
            svc.submit(JobSpec("cliques"))
            with pytest.raises(JobRejectedError, match="queue is full"):
                svc.submit(JobSpec("mcf"))
            assert svc.stats()["rejected"] == 1
            release()

    def test_backlogged_tenant_cannot_starve_light_one(self, graph, gate):
        """heavy queues four jobs behind a blocker; light then submits
        one.  Stride scheduling runs light's job next — it finishes
        before every queued heavy job, despite arriving last."""
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2,
                          max_queue_depth=16) as svc:
            svc.submit(JobSpec("block", tenant="heavy"))
            assert wait_started()
            heavy = [svc.submit(JobSpec("block", {"id": n}, tenant="heavy"))
                     for n in range(1, 5)]
            light = svc.submit(JobSpec("tc", tenant="light"))
            release()
            svc.wait_result(light["job_id"], timeout=120)
            for record in heavy:
                svc.wait_result(record["job_id"], timeout=120)
            done_seq = {r["job_id"]: svc.status(r["job_id"])["done_seq"]
                        for r in heavy + [light]}
            light_seq = done_seq[light["job_id"]]
            heavy_seqs = [done_seq[r["job_id"]] for r in heavy]
            assert light_seq < max(heavy_seqs), (
                f"light tenant finished {light_seq} after the whole heavy "
                f"backlog {heavy_seqs} - starved"
            )

    def test_tenant_weights_validated(self, graph):
        with pytest.raises(ValueError, match="weight"):
            GraphService(graph, tenant_weights={"x": 0})

    def test_cancel_queued_job(self, graph, gate, oracles):
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            host, port = svc.start().address
            with ServiceClient(f"{host}:{port}") as c:
                blocker = c.submit("block")
                assert wait_started()
                queued = c.submit("tc")
                assert queued.cancel()
                assert queued.status() == "cancelled"
                with pytest.raises(JobCancelledError):
                    queued.result(timeout=5)
                release()
                assert blocker.result(timeout=120).aggregate == oracles["tc"]
                assert c.stats()["cancelled"] == 1


# -- wire robustness ------------------------------------------------------


class TestWire:
    def test_malformed_request_gets_typed_error(self, service):
        from repro.net.tcp import ControlChannel, connect_with_retry

        host, port = service.address
        chan = ControlChannel(connect_with_retry(host, port, 10.0))
        try:
            chan.send(("no-such-op", {}))
            status, body = chan.recv(timeout=10)
            assert status == "error" and body["kind"] == "bad-request"
            chan.send("not even a tuple")
            status, body = chan.recv(timeout=10)
            assert status == "error" and body["kind"] == "bad-request"
            # The connection survives garbage: a well-formed request
            # afterwards still answers.
            chan.send(("stats", {}))
            status, body = chan.recv(timeout=10)
            assert status == "ok"
        finally:
            chan.close()

    def test_shutdown_op_stops_server(self, graph):
        svc = GraphService(graph, config=cfg()).start()
        host, port = svc.address
        waiter = threading.Thread(target=svc.serve_forever, daemon=True)
        waiter.start()
        with ServiceClient(f"{host}:{port}") as c:
            c.shutdown()
        waiter.join(timeout=15)
        assert not waiter.is_alive()


# -- CLI front end --------------------------------------------------------


class TestCLI:
    def test_submit_and_jobs_roundtrip(self, service, oracles, capsys):
        from repro.cli import main

        host, port = service.address
        server = f"{host}:{port}"
        assert main(["submit", "--server", server, "--app", "tc"]) == 0
        out = capsys.readouterr().out
        assert f"aggregate    : {oracles['tc']}" in out

        assert main(["submit", "--server", server, "--app", "tc"]) == 0
        assert "(cached)" in capsys.readouterr().out

        assert main(["jobs", "--server", server, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "job-1" in out and "cache_hits" in out

    def test_submit_rejection_exits_nonzero(self, service, capsys):
        from repro.cli import main

        host, port = service.address
        rc = main(["submit", "--server", f"{host}:{port}",
                   "--app", "qc", "--param", "gamma=9"])
        assert rc == 1
        assert "rejected" in capsys.readouterr().err

    def test_cancel_subcommand(self, graph, gate, capsys):
        from repro.cli import main

        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            host, port = svc.start().address
            server = f"{host}:{port}"
            assert main(["submit", "--server", server, "--app", "block",
                         "--no-wait"]) == 0
            blocker_id = capsys.readouterr().out.split()[0]
            assert wait_started()
            assert main(["submit", "--server", server, "--app", "tc",
                         "--no-wait"]) == 0
            queued_id = capsys.readouterr().out.split()[0]
            assert main(["cancel", "--server", server, queued_id]) == 0
            out = capsys.readouterr().out
            assert "cancel accepted" in out and "cancelled" in out
            # Already terminal: the second cancel refuses, exit 1.
            assert main(["cancel", "--server", server, queued_id]) == 1
            assert "not cancellable" in capsys.readouterr().err
            release()
            svc.wait_result(blocker_id, timeout=120)


# -- running-job cancellation --------------------------------------------


class TestRunningCancel:
    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_cancel_running_job_readmits_quota(self, graph, runtime):
        """The acceptance proof: cancel a running job mid-mining and the
        quota it held funds a queued follower — settled in done_seq
        order (victim first), no budget leak."""
        with GraphService(graph, config=slow_cfg(), runtime=runtime,
                          worker_budget=2) as svc:
            victim = svc.submit(JobSpec("slow"))
            assert _wait_status(svc, victim["job_id"], "running")
            follower = svc.submit(JobSpec("tc"))
            assert follower["status"] == "queued"
            time.sleep(0.05)  # let it actually mine a little
            assert svc.cancel(victim["job_id"])
            # The follower only runs once the victim's quota comes back.
            result = svc.wait_result(follower["job_id"], timeout=120)
            assert result.aggregate == count_triangles(graph)
            with pytest.raises(JobCancelledError):
                svc.wait_result(victim["job_id"], timeout=30)
            v_rec = svc.status(victim["job_id"])
            f_rec = svc.status(follower["job_id"])
            assert v_rec["status"] == "cancelled"
            assert v_rec["done_seq"] < f_rec["done_seq"]
            stats = svc.stats()
            assert stats["workers_available"] == 2
            assert stats["cancelled"] == 1


# -- in-flight dedup ------------------------------------------------------


class TestInflightDedup:
    def test_identical_submissions_execute_once(self, graph, gate):
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            first = svc.submit(JobSpec("block", tenant="a"))
            assert wait_started()
            second = svc.submit(JobSpec("block", tenant="b"))
            third = svc.submit(JobSpec("block", tenant="c"))
            assert not first["deduped"]
            assert second["deduped"] and third["deduped"]
            assert second["status"] == "running"  # attached, not queued
            release()
            answers = [svc.wait_result(r["job_id"], timeout=120)
                       for r in (first, second, third)]
            assert len({a.aggregate for a in answers}) == 1
            stats = svc.stats()
            assert stats["executed"] == 1
            assert stats["deduped"] == 2
            assert stats["completed"] == 3
            assert stats["workers_available"] == 2

    def test_dedup_attaches_while_queued(self, graph, gate):
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            svc.submit(JobSpec("block"))
            assert wait_started()
            q1 = svc.submit(JobSpec("tc"))
            q2 = svc.submit(JobSpec("tc"))
            assert q1["status"] == q2["status"] == "queued"
            assert q2["deduped"] and not q1["deduped"]
            assert svc.stats()["queued"] == 1  # one execution, two records
            release()
            r1 = svc.wait_result(q1["job_id"], timeout=120)
            r2 = svc.wait_result(q2["job_id"], timeout=120)
            assert r1.aggregate == r2.aggregate == count_triangles(graph)
            assert svc.stats()["executed"] == 2  # block + one tc

    def test_cancel_one_subscriber_spares_the_execution(self, graph, gate):
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            first = svc.submit(JobSpec("block", tenant="a"))
            assert wait_started()
            second = svc.submit(JobSpec("block", tenant="b"))
            assert svc.cancel(second["job_id"])
            rec = svc.status(second["job_id"])
            assert rec["status"] == "cancelled"
            assert rec["done_seq"] is not None
            release()
            # The shared execution keeps mining for its live subscriber.
            assert svc.wait_result(first["job_id"], timeout=120) is not None
            stats = svc.stats()
            assert stats["cancelled"] == 1
            assert stats["completed"] == 1
            assert stats["executed"] == 1

    def test_last_subscriber_cancel_kills_execution(self, graph):
        with GraphService(graph, config=slow_cfg(), runtime="threaded",
                          worker_budget=2) as svc:
            first = svc.submit(JobSpec("slow"))
            assert _wait_status(svc, first["job_id"], "running")
            second = svc.submit(JobSpec("slow"))
            assert second["deduped"]
            assert svc.cancel(second["job_id"])  # execution survives
            assert svc.cancel(first["job_id"])   # last subscriber: kill it
            with pytest.raises(JobCancelledError):
                svc.wait_result(first["job_id"], timeout=30)
            # The record settles at cancel time; the quota comes back
            # once the abort lands at the next sync boundary.
            deadline = time.monotonic() + 30
            while (svc.stats()["workers_available"] != 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert svc.stats()["workers_available"] == 2
            assert svc.stats()["inflight"] == 0
            # A fresh identical submission must NOT attach to the dying
            # execution: it runs (or queues) anew.
            again = svc.submit(JobSpec("slow"))
            assert not again["deduped"]
            svc.cancel(again["job_id"])


# -- the persistent result cache ------------------------------------------


class TestPersistentCache:
    def test_restart_serves_from_disk_with_zero_rounds(self, graph, oracles,
                                                       tmp_path):
        cache_dir = str(tmp_path / "results")
        with GraphService(graph, config=cfg(),
                          cache_dir=cache_dir) as svc:
            record = svc.submit(JobSpec("tc"))
            svc.wait_result(record["job_id"], timeout=120)
        # A brand-new service over the same graph + cache dir: the
        # repeat answers from disk without touching a worker.
        with GraphService(graph, config=cfg(),
                          cache_dir=cache_dir) as svc2:
            again = svc2.submit(JobSpec("tc"))
            assert again["cached"]
            assert again["mining_rounds"] == 0
            result = svc2.wait_result(again["job_id"], timeout=10)
            assert result.aggregate == oracles["tc"]
            stats = svc2.stats()
            assert stats["executed"] == 0
            assert stats["cache_hits"] == 1
            assert stats["cache_disk_entries"] >= 1

    def test_digest_mismatch_invalidates_stale_files(self, graph, tmp_path):
        cache_dir = str(tmp_path / "results")
        with GraphService(graph, config=cfg(), cache_dir=cache_dir) as svc:
            record = svc.submit(JobSpec("tc"))
            svc.wait_result(record["job_id"], timeout=120)
            assert svc.stats()["cache_disk_entries"] == 1
        other = erdos_renyi(40, 0.2, seed=99)
        with GraphService(other, config=cfg(), cache_dir=cache_dir) as svc2:
            fresh = svc2.submit(JobSpec("tc"))
            assert not fresh["cached"]  # different digest: a true miss
            assert (svc2.wait_result(fresh["job_id"], timeout=120).aggregate
                    == count_triangles(other))

    def test_corrupt_file_is_a_miss_and_self_cleans(self, tmp_path):
        cache = ResultCache(8, "digest-a", cache_dir=str(tmp_path))
        cache.put("deadbeef", {"answer": 42})
        assert cache.disk_entries() == 1
        (tmp_path / "deadbeef.pkl").write_bytes(b"not a pickle")
        fresh = ResultCache(8, "digest-a", cache_dir=str(tmp_path))
        assert fresh.get("deadbeef") is None
        assert fresh.disk_entries() == 0  # the bad file was discarded

    def test_wrong_digest_file_is_discarded(self, tmp_path):
        ResultCache(8, "digest-a", cache_dir=str(tmp_path)).put("k1", "v1")
        cache_b = ResultCache(8, "digest-b", cache_dir=str(tmp_path))
        assert cache_b.get("k1") is None
        assert cache_b.disk_entries() == 0

    def test_disk_survives_memory_eviction(self, tmp_path):
        cache = ResultCache(1, "d", cache_dir=str(tmp_path))
        cache.put("k1", "v1")
        cache.put("k2", "v2")  # evicts k1 from the LRU
        assert len(cache) == 1
        assert cache.get("k1") == "v1"  # reloaded from disk

    def test_capacity_zero_disables_disk_too(self, tmp_path):
        cache = ResultCache(0, "d", cache_dir=str(tmp_path))
        cache.put("k1", "v1")
        assert cache.get("k1") is None
        assert cache.disk_entries() == 0
        assert not list(tmp_path.iterdir())


# -- service-layer regression fixes ---------------------------------------


class TestServiceBugfixes:
    def test_submit_after_close_is_a_typed_rejection(self, graph):
        svc = GraphService(graph, config=cfg(), worker_budget=2)
        svc.close()
        with pytest.raises(ServiceError, match="shut down"):
            svc.submit(JobSpec("tc"))
        # Rejected *before* any scheduler mutation: no ghost record, no
        # leaked budget, nothing counted as submitted.
        stats = svc.stats()
        assert stats["submitted"] == 0
        assert stats["workers_available"] == 2
        assert svc.jobs() == []

    def test_dispatch_failure_restores_budget_and_fails_record(self, graph):
        svc = GraphService(graph, config=cfg(), worker_budget=2)
        try:
            # Close the session behind the scheduler's back — the race
            # close() used to lose: Session.submit raises mid-dispatch.
            svc._session.close(wait=True)
            record = svc.submit(JobSpec("tc"))
            assert svc.status(record["job_id"])["status"] == "failed"
            assert "dispatch failed" in svc.status(record["job_id"])["error"]
            with pytest.raises(ServiceError, match="dispatch failed"):
                svc.wait_result(record["job_id"], timeout=5)
            stats = svc.stats()
            assert stats["workers_available"] == 2  # budget restored
            assert stats["executed"] == 0
            assert stats["failed"] == 1
        finally:
            svc.close()

    def test_queued_cancel_stamps_done_seq(self, graph, gate):
        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            blocker = svc.submit(JobSpec("block"))
            assert wait_started()
            queued = svc.submit(JobSpec("tc"))
            assert svc.cancel(queued["job_id"])
            cancelled_rec = svc.status(queued["job_id"])
            assert cancelled_rec["done_seq"] is not None
            release()
            svc.wait_result(blocker["job_id"], timeout=120)
            # Completion ordering is observable: the cancel settled first.
            assert (svc.status(blocker["job_id"])["done_seq"]
                    > cancelled_rec["done_seq"])

    def test_internal_error_reply_keeps_connection_alive(self, service):
        from repro.net.tcp import ControlChannel, connect_with_retry

        host, port = service.address
        chan = ControlChannel(connect_with_retry(host, port, 10.0))
        try:
            # A payload that explodes inside the handler (dict("...")
            # raises ValueError) must cost one request, not the socket.
            chan.send(("submit", {"app": "tc", "params": "notadict"}))
            status, body = chan.recv(timeout=10)
            assert status == "error" and body["kind"] == "internal"
            chan.send(("stats", {}))
            status, _body = chan.recv(timeout=10)
            assert status == "ok"
        finally:
            chan.close()

    def test_connection_tracking_is_bounded(self, graph):
        with GraphService(graph, config=cfg(), worker_budget=2) as svc:
            host, port = svc.start().address
            for _ in range(8):
                with ServiceClient(f"{host}:{port}") as c:
                    c.server_info()
            with ServiceClient(f"{host}:{port}") as c:
                # The accept loop reaps finished handler threads, so 8
                # dead connections must not linger in the tracking lists.
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if c.stats()["open_connections"] <= 2:
                        break
                    time.sleep(0.05)
                assert c.stats()["open_connections"] <= 2
            with svc._conn_lock:
                assert len(svc._conn_threads) <= 3
                assert len(svc._channels) <= 3

    def test_drained_tenants_are_pruned(self, graph):
        with GraphService(graph, config=cfg(), worker_budget=2,
                          result_cache_size=0) as svc:
            for n in range(6):
                record = svc.submit(JobSpec("tc", tenant=f"tenant-{n}"))
                svc.wait_result(record["job_id"], timeout=120)
            # Every tenant has drained; the stride-scheduler maps must
            # not keep one entry per tenant that ever submitted.
            assert svc.stats()["tracked_tenants"] == 0
            assert svc.stats()["queued"] == 0

    def test_finished_records_are_bounded(self, graph, oracles):
        """Only the newest finished records are kept; live ones always."""
        from repro.service.server import MAX_FINISHED_RECORDS as KEEP

        with GraphService(graph, config=cfg(num_workers=1, compers_per_worker=1),
                          worker_budget=2) as svc:
            host, port = svc.address
            with ServiceClient(f"{host}:{port}") as c:
                first = c.submit("tc")
                assert first.result(timeout=120).aggregate == oracles["tc"]
                handles = [c.submit("tc") for _ in range(KEEP + 40)]  # cache hits
                assert len(c.jobs()) <= KEEP
                # The newest results are still there ...
                for h in handles[-KEEP + 1:]:
                    assert h.result(timeout=120).aggregate == oracles["tc"]
                assert c.status(handles[-1].job_id)["status"] == "done"
                # ... the oldest answer exactly like an id never issued.
                for gone in (first.job_id, handles[0].job_id):
                    with pytest.raises(ServiceError, match="no such job"):
                        c.status(gone)
                    with pytest.raises(ServiceError, match="no such job"):
                        c.result(gone, timeout=1)

    def test_live_records_survive_eviction(self, graph, gate):
        from repro.service.server import MAX_FINISHED_RECORDS as KEEP

        wait_started, release = gate
        with GraphService(graph, config=cfg(), worker_budget=4) as svc:
            blocked = svc.submit(JobSpec("block", {"id": 1}, num_workers=1))
            assert wait_started()
            warm = svc.submit(JobSpec("tc", num_workers=1))
            svc.wait_result(warm["job_id"], timeout=120)
            for _ in range(KEEP + 5):
                svc.submit(JobSpec("tc", num_workers=1))  # cache hits
            assert svc.status(blocked["job_id"])["status"] == "running"
            release()
            assert svc.wait_result(blocked["job_id"], timeout=120) is not None
            assert len(svc.jobs()) <= KEEP + 1

    def test_gm_query_is_built_once_per_submit(self, service, monkeypatch):
        from repro.service import jobs

        built = []
        real = jobs.QueryGraph

        def counting(*args, **kwargs):
            built.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs, "QueryGraph", counting)
        record = service.submit(JobSpec("gm", {"query_edges": TRIANGLE_EDGES}))
        assert built == [1]
        service.wait_result(record["job_id"], timeout=120)

    @pytest.mark.parametrize("edges", [
        [[i, i + 1] for i in range(11)],                         # 12-path
        [[a, b] for a in range(12) for b in range(a + 1, 12)],   # K12
    ])
    def test_twelve_vertex_query_admission_is_fast(self, service, edges):
        """Admission runs on the connection thread: a big query must
        not stall it (the permutation walk took minutes at 12)."""
        t0 = time.perf_counter()
        assert jobs_module.admit(service.digest, "gm",
                                 {"query_edges": edges})[0] is not None
        assert time.perf_counter() - t0 < 0.5

    def test_unmatchable_gm_queries_reject_at_admission(self, service):
        with pytest.raises(JobRejectedError, match="connected"):
            service.submit(JobSpec("gm", {"query_edges": [[0, 1], [2, 3]]}))
        with pytest.raises(JobRejectedError, match="empty"):
            service.submit(JobSpec("gm", {"query_edges": [[4, 4]]}))
