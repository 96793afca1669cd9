"""Pull-path regressions: lock-acquisition counts, message counts, and
the pull-path constants (response chunk, idle backoff).

The metrics-backed guarantees of the batched pull path: the bulk pull
path (the only engine path) must do the *same work* as its per-vertex
OP1–OP3 decomposition — what ``CheckedVertexCache`` turns every bulk
call into — down to the bucket-lock acquisitions (one per vertex op,
the paper's OP granularity), and R-table/serve dedup must put strictly
fewer ids and messages on the wire.
"""

from repro.algorithms import count_triangles
from repro.apps import TriangleCountComper
from repro.core import GThinkerConfig, run_job
from repro.core.api import Comper, Task
from repro.core.comm import RESPONSE_CHUNK
from repro.core.config import IDLE_BACKOFF_MAX_S, IDLE_SLEEP_S
from repro.core.job import build_cluster
from repro.graph import erdos_renyi
from repro.net import RequestBatch


def cfg(**kw):
    base = dict(num_workers=2, compers_per_worker=2, task_batch_size=4,
                cache_capacity=64, cache_buckets=8, decompose_threshold=16)
    base.update(kw)
    return GThinkerConfig(**base)


# -- bulk vs per-vertex: same answer, same lock acquisitions ------------------


def test_bulk_path_takes_one_bucket_lock_per_vertex_op():
    """Same serial schedule twice: plain ``VertexCache`` (bulk ops) vs
    ``CheckedVertexCache``, which decomposes every bulk call into the
    reference per-vertex ``request`` / ``insert_response`` /
    ``release`` — that decomposition *is* the equivalence contract,
    down to one bucket-lock acquisition per vertex op."""
    g = erdos_renyi(80, 0.15, seed=21)
    expected = count_triangles(g)
    bulk = run_job(TriangleCountComper, g, cfg(), runtime="serial")
    per_vertex = run_job(TriangleCountComper, g, cfg(check_protocols=True),
                         runtime="serial")
    assert bulk.aggregate == per_vertex.aggregate == expected
    a = bulk.metrics.get("cache:bucket_lock_acquisitions")
    b = per_vertex.metrics.get("cache:bucket_lock_acquisitions")
    assert a and b, "lock metric missing from job results"
    assert a == b, f"bulk path took {a} lock acquisitions vs {b} per-vertex"
    # Same protocol traffic either way: the batching is invisible to the
    # OP1/OP2/OP3 ledger.
    for key in ("cache:hits", "cache:miss_first", "cache:miss_duplicate",
                "cache:evictions", "cache:responses"):
        assert bulk.metrics.get(key) == per_vertex.metrics.get(key), key


def test_bulk_path_same_lock_metric_under_process_runtime():
    """The process runtime commits lock metrics through the worker-side
    sync/stop handlers; the metric must survive the merge."""
    g = erdos_renyi(60, 0.15, seed=3)
    res = run_job(TriangleCountComper, g, cfg(), runtime="process")
    assert res.aggregate == count_triangles(g)
    assert res.metrics.get("cache:bucket_lock_acquisitions", 0) > 0
    assert res.metrics.get("ipc:batches", 0) > 0


# -- dedup: strictly fewer messages on the wire -------------------------------


def test_serve_dedup_sends_fewer_response_messages():
    """A duplicate-heavy request batch is answered once per unique id,
    so chunked serving emits fewer ResponseBatch messages than the
    per-vertex baseline (one answer per requested id) would."""
    g = erdos_renyi(2 * RESPONSE_CHUNK + 400, 0.001, seed=5)
    cluster = build_cluster(TriangleCountComper, g, cfg())
    w1 = cluster.workers[1]
    owned = [v for v in g.vertices() if w1.owns_vertex(v)][:RESPONSE_CHUNK + 1]
    assert len(owned) == RESPONSE_CHUNK + 1
    requested = owned * 2  # 2 * (chunk + 1) ids, chunk + 1 unique
    cluster.transport.send(RequestBatch(src=0, dst=1, vertex_ids=requested))
    w1.comm.step()
    responses = cluster.transport.poll(0)
    baseline_msgs = -(-len(requested) // RESPONSE_CHUNK)  # 3 without dedup
    assert len(responses) == 2 < baseline_msgs
    served = [v for r in responses for (v, _l, _a) in r.iter_rows()]
    assert served == owned
    assert cluster.metrics.get("comm:requests_served") == len(owned)


class ParkOnly(Comper):
    """Spawns nothing; the test adds the tasks."""

    def task_spawn(self, v):
        pass

    def compute(self, task, frontier):
        return False


def test_queue_dedup_sends_fewer_request_ids():
    """Three tasks on two compers pull the same four remote vertices in
    one flush window: 12 pulls, and the R-table puts each id on the wire
    once, counting the other 8 as duplicate misses."""
    g = erdos_renyi(40, 0.2, seed=5)
    cluster = build_cluster(ParkOnly, g, cfg())
    w0 = cluster.workers[0]
    a, b = w0.engines
    remote = [v for v in g.vertices() if not w0.owns_vertex(v)][:4]
    for engine in (a, a, b):
        task = Task()
        task.pull_many(remote)
        engine.add_task(task)
    for engine in (a, a, b):
        assert engine.step()  # park: no response comes back
    assert w0.comm.pending_outgoing() == len(remote)
    w0.comm.step()
    msgs = cluster.transport.poll(1)
    assert sorted(v for m in msgs for v in m.vertex_ids) == sorted(remote)
    w0.flush_for_status()
    m = cluster.metrics
    assert m.get("cache:miss_first") == m.get("comm:requests_queued") == 4
    assert m.get("cache:miss_duplicate") == 2 * len(remote)
    assert m.get("comm:requests_deduped") == 0


# -- batching: pulls travel in real batches on every runtime ------------------


def test_serial_pulls_travel_in_batches():
    """The serial loop runs the same burst round as a node, so a flush
    carries the pulls of a whole burst of parked tasks.  With the cache
    far below the working set nearly every pull is a wire request; one
    task per comm step put roughly one message on the wire per 1.5
    pulls."""
    n = 1500
    g = erdos_renyi(n, 10 / (n - 1), seed=9)
    res = run_job(TriangleCountComper, g,
                  GThinkerConfig(num_workers=2, compers_per_worker=1,
                                 cache_capacity=n // 20),
                  runtime="serial")
    assert res.aggregate == count_triangles(g)
    pulls = res.metrics.get("comm:requests_queued")
    assert res.metrics.get("cache:evictions") > res.metrics.get("cache:hits")
    assert res.metrics.get("net:messages") <= pulls / 8


# -- constants ----------------------------------------------------------------


def test_pull_path_defaults():
    assert RESPONSE_CHUNK == 4096
    assert IDLE_BACKOFF_MAX_S >= IDLE_SLEEP_S > 0
