"""Unit tests for the per-worker communication service."""

import pytest

from repro.core.api import Comper, Task, VertexView
from repro.core.comm import RESPONSE_CHUNK
from repro.core.config import GThinkerConfig
from repro.core.job import build_cluster
from repro.graph import Graph, hash_partition
from repro.net import RequestBatch, ResponseBatch, TaskBatchTransfer


class Quiet(Comper):
    def task_spawn(self, v):
        pass

    def compute(self, task, frontier):
        return False


def make_cluster(num_workers=2, path_length=30, compers_per_worker=1,
                 **overrides):
    g = Graph.from_edges([(i, i + 1) for i in range(path_length)])
    cfg = GThinkerConfig(num_workers=num_workers,
                         compers_per_worker=compers_per_worker,
                         task_batch_size=4, cache_capacity=64, cache_buckets=8,
                         **overrides)
    return build_cluster(Quiet, g, cfg), g


def remote_vertex_of(worker, graph):
    """Some graph vertex not owned by `worker`."""
    return next(
        v for v in graph.vertices()
        if hash_partition(v, worker.num_workers) != worker.worker_id
    )


def park_pulls(engines, pulls):
    """One task per engine, each pulling ``pulls``; each engine parks
    its task in one round (nothing answers, so none resumes)."""
    for engine in engines:
        task = Task(context="x")
        task.pull_many(pulls)
        engine.add_task(task)
    for engine in engines:
        assert engine.step()


def test_queue_and_flush_batches():
    """Tasks on two compers pull one remote vertex in one flush window:
    the R-table puts exactly one id on the wire and counts the second
    pull as a duplicate miss, waiting on the first."""
    (cluster, g) = make_cluster(compers_per_worker=2)
    w0 = cluster.workers[0]
    v = remote_vertex_of(w0, g)
    park_pulls(w0.engines, [v])
    assert w0.comm.pending_outgoing() == 1
    w0.flush_for_status()  # publishes the cache's per-bucket counters
    assert cluster.metrics.get("cache:miss_first") == 1
    assert cluster.metrics.get("cache:miss_duplicate") == 1
    assert cluster.metrics.get("comm:requests_queued") == 1
    assert cluster.metrics.get("comm:requests_deduped") == 0
    w0.comm.step()
    assert w0.comm.pending_outgoing() == 0
    owner = cluster.workers[hash_partition(v, 2)]
    msgs = cluster.transport.poll(owner.worker_id)
    assert len(msgs) == 1  # one batch with one id
    assert msgs[0].vertex_ids == [v]


def test_queue_requests_bulk_dedups_across_destinations():
    """Tasks on two compers pull the same remote vertices, owned by two
    other workers, in one flush window: each destination gets each of
    its ids once, and the R-table keeps suppressing re-requests after
    the flush, until the response lands."""
    (cluster, g) = make_cluster(num_workers=3, compers_per_worker=2)
    w0 = cluster.workers[0]
    remote = ([v for v in g.vertices() if hash_partition(v, 3) == 1][:3]
              + [v for v in g.vertices() if hash_partition(v, 3) == 2][:3])
    park_pulls(w0.engines, remote)
    assert w0.comm.pending_outgoing() == len(remote)
    w0.comm.step()
    for dst in (1, 2):
        (msg,) = cluster.transport.poll(dst)
        assert msg.vertex_ids == [v for v in remote
                                  if hash_partition(v, 3) == dst]
    park_pulls(w0.engines[:1], remote[:1])  # a third task, after the flush
    assert w0.comm.pending_outgoing() == 0
    w0.flush_for_status()
    assert cluster.metrics.get("comm:requests_queued") == len(remote)
    assert cluster.metrics.get("cache:miss_first") == len(remote)
    assert cluster.metrics.get("cache:miss_duplicate") == len(remote) + 1
    assert cluster.metrics.get("comm:requests_deduped") == 0


def test_request_served_from_local_table():
    (cluster, g) = make_cluster()
    w0, w1 = cluster.workers
    v = next(x for x in g.vertices() if w1.owns_vertex(x))
    cluster.transport.send(RequestBatch(src=0, dst=1, vertex_ids=[v]))
    w1.comm.step()  # serves the request
    responses = cluster.transport.poll(0)
    assert len(responses) == 1
    ((vid, label, adj),) = responses[0].iter_rows()
    assert vid == v
    assert tuple(adj) == g.neighbors(v)


def test_response_chunking():
    (cluster, g) = make_cluster(path_length=2 * RESPONSE_CHUNK + 200)
    w0, w1 = cluster.workers
    owned = [v for v in g.vertices() if w1.owns_vertex(v)]
    assert len(owned) > RESPONSE_CHUNK
    cluster.transport.send(RequestBatch(src=0, dst=1, vertex_ids=owned))
    w1.comm.step()
    responses = cluster.transport.poll(0)
    assert [len(r.ids) for r in responses] == [RESPONSE_CHUNK, len(owned) - RESPONSE_CHUNK]
    assert sum(len(r.ids) for r in responses) == len(owned)
    served = [vid for r in responses for (vid, _l, _a) in r.iter_rows()]
    assert served == owned


def test_serve_dedups_duplicate_ids_in_batch():
    (cluster, g) = make_cluster()
    w0, w1 = cluster.workers
    owned = [v for v in g.vertices() if w1.owns_vertex(v)][:5]
    cluster.transport.send(
        RequestBatch(src=0, dst=1, vertex_ids=owned + owned)
    )
    w1.comm.step()
    responses = cluster.transport.poll(0)
    served = [vid for r in responses for (vid, _l, _a) in r.iter_rows()]
    assert served == owned  # each unique vertex answered exactly once
    assert cluster.metrics.get("comm:requests_served") == len(owned)
    assert cluster.metrics.get("comm:requests_deduped") == len(owned)


def test_response_wakes_pending_task():
    (cluster, g) = make_cluster()
    w0 = cluster.workers[0]
    engine = w0.engines[0]
    v = remote_vertex_of(w0, g)
    task = Task(context="x")
    task.pull(v)
    engine.add_task(task)
    assert engine.step()  # pop -> park + request
    assert len(engine.t_task) == 1
    w0.comm.step()  # flush the request
    owner = cluster.workers[hash_partition(v, 2)]
    owner.comm.step()  # serve it
    w0.comm.step()  # receive: cache insert + notify
    assert len(engine.t_task) == 0
    assert len(engine.b_task) == 1
    assert engine.b_task.get() is task


def test_one_batch_wakes_tasks_in_order_of_their_last_arrival():
    """One ResponseBatch answers vertices that three parked tasks share.
    Each task gets one delivery with all its views, and the tasks reach
    B_task in the order a per-vertex notification made them ready: by
    their *last* arrival in the batch, not their first."""
    (cluster, g) = make_cluster()
    w0, w1 = cluster.workers
    engine = w0.engines[0]
    a, b, c = [v for v in g.vertices() if w1.owns_vertex(v)][:3]
    pulls = {"t1": [a, b], "t2": [b, c], "t3": [c, a]}
    for name, vs in pulls.items():
        task = Task(context=name)
        task.pull_many(vs)
        engine.add_task(task)
    for _ in pulls:
        assert engine.step()  # park t1, t2, t3 in that order
    assert len(engine.t_task) == 3
    batch = [a, b, c]
    cluster.transport.send(ResponseBatch.from_rows(
        1, 0, [(v, 0, g.neighbors(v)) for v in batch]))
    w0.comm.step()
    # Per-vertex reference: each arrival notifies its waiters in park
    # order; a task is ready at the arrival that completes it.
    met, expected = dict.fromkeys(pulls, 0), []
    for v in batch:
        for name, vs in pulls.items():
            if v in vs:
                met[name] += 1
                if met[name] == len(vs):
                    expected.append(name)
    assert expected == ["t1", "t2", "t3"]  # first arrival: t1, t3, t2
    ready = engine.b_task.get_batch(10)
    assert [t.context for t in ready] == expected
    for t in ready:
        assert sorted(t.views_in_flight) == sorted(pulls[t.context])
        assert all(view.adj.tolist() == list(g.neighbors(v))
                   for v, view in t.views_in_flight.items())


def test_task_batch_lands_in_lfile():
    (cluster, g) = make_cluster()
    from repro.core.containers import serialize_tasks

    payload = serialize_tasks([Task(context=1), Task(context=2)])
    cluster.transport.send(
        TaskBatchTransfer(src=1, dst=0, payload=payload, num_tasks=2)
    )
    w0 = cluster.workers[0]
    w0.comm.step()
    assert w0.l_file.num_tasks_on_disk() == 2
    tasks = w0.l_file.take_file()
    assert [t.context for t in tasks] == [1, 2]


def test_unknown_message_type_rejected():
    (cluster, g) = make_cluster()

    class Weird:
        src, dst = 0, 0

        def size_bytes(self):
            return 0

    cluster.transport._mailboxes[0].queue.append((0.0, Weird()))
    with pytest.raises(TypeError):
        cluster.workers[0].comm._dispatch(Weird(), now=0.0)
