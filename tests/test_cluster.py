"""``runtime="cluster"``: TCP framing, transport contract, end-to-end
answers vs the serial oracle, node-loss recovery, and attach mode.

The end-to-end tests run a real 2-node localhost cluster — every node a
separate OS process, every byte over real sockets — so the assertions
here cover exactly what a multi-host deployment would exercise, minus
the physical network.
"""

import functools
import multiprocessing as mp
import pickle
import socket
import time

import pytest

from repro.algorithms import (
    count_matches,
    count_triangles,
    max_clique_reference,
    triangle_query,
)
from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.apps.match import SubgraphMatchComper
from repro.core import (
    FailurePlanConfig,
    GThinkerConfig,
    JobAbortedError,
    run_job,
    resume_job,
)
from repro.core.errors import WireDecodeError
from repro.core import available_runtimes, get_runtime
from repro.graph import erdos_renyi
from repro.net.message import RequestBatch, ResponseBatch
from repro.net.tcp import (
    MAX_FRAME_BYTES,
    ChannelClosed,
    ControlChannel,
    TcpTransport,
    connect_with_retry,
)


def cfg(**kw):
    base = dict(
        num_workers=2,
        compers_per_worker=2,
        task_batch_size=4,
        cache_capacity=256,
        cache_buckets=16,
        aggregator_sync_period_s=0.005,
        control_reply_timeout_s=30.0,
    )
    base.update(kw)
    return GThinkerConfig(**base)


# ---------------------------------------------------------------------------
# ControlChannel framing
# ---------------------------------------------------------------------------


def _channel_pair():
    a, b = socket.socketpair()
    return ControlChannel(a), ControlChannel(b)


class TestControlChannel:
    def test_object_roundtrip(self):
        a, b = _channel_pair()
        a.send(("sync", {"value": 3}))
        a.send(("steal", 1, 8))
        assert b.recv(timeout=5.0) == ("sync", {"value": 3})
        assert b.recv(timeout=5.0) == ("steal", 1, 8)

    def test_clean_close_raises_channel_closed(self):
        a, b = _channel_pair()
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv(timeout=5.0)

    def test_buffered_frames_survive_peer_close(self):
        # A node sends its final report and exits immediately; the FIN
        # racing the read must not eat the report.
        a, b = _channel_pair()
        a.send(("final", [1, 2, 3]))
        a.close()
        assert b.recv(timeout=5.0) == ("final", [1, 2, 3])
        with pytest.raises(ChannelClosed):
            b.recv(timeout=5.0)

    def test_close_mid_frame_is_decode_error(self):
        a, b = _channel_pair()
        payload = pickle.dumps(("hello", 0))
        # Length prefix promises more bytes than are ever sent.
        a._sock.sendall(len(payload).to_bytes(8, "little") + payload[:3])
        a.close()
        with pytest.raises(WireDecodeError):
            b.recv(timeout=5.0)

    def test_insane_length_prefix_is_decode_error(self):
        a, b = _channel_pair()
        a._sock.sendall((MAX_FRAME_BYTES + 1).to_bytes(8, "little"))
        with pytest.raises(WireDecodeError):
            b.recv(timeout=5.0)

    def test_garbage_payload_is_decode_error(self):
        a, b = _channel_pair()
        junk = b"\x00not a pickle at all"
        a._sock.sendall(len(junk).to_bytes(8, "little") + junk)
        with pytest.raises(WireDecodeError):
            b.recv(timeout=5.0)


# ---------------------------------------------------------------------------
# TcpTransport: the ProcessTransport contract over sockets
# ---------------------------------------------------------------------------


def _transport_pair(**kw):
    t0 = TcpTransport(0, 2, **kw)
    t1 = TcpTransport(1, 2, **kw)
    peers = [f"127.0.0.1:{t0.data_port}", f"127.0.0.1:{t1.data_port}"]
    t0.set_peers(peers)
    t1.set_peers(peers)
    return t0, t1


def _poll_until(transport, node_id, n, timeout=5.0):
    got = []
    deadline = time.monotonic() + timeout
    while len(got) < n and time.monotonic() < deadline:
        got.extend(transport.poll(node_id))
        time.sleep(0.001)
    return got


class TestTcpTransport:
    def test_roundtrip_binary_codec(self):
        t0, t1 = _transport_pair()
        try:
            t0.send(RequestBatch(src=0, dst=1, vertex_ids=[3, 5, 7]))
            t0.send(ResponseBatch.from_rows(
                0, 1, [(3, 1, [4, 5]), (5, 0, [])]
            ))
            t0.flush_outgoing()
            got = _poll_until(t1, 1, 2)
            assert isinstance(got[0], RequestBatch)
            assert list(got[0].vertex_ids) == [3, 5, 7]
            assert isinstance(got[1], ResponseBatch)
            # Received counts dispatched messages, not polled ones.
            assert t0.sent_count == 2 and t1.received_count == 0
            for _ in got:
                t1.mark_received(1)
            assert t1.received_count == 2
        finally:
            t0.close()
            t1.close()

    def test_loopback_self_send_counts_symmetrically(self):
        t0, t1 = _transport_pair()
        try:
            t0.send(RequestBatch(src=0, dst=0, vertex_ids=[1]))
            assert t0.sent_count == 1
            got = _poll_until(t0, 0, 1)
            assert list(got[0].vertex_ids) == [1]
            t0.mark_received(0)
            assert t0.received_count == 1
        finally:
            t0.close()
            t1.close()

    def test_corrupt_stream_raises_wire_decode_error(self):
        t0, t1 = _transport_pair()
        try:
            junk = b"\x93garbage that is neither GTWIRE nor a pickle"
            with socket.create_connection(("127.0.0.1", t1.data_port)) as s:
                s.sendall(len(junk).to_bytes(8, "little") + junk)
                deadline = time.monotonic() + 5.0
                with pytest.raises(WireDecodeError):
                    while time.monotonic() < deadline:
                        t1.poll(1)
                        time.sleep(0.001)
        finally:
            t0.close()
            t1.close()

    def test_insane_frame_length_raises_wire_decode_error(self):
        t0, t1 = _transport_pair()
        try:
            with socket.create_connection(("127.0.0.1", t1.data_port)) as s:
                s.sendall((MAX_FRAME_BYTES + 7).to_bytes(8, "little"))
                deadline = time.monotonic() + 5.0
                with pytest.raises(WireDecodeError):
                    while time.monotonic() < deadline:
                        t1.poll(1)
                        time.sleep(0.001)
        finally:
            t0.close()
            t1.close()

    def test_byte_metrics_split_by_locality(self):
        from repro.core.metrics import MetricsRegistry

        m = MetricsRegistry()
        t0 = TcpTransport(0, 2, metrics=m)
        t1 = TcpTransport(1, 2)
        try:
            peers = [f"127.0.0.1:{t0.data_port}", f"127.0.0.1:{t1.data_port}"]
            t0.set_peers(peers)
            t0.send(RequestBatch(src=0, dst=0, vertex_ids=[1]))  # self
            t0.send(RequestBatch(src=0, dst=1, vertex_ids=[2]))  # same host
            snap = m.snapshot()
            assert snap["net:bytes_local"] > 0
            assert snap["net:bytes_same_host"] > 0
            assert "net:bytes_cross_host" not in snap
        finally:
            t0.close()
            t1.close()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_cluster_runtime_registered_with_full_capabilities():
    assert "cluster" in available_runtimes()
    caps = get_runtime("cluster").capabilities
    assert caps.checkpointing and caps.failure_injection


# ---------------------------------------------------------------------------
# End-to-end: 2-node localhost cluster vs the serial oracle
# ---------------------------------------------------------------------------


def test_cluster_triangle_count_matches_serial_oracle():
    g = erdos_renyi(70, 0.12, seed=11)
    res = run_job(TriangleCountComper, g, cfg(), runtime="cluster")
    assert res.aggregate == count_triangles(g)
    assert res.num_workers == 2
    assert res.metrics.get("tcp:frames", 0) > 0


def test_cluster_max_clique_matches_reference():
    g = erdos_renyi(40, 0.25, seed=5)
    res = run_job(MaxCliqueComper, g, cfg(), runtime="cluster")
    assert len(res.aggregate) == len(max_clique_reference(g))


def test_cluster_subgraph_matching_matches_oracle():
    g = erdos_renyi(50, 0.15, seed=9)
    q = triangle_query()
    factory = functools.partial(SubgraphMatchComper, q)
    res = run_job(factory, g, cfg(), runtime="cluster")
    assert res.aggregate == count_matches(g, q)


def test_cluster_kill_node_recovers_to_oracle():
    """An injected node kill (a silent os._exit, exactly a machine loss)
    must roll the job back to the last sync-barrier checkpoint and still
    produce the oracle answer."""
    g = erdos_renyi(70, 0.12, seed=11)
    config = cfg(
        checkpoint_every_syncs=2,
        failure_plan=FailurePlanConfig(when="sync", at_count=2, kill_worker=1),
    )
    res = run_job(TriangleCountComper, g, config, runtime="cluster")
    assert res.aggregate == count_triangles(g)
    assert res.metrics.get("ft:recoveries", 0) >= 1


def test_cluster_checkpoint_shard_resumes(tmp_path):
    g = erdos_renyi(70, 0.12, seed=11)
    path = str(tmp_path / "job.ckpt")
    config = cfg(checkpoint_every_syncs=1)
    with pytest.raises(JobAbortedError):
        run_job(TriangleCountComper, g, config, runtime="cluster",
                checkpoint_path=path, abort_after_rounds=2)
    res = resume_job(TriangleCountComper, g, path, config=config,
                     runtime="cluster")
    assert res.aggregate == count_triangles(g)


# ---------------------------------------------------------------------------
# Attach mode: externally started nodes (the multi-host path)
# ---------------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_attach_mode_with_external_nodes():
    from repro.core.clusterruntime import serve_node

    port = _free_port()
    ctx = mp.get_context()
    procs = [
        ctx.Process(
            target=serve_node,
            args=(f"127.0.0.1:{port}",),
            kwargs=dict(bind_host="127.0.0.1", connect_timeout_s=30.0),
            daemon=True,
        )
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    try:
        g = erdos_renyi(70, 0.12, seed=11)
        config = cfg(
            cluster_hosts=("127.0.0.1:0", "127.0.0.1:0"),
            cluster_bind=f"127.0.0.1:{port}",
            cluster_connect_timeout_s=30.0,
        )
        res = run_job(TriangleCountComper, g, config, runtime="cluster")
        assert res.aggregate == count_triangles(g)
    finally:
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()


def test_attach_mode_node_loss_raises_with_resume_guidance():
    """Attach-mode nodes are started externally, so the master cannot
    respawn them; a loss must fail with actionable guidance instead of
    hanging or retrying forever."""
    from repro.core.errors import GThinkerError
    from repro.core.clusterruntime import serve_node

    port = _free_port()
    ctx = mp.get_context()
    procs = [
        ctx.Process(
            target=serve_node,
            args=(f"127.0.0.1:{port}",),
            kwargs=dict(bind_host="127.0.0.1", connect_timeout_s=30.0),
            daemon=True,
        )
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    try:
        g = erdos_renyi(70, 0.12, seed=11)
        config = cfg(
            cluster_hosts=("127.0.0.1:0", "127.0.0.1:0"),
            cluster_bind=f"127.0.0.1:{port}",
            cluster_connect_timeout_s=30.0,
            failure_plan=FailurePlanConfig(
                when="sync", at_count=2, kill_worker=1
            ),
        )
        with pytest.raises(GThinkerError, match="resume"):
            run_job(TriangleCountComper, g, config, runtime="cluster")
    finally:
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()


def test_connect_with_retry_times_out():
    port = _free_port()  # nothing listening here
    with pytest.raises(OSError):
        connect_with_retry("127.0.0.1", port, timeout_s=0.3)
