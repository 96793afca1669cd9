"""The ``runtime="cluster"`` backend: many machines over TCP.

The process runtime proves the CPU-bound story on one machine; this
backend runs the same control-plane protocol
(:class:`~repro.core.controlplane.ControlPlaneMaster` /
:class:`~repro.core.controlplane.NodeSession`) across machine
boundaries:

* the **data plane** is :class:`~repro.net.tcp.TcpTransport` — one
  persistent socket per peer pair, batched per destination, each batch
  one length-prefixed frame whose payload is byte-for-byte the GTWIRE1
  encoding the process runtime puts on its queues;
* the **control plane** is one :class:`~repro.net.tcp.ControlChannel`
  per node to the master — the same command tuples the process runtime
  sends down its pipes, pickled and framed;
* the **graph** is shipped, not shared: the master partitions the rows
  by the owner hash and sends each node exactly its partition during
  the boot handshake.  No fork inheritance, no shared memory — a node
  needs nothing but the ``repro`` package and a TCP route to the
  master, which is what makes the multi-host claim honest.

Boot handshake (per node)::

    node → master   ("hello", requested_node_id)      # -1 = assign one
    master → node   ("init", node_id, config, app_factory, rows,
                     spill_root, snapshot, global_value, incarnation)
    node → master   ("ready", node_id, "host:port")   # data listener
    master → node   ("peers", ["host:port", ...])
    node → master   ("up", node_id)

Two deployment modes, selected by ``GThinkerConfig.cluster_hosts``:

* **localhost spawn mode** (``cluster_hosts=None``, the default): the
  driver spawns every node as a local process connecting back over
  loopback.  One command runs a whole cluster — this is what tests, CI
  and the benchmark use — and node loss is fully recoverable: the
  master tears the node set down and reboots it from the last
  sync-barrier checkpoint, exactly the process runtime's global
  rollback.  Fresh ephemeral data ports every incarnation mean a stale
  in-flight batch from the rolled-back epoch has no socket to arrive
  on.
* **attach mode** (``cluster_hosts`` given, one ``"host:port"`` per
  node): nodes are started externally (``repro node --master ...``) on
  the listed hosts and attach to the master's control listener.  The
  protocol is identical, but the master cannot respawn a foreign
  process: a lost node raises after writing the usual checkpoint
  shards, and the operator restarts the nodes and resumes from the
  shard (``resume_job`` / ``--resume-from``).

Failure classification is :func:`~repro.core.controlplane.run_node`'s,
the same on every backend: a node that *reports*
:class:`~repro.core.errors.WireDecodeError` or
:class:`~repro.net.tcp.PeerLostError` hit corrupted bytes or a dead
peer — environment damage a rollback can clear — so its report carries
``recoverable=True``; any other reported exception is an app/framework
bug that would recur and fails the job immediately.  A node that says
nothing and vanishes (killed, OOM, power) is a machine loss,
recoverable as always.
"""

from __future__ import annotations

import selectors
import shutil
import socket
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from ..net.tcp import (
    ChannelClosed,
    ControlChannel,
    TcpTransport,
    connect_with_retry,
    listen_socket,
)
from .checkpoint import JobCheckpoint
from .config import GThinkerConfig, parse_host_port
from .controlplane import (
    ControlPlaneMaster,
    mp_context,
    prepare_job,
    run_node,
)
from .errors import GThinkerError, WireDecodeError, WorkerProcessError
from .runtime import JobRequest

__all__ = ["ClusterExecutor", "serve_node"]


# ---------------------------------------------------------------------------
# Node side
# ---------------------------------------------------------------------------


def serve_node(
    master_addr: str,
    bind_host: str = "127.0.0.1",
    node_id: int = -1,
    connect_timeout_s: float = 30.0,
) -> None:
    """Run one cluster node against ``master_addr`` until the job ends.

    The ``repro node`` CLI entry point for attach mode; localhost spawn
    mode runs the same function in child processes.  ``node_id=-1``
    asks the master to assign the next free slot.  After ``hello`` /
    ``init`` this is :func:`repro.core.controlplane.run_node` over
    this backend's two real differences: the data plane is a
    :class:`~repro.net.tcp.TcpTransport` (whose listener address is
    exchanged in the ``ready`` / ``peers`` / ``up`` half of the
    handshake), and the graph rows arrive in ``init``.
    """
    host, port = parse_host_port(master_addr)
    sock = connect_with_retry(host, port, connect_timeout_s, what="master")
    channel = ControlChannel(sock)
    channel.send(("hello", node_id))
    msg = channel.recv(timeout=connect_timeout_s)
    if not (isinstance(msg, tuple) and msg and msg[0] == "init"):
        raise GThinkerError(f"expected init from the master, got {msg!r}")
    (_tag, node_id, config, app_factory, rows, spill_root,
     snapshot, global_value, incarnation) = msg

    def make_transport(metrics):
        transport = TcpTransport(
            node_id,
            config.num_workers,
            bind_host=bind_host,
            metrics=metrics,
            max_batch_messages=config.ipc_batch_max_messages,
            connect_timeout_s=config.cluster_connect_timeout_s,
        )
        try:
            channel.send(("ready", node_id, f"{bind_host}:{transport.data_port}"))
            tag, peers = channel.recv(timeout=config.control_reply_timeout_s)
            if tag != "peers":
                raise GThinkerError(f"expected the peer table, got {tag!r}")
            transport.set_peers(peers)
            channel.send(("up", node_id))
        except BaseException:
            transport.close()
            raise
        return transport

    run_node(
        node_id, config, app_factory, channel, make_transport,
        lambda worker: worker.load_rows(rows),
        spill_root, snapshot, global_value, incarnation,
    )


def _spawned_node_main(
    master_addr: str, node_id: int, connect_timeout_s: float
) -> None:
    """Child-process entry for localhost spawn mode.

    Everything of substance (config, app, graph rows, snapshot) arrives
    over the control channel — the identical path attach-mode nodes
    use — so the spawn mode exercises the real multi-host protocol, not
    a fork-inheritance shortcut.
    """
    try:
        serve_node(
            master_addr,
            bind_host="127.0.0.1",
            node_id=node_id,
            connect_timeout_s=connect_timeout_s,
        )
    except (ChannelClosed, ConnectionError, OSError):
        # Master torn down mid-boot (rollback or shutdown) — exit quietly.
        pass


# ---------------------------------------------------------------------------
# Master side
# ---------------------------------------------------------------------------


class _ClusterMaster(ControlPlaneMaster):
    """TCP plumbing for :class:`ControlPlaneMaster`.

    Owns the control listener and (in localhost spawn mode) the node
    processes, so the shared rollback can tear the whole node set down
    and reboot it from the last barrier snapshot.
    """

    def __init__(
        self,
        config: GThinkerConfig,
        app_factory,
        rows_per_node: List[List],
        spill_root: Optional[Path],
        join_timeout_s: float,
        checkpoint_path: Optional[str] = None,
        abort_after_rounds: Optional[int] = None,
    ) -> None:
        super().__init__(
            config=config,
            app_factory=app_factory,
            join_timeout_s=join_timeout_s,
            checkpoint_path=checkpoint_path,
            abort_after_rounds=abort_after_rounds,
        )
        self.rows_per_node = rows_per_node
        self.spill_root = spill_root
        self.attached = config.cluster_hosts is not None
        bind_host, bind_port = parse_host_port(config.cluster_bind)
        self.listener = listen_socket(bind_host, bind_port)
        self.channels: List[Optional[ControlChannel]] = []
        self._ctx = mp_context(config)

    @property
    def control_addr(self) -> str:
        host, port = self.listener.getsockname()[:2]
        return f"{host}:{port}"

    @property
    def num_nodes(self) -> int:
        return len(self.channels)

    # -- node-set lifecycle -----------------------------------------------

    def _boot_timeout(self) -> float:
        # Attached nodes are started by an operator; give them the
        # control-plane budget rather than the (short) connect budget.
        base = self.config.cluster_connect_timeout_s
        if self.attached:
            base = max(base, self.config.control_reply_timeout_s)
        return base

    def _accept_channel(self, deadline: float) -> ControlChannel:
        self.listener.settimeout(max(0.05, deadline - time.monotonic()))
        try:
            conn, _addr = self.listener.accept()
        except (socket.timeout, BlockingIOError) as exc:
            raise GThinkerError(
                f"cluster boot: not all {self.config.num_workers} nodes "
                f"connected within {self._boot_timeout()}s"
            ) from exc
        finally:
            self.listener.settimeout(None)
            self.listener.setblocking(False)
        return ControlChannel(conn)

    def _boot(self, checkpoint: Optional[JobCheckpoint], global_value) -> None:
        config = self.config
        n = config.num_workers

        if not self.attached:
            self.procs = []
            addr = self.control_addr
            for nid in range(n):
                proc = self._ctx.Process(
                    target=_spawned_node_main,
                    args=(addr, nid, config.cluster_connect_timeout_s),
                    name=f"gthinker-node-{nid}",
                    daemon=True,
                )
                proc.start()
                self.procs.append(proc)

        deadline = time.monotonic() + self._boot_timeout()
        channels: List[Optional[ControlChannel]] = [None] * n
        unassigned = [nid for nid in range(n)]
        for _ in range(n):
            chan = self._accept_channel(deadline)
            msg = chan.recv(timeout=max(0.05, deadline - time.monotonic()))
            if not (isinstance(msg, tuple) and msg and msg[0] == "hello"):
                raise GThinkerError(f"expected hello from a node, got {msg!r}")
            requested = msg[1]
            if requested == -1:
                nid = unassigned[0]
            elif requested in unassigned:
                nid = requested
            else:
                raise GThinkerError(
                    f"node requested id {requested}, which is out of range "
                    f"or already taken"
                )
            unassigned.remove(nid)
            snap = (checkpoint.worker_snapshots[nid]
                    if checkpoint is not None else None)
            spill = str(self.spill_root) if self.spill_root else None
            chan.send((
                "init", nid, config, self.app_factory,
                self.rows_per_node[nid], spill, snap, global_value,
                self._incarnation,
            ))
            channels[nid] = chan

        peers: List[Optional[str]] = [None] * n
        for nid in range(n):
            msg = channels[nid].recv(
                timeout=max(0.05, deadline - time.monotonic())
            )
            if not (isinstance(msg, tuple) and msg[0] == "ready"):
                raise GThinkerError(f"expected ready from node {nid}, got {msg!r}")
            peers[msg[1]] = msg[2]
        for nid in range(n):
            channels[nid].send(("peers", peers))
        for nid in range(n):
            msg = channels[nid].recv(
                timeout=max(0.05, deadline - time.monotonic())
            )
            if not (isinstance(msg, tuple) and msg[0] == "up"):
                raise GThinkerError(f"expected up from node {nid}, got {msg!r}")
        self.channels = channels

    def _terminate(self) -> None:
        for chan in self.channels:
            if chan is not None:
                chan.close()
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self.channels, self.procs = [], []

    def _recover(self) -> None:
        if self.attached:
            # A foreign process cannot be respawned from here.  The last
            # checkpoint shard (if a checkpoint_path was given) is on
            # disk; restart the nodes and resume from it.
            raise GThinkerError(
                "a cluster node was lost and cluster_hosts nodes are "
                "started externally — restart them and resume from the "
                "checkpoint shard (resume_job / --resume-from)"
            )
        super()._recover()

    def shutdown(self) -> None:
        super().shutdown()
        try:
            self.listener.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    # -- plumbing ---------------------------------------------------------

    def _send(self, node_id: int, cmd) -> None:
        chan = self.channels[node_id]
        try:
            chan.send(cmd)
        except ChannelClosed as exc:
            # Drain buffered frames for an error report before labelling
            # this a silent machine loss.
            try:
                while chan.poll(0.05):
                    self._raise_from_report(chan.recv())
            except (ChannelClosed, WireDecodeError):
                pass
            raise WorkerProcessError(
                node_id, "control channel closed unexpectedly",
                recoverable=True,
            ) from exc

    def _recv(self, node_id: int, timeout: Optional[float] = None):
        if timeout is None:
            timeout = self.config.control_reply_timeout_s
        chan = self.channels[node_id]
        deadline = time.monotonic() + timeout
        while True:
            try:
                if not chan.poll(min(0.1, max(0.0, deadline - time.monotonic()))):
                    if time.monotonic() >= deadline:
                        raise WorkerProcessError(
                            node_id,
                            f"no control-plane reply within {timeout}s",
                            recoverable=True,
                        )
                    continue
                msg = chan.recv()
            except (ChannelClosed, WireDecodeError) as exc:
                raise WorkerProcessError(
                    node_id, f"control channel lost: {exc}",
                    recoverable=True,
                ) from exc
            self._raise_from_report(msg)
            if self._note_oob(msg):
                # A wake racing a request-reply exchange; the reply we
                # are waiting for is behind it.
                continue
            return msg

    def _drain_events(self, timeout: float) -> None:
        """Multiplexed control-event drain over every node's channel.

        Blocks up to ``timeout`` (in <=0.25s selector slices) for the
        first control frame, then consumes everything buffered on every
        channel via the non-blocking ``drain_nowait``.  Out-of-band
        messages route through ``_note_oob``; error reports raise,
        channel loss raises as a recoverable machine loss.
        """
        deadline = time.monotonic() + timeout
        while True:
            got = False
            for nid, chan in enumerate(self.channels):
                try:
                    for msg in chan.drain_nowait():
                        self._raise_from_report(msg)
                        if not self._note_oob(msg):
                            raise WorkerProcessError(
                                nid,
                                "unexpected out-of-band control message "
                                f"{type(msg).__name__}",
                            )
                        got = True
                except (ChannelClosed, WireDecodeError) as exc:
                    raise WorkerProcessError(
                        nid, f"control channel lost while idle: {exc}",
                        recoverable=True,
                    ) from exc
            remaining = deadline - time.monotonic()
            if got or remaining <= 0:
                return
            with selectors.DefaultSelector() as sel:
                for chan in self.channels:
                    try:
                        sel.register(chan, selectors.EVENT_READ)
                    except (KeyError, ValueError, OSError):
                        # A dead fd; surface it as a wake so the next
                        # protocol op reports the loss.
                        self._pending_wake = True
                        return
                sel.select(min(remaining, 0.25))


# ---------------------------------------------------------------------------
# The executor registered as runtime="cluster"
# ---------------------------------------------------------------------------


class ClusterExecutor:
    """``execute(JobRequest) -> JobResult`` via TCP-connected nodes."""

    def __init__(self, join_timeout_s: float = 600.0) -> None:
        self.join_timeout_s = join_timeout_s

    def execute(self, request: JobRequest):
        from .job import _partition_rows  # deferred: job.py imports us lazily

        config = request.config
        graph = prepare_job(request, "cluster")
        started = time.perf_counter()
        rows_per_node = _partition_rows(graph, config.num_workers)
        # The master owns the spill root only in localhost spawn mode;
        # attached nodes are (possibly) on other machines and make their
        # own temp dirs.
        attached = config.cluster_hosts is not None
        owns_spill = not attached and config.spill_dir is None
        if attached:
            spill_root = None
        elif config.spill_dir:
            spill_root = Path(config.spill_dir)
        else:
            spill_root = Path(tempfile.mkdtemp(prefix="gthinker-spill-cluster-"))
        master = _ClusterMaster(
            config=config,
            app_factory=request.app_factory,
            rows_per_node=rows_per_node,
            spill_root=spill_root,
            join_timeout_s=self.join_timeout_s,
            checkpoint_path=request.checkpoint_path,
            abort_after_rounds=request.abort_after_rounds,
        )
        try:
            return master.run_job(request.checkpoint, started)
        finally:
            if owns_spill and spill_root is not None:
                shutil.rmtree(spill_root, ignore_errors=True)
