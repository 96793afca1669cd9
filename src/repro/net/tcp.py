"""TCP framing and the ``runtime="cluster"`` data-plane transport.

Two layers, both built on one length-prefixed frame format (an 8-byte
little-endian unsigned payload length followed by the payload bytes):

* :class:`ControlChannel` — the master⇄node control plane.  One framed,
  pickled Python object per frame (the same command tuples the process
  runtime sends down its pipes), with timeout-bounded blocking sends and
  receives over a non-blocking socket.  EOF/reset surfaces as
  :class:`ChannelClosed`; corrupt frames as
  :class:`~repro.core.errors.WireDecodeError`.
* :class:`TcpTransport` — the node⇄node data plane, a drop-in for
  :class:`~repro.net.transport.ProcessTransport`'s polling contract
  (``send`` / ``poll`` / ``mark_received`` / ``flush_outgoing`` /
  ``pending_unflushed`` plus the monotone ``sent_count`` /
  ``received_count`` the checkpoint barrier's settle test reads).  Outgoing messages buffer per destination and
  drain as **one frame per batch** whose payload is byte-for-byte the
  :func:`repro.net.wire.encode_batch` GTWIRE1 encoding over a
  persistent socket per peer — the data plane never unpickles bytes
  from a peer.  Receive buffers are bounded by
  :data:`MAX_FRAME_BYTES` — a garbage length prefix cannot make a node
  allocate without limit — and every malformed payload raises
  ``WireDecodeError`` instead of a raw ``struct``/numpy error (HUGE's
  bounded-receive-buffer discipline, applied to our frames).

Self-addressed messages never touch a socket: they are encoded and
decoded through the same codec (so the bytes metric stays honest) via an
in-memory loopback deque.  Per-destination byte counters are split into
``net:bytes_local`` (self), ``net:bytes_same_host`` and
``net:bytes_cross_host`` so a cluster benchmark can report how much
traffic actually crossed machines.
"""

from __future__ import annotations

import pickle
import selectors
import socket
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..core.config import parse_host_port
from ..core.errors import GThinkerError, WireDecodeError
from ..core.metrics import MetricsRegistry
from . import wire
from .message import Message
from .transport import MAX_BATCH_MESSAGES

__all__ = [
    "MAX_FRAME_BYTES",
    "ChannelClosed",
    "PeerLostError",
    "ControlChannel",
    "TcpTransport",
    "listen_socket",
    "connect_with_retry",
]

#: Upper bound on a single frame's payload.  A corrupt or hostile length
#: prefix beyond this raises :class:`WireDecodeError` instead of driving
#: an unbounded receive-buffer allocation.
MAX_FRAME_BYTES = 1 << 32

_LEN_BYTES = 8
_RECV_CHUNK = 1 << 16


class ChannelClosed(GThinkerError):
    """The remote end of a control channel went away (EOF or reset)."""


class PeerLostError(GThinkerError):
    """A data-plane peer could not be reached within the connect budget.

    The cluster runtime treats this like a machine loss: the node
    reports it as *recoverable* and the master rolls the whole job back
    to the last sync-barrier checkpoint.
    """

    def __init__(self, peer: int, message: str) -> None:
        super().__init__(f"cluster peer {peer}: {message}")
        self.peer = peer


def _frame_header(length: int) -> bytes:
    return length.to_bytes(_LEN_BYTES, "little")


def _parse_frame_length(header: bytes) -> int:
    length = int.from_bytes(header, "little")
    if length > MAX_FRAME_BYTES:
        raise WireDecodeError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES}); corrupt or misaligned stream"
        )
    return length


def listen_socket(host: str, port: int) -> socket.socket:
    """A bound, listening, non-blocking TCP socket."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(16)
    except OSError:
        sock.close()  # e.g. the port is taken
        raise
    sock.setblocking(False)
    return sock


def connect_with_retry(
    host: str, port: int, timeout_s: float, what: str = "peer"
) -> socket.socket:
    """Connect, retrying until ``timeout_s``; raises ``OSError`` after.

    Retries cover the startup race (a peer that has not finished binding
    yet) and transient RST during recovery respawns.
    """
    deadline = time.monotonic() + timeout_s
    delay = 0.01
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError:
            if time.monotonic() + delay > deadline:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 0.25)


def _extract_frames(buf: bytearray) -> List[bytes]:
    """Pop every complete length-prefixed frame off the front of ``buf``."""
    frames: List[bytes] = []
    while len(buf) >= _LEN_BYTES:
        length = _parse_frame_length(bytes(buf[:_LEN_BYTES]))
        if len(buf) - _LEN_BYTES < length:
            break
        frames.append(bytes(buf[_LEN_BYTES : _LEN_BYTES + length]))
        del buf[: _LEN_BYTES + length]
    return frames


class ControlChannel:
    """Framed, pickled request/reply objects over one socket.

    Both ends are symmetric; timeouts bound every blocking operation so
    a dead peer is detected by the caller's deadline, never by an
    indefinite hang.
    """

    def __init__(self, sock: socket.socket, send_timeout_s: float = 60.0) -> None:
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - already-closed race
            pass
        self._sock = sock
        self._send_timeout_s = send_timeout_s
        self._buf = bytearray()
        self._frames: Deque[bytes] = deque()
        self._closed = False

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    # -- sending ----------------------------------------------------------

    def send(self, obj) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        data = memoryview(_frame_header(len(payload)) + payload)
        deadline = time.monotonic() + self._send_timeout_s
        while data:
            try:
                sent = self._sock.send(data)
                data = data[sent:]
            except (BlockingIOError, InterruptedError):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChannelClosed(
                        f"control send did not complete within "
                        f"{self._send_timeout_s}s"
                    )
                selectors_wait_writable(self._sock, min(remaining, 0.25))
            except OSError as exc:
                # Not marked closed: frames the peer sent before it went
                # (its error report, say) stay readable until EOF.
                raise ChannelClosed(f"control peer went away: {exc!r}") from exc

    # -- receiving --------------------------------------------------------

    def _pump(self) -> None:
        """Drain whatever the socket has ready into the frame queue.

        EOF/reset only *marks* the channel closed; frames already
        received stay readable — a peer that sends its final report and
        immediately closes must not lose that report to the FIN racing
        the read.
        """
        while True:
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._closed = True
                return
            if not chunk:
                self._closed = True
                if self._buf:
                    # A partial frame at EOF is corruption, not clean close.
                    raise WireDecodeError(
                        f"control channel closed mid-frame with "
                        f"{len(self._buf)} buffered bytes"
                    )
                return
            self._buf.extend(chunk)
            self._frames.extend(_extract_frames(self._buf))

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a complete object frame is available to receive.

        Raises :class:`ChannelClosed` once the peer is gone *and* every
        buffered frame has been consumed.
        """
        if self._frames:
            return True
        if self._closed:
            raise ChannelClosed("control peer closed the connection")
        deadline = time.monotonic() + timeout
        while True:
            with selectors.DefaultSelector() as sel:
                sel.register(self._sock, selectors.EVENT_READ)
                ready = sel.select(max(0.0, deadline - time.monotonic()))
            if ready:
                self._pump()
                if self._frames:
                    return True
                if self._closed:
                    raise ChannelClosed("control peer closed the connection")
            if time.monotonic() >= deadline:
                return bool(self._frames)

    def recv(self, timeout: Optional[float] = None):
        """Receive one object; raises ``TimeoutError`` when none arrives."""
        if timeout is not None and not self.poll(timeout):
            raise TimeoutError(f"no control frame within {timeout}s")
        while not self._frames:
            self.poll(0.25)
        raw = self._frames.popleft()
        try:
            return pickle.loads(raw)
        except Exception as exc:
            raise WireDecodeError(
                f"cannot unpickle control frame: {exc!r}"
            ) from exc


def selectors_wait_writable(sock: socket.socket, timeout: float) -> None:
    with selectors.DefaultSelector() as sel:
        sel.register(sock, selectors.EVENT_WRITE)
        sel.select(timeout)


class TcpTransport:
    """Batched node⇄node message routing over persistent TCP sockets.

    One instance per node process.  Mirrors
    :class:`~repro.net.transport.ProcessTransport`: a message counts as
    received only when :meth:`poll` hands it to the caller, keeping the
    sent/received termination arithmetic sound.
    """

    def __init__(
        self,
        node_id: int,
        num_nodes: int,
        bind_host: str = "127.0.0.1",
        metrics: Optional[MetricsRegistry] = None,
        connect_timeout_s: float = 10.0,
    ) -> None:
        if not 0 <= node_id < num_nodes:
            raise ValueError(f"node_id {node_id} out of range for {num_nodes}")
        self._node_id = node_id
        self._num_nodes = num_nodes
        self._metrics = metrics or MetricsRegistry()
        self._connect_timeout_s = connect_timeout_s
        self._bind_host = bind_host
        self._listener = listen_socket(bind_host, 0)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, "listen")
        #: Inbound socket -> partial-frame receive buffer.
        self._in_bufs: Dict[socket.socket, bytearray] = {}
        #: Outgoing persistent connection per peer node id.
        self._out: Dict[int, socket.socket] = {}
        self._peers: Optional[List[Tuple[str, int]]] = None
        self._buffers: List[List[Message]] = [[] for _ in range(num_nodes)]
        #: Encoded self-addressed batches awaiting the next poll.
        self._loopback: Deque[bytes] = deque()
        #: Decoded messages awaiting the next poll.
        self._inbox: Deque[Message] = deque()
        self.sent_count = 0
        self.received_count = 0

    # -- wiring -----------------------------------------------------------

    @property
    def data_port(self) -> int:
        return self._listener.getsockname()[1]

    def set_peers(self, peers: Sequence[str]) -> None:
        """Install the ``"host:port"`` data address of every node."""
        if len(peers) != self._num_nodes:
            raise ValueError(
                f"peer table has {len(peers)} entries for {self._num_nodes} nodes"
            )
        self._peers = [parse_host_port(p) for p in peers]

    def _connect(self, dst: int) -> socket.socket:
        sock = self._out.get(dst)
        if sock is not None:
            return sock
        if self._peers is None:
            raise PeerLostError(dst, "peer table not installed yet")
        host, port = self._peers[dst]
        try:
            sock = connect_with_retry(host, port, self._connect_timeout_s)
        except OSError as exc:
            raise PeerLostError(
                dst, f"cannot connect to {host}:{port} within "
                     f"{self._connect_timeout_s}s: {exc!r}"
            ) from exc
        self._out[dst] = sock
        return sock

    # -- sending ----------------------------------------------------------

    def send(self, message: Message, now: float = 0.0) -> float:
        dst = message.dst
        if not 0 <= dst < self._num_nodes:
            raise ValueError(f"invalid destination node {dst}")
        size = message.size_bytes()
        self._metrics.add("net:messages")
        self._metrics.add("net:bytes", size)
        if dst == self._node_id:
            self._metrics.add("net:bytes_local", size)
        elif self._peers is not None and self._peers[dst][0] == self._bind_host:
            self._metrics.add("net:bytes_same_host", size)
        else:
            self._metrics.add("net:bytes_cross_host", size)
        buf = self._buffers[dst]
        buf.append(message)
        self.sent_count += 1
        if len(buf) >= MAX_BATCH_MESSAGES:
            self._flush_dst(dst)
        return now

    def _flush_dst(self, dst: int) -> None:
        buf = self._buffers[dst]
        if not buf:
            return
        self._buffers[dst] = []
        payload = wire.encode_batch(buf)
        self._metrics.add("tcp:frames")
        self._metrics.add("tcp:batched_messages", len(buf))
        self._metrics.add("tcp:payload_bytes", len(payload))
        if dst == self._node_id:
            # Loopback: same codec, no socket — decoded at the next poll
            # so a self-send stays "in flight" until actually delivered.
            self._loopback.append(payload)
            return
        sock = self._connect(dst)
        data = memoryview(_frame_header(len(payload)) + payload)
        deadline = time.monotonic() + self._connect_timeout_s
        try:
            while data:
                try:
                    sent = sock.send(data)
                    data = data[sent:]
                except (BlockingIOError, InterruptedError):
                    if time.monotonic() > deadline:
                        raise PeerLostError(
                            dst, f"send stalled for {self._connect_timeout_s}s"
                        )
                    selectors_wait_writable(sock, 0.05)
        except OSError as exc:
            self._out.pop(dst, None)
            try:
                sock.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
            raise PeerLostError(dst, f"send failed: {exc!r}") from exc

    def flush_outgoing(self) -> None:
        for dst in range(self._num_nodes):
            self._flush_dst(dst)

    def pending_unflushed(self) -> int:
        return sum(len(b) for b in self._buffers)

    # -- receiving --------------------------------------------------------

    def _accept_all(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # pragma: no cover - listener closed mid-accept
                return
            conn.setblocking(False)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover
                pass
            self._in_bufs[conn] = bytearray()
            self._selector.register(conn, selectors.EVENT_READ, "data")

    def _drop_inbound(self, sock: socket.socket) -> None:
        self._metrics.add("tcp:peer_resets")
        self._selector.unregister(sock)
        self._in_bufs.pop(sock, None)
        try:
            sock.close()
        except OSError:  # pragma: no cover
            pass

    def _read_conn(self, sock: socket.socket) -> None:
        buf = self._in_bufs[sock]
        while True:
            try:
                chunk = sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                # The peer died mid-stream; the master's control plane
                # will notice the loss and roll the job back — locally we
                # just drop the link (any partial frame goes with it).
                self._drop_inbound(sock)
                return
            if not chunk:
                if buf:
                    self._drop_inbound(sock)
                    raise WireDecodeError(
                        f"data connection closed mid-frame with {len(buf)} "
                        f"buffered bytes"
                    )
                self._drop_inbound(sock)
                return
            buf.extend(chunk)
        for payload in _extract_frames(buf):
            self._inbox.extend(wire.decode_batch(payload))

    def _service_sockets(self) -> None:
        """Accept pending connections and decode every complete frame."""
        while True:
            events = self._selector.select(timeout=0)
            if not events:
                break
            for key, _mask in events:
                if key.data == "listen":
                    self._accept_all()
                else:
                    self._read_conn(key.fileobj)
        while self._loopback:
            self._inbox.extend(wire.decode_batch(self._loopback.popleft()))

    def poll(self, worker_id: int, now: float = float("inf")) -> List[Message]:
        """Drain this node's inbox (non-blocking); flushes first."""
        if worker_id != self._node_id:
            raise ValueError(
                f"TcpTransport of node {self._node_id} asked to poll "
                f"node {worker_id}'s inbox"
            )
        self.flush_outgoing()
        self._service_sockets()
        out = list(self._inbox)
        self._inbox.clear()
        return out

    def mark_received(self, worker_id: int) -> None:
        """Count one polled message as received once dispatched."""
        self.received_count += 1

    # -- idle support -----------------------------------------------------

    def wait_for_activity(
        self, timeout: float, extra: Sequence[socket.socket] = ()
    ) -> bool:
        """Block up to ``timeout`` for readability on any data socket or
        the given extra sockets (the node's control channel).  Returns
        True when something became readable; the data itself is consumed
        by the next :meth:`poll` / the caller's control recv."""
        if self._inbox or self._loopback:
            return True
        registered = []
        for sock in extra:
            try:
                self._selector.register(sock, selectors.EVENT_READ, "extra")
                registered.append(sock)
            except KeyError:  # pragma: no cover - already registered
                pass
        try:
            return bool(self._selector.select(timeout=max(0.0, timeout)))
        finally:
            for sock in registered:
                self._selector.unregister(sock)

    def close(self) -> None:
        try:
            self._selector.unregister(self._listener)
        except KeyError:  # pragma: no cover
            pass
        self._listener.close()
        for sock in list(self._in_bufs):
            self._drop_inbound(sock)
        for sock in self._out.values():
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        self._out.clear()
        self._selector.close()
