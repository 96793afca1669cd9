"""Transports connecting workers.

Two implementations of one polling contract (``send`` / ``poll`` /
``mark_received`` / ``flush_outgoing``).  A polled message counts as
received only when the comm service calls ``mark_received`` after its
dispatch returned, so the checkpoint barrier's ``sum(sent) ==
sum(received)`` means whatever every message carried is in a container.

* :class:`Transport` — all workers in one process, per-worker mailboxes.
  Counts messages and bytes (for the IO-bound vs CPU-bound analysis),
  keeps every worker's ``sent_count`` / ``received_count`` (the
  checkpoint barrier; :meth:`Transport.port` is one worker's end, shaped like a
  node's own transport), and supports *timed delivery*: the DES
  runtime stamps each message with an ``available_at`` virtual time
  computed from a :class:`~repro.core.config.NetworkModel`; the serial
  and threaded runtimes deliver immediately.
* :class:`ProcessTransport` — one instance per *worker process*
  (``runtime="process"``).  Outgoing messages accumulate in
  per-destination buffers and are drained as one encoded batch per
  destination through ``multiprocessing`` queues — the paper's batched
  sending, applied to IPC: many small vertex pulls cost one queue
  round-trip, not many.  Batches are encoded by this transport itself
  (:mod:`repro.net.wire` GTWIRE1 frames with raw ``int64`` adjacency
  payloads) so the exact bytes crossing the process boundary are
  measured under the ``ipc:payload_bytes`` metric.
"""

from __future__ import annotations

import multiprocessing.connection as mp_connection
import queue as queue_mod
import threading
import weakref
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from ..core.config import NetworkModel
from ..core.metrics import MetricsRegistry
from . import wire
from .message import Message

#: Outgoing messages buffered per destination before a forced send (the
#: IPC/TCP analogue of the paper's batched sending).
MAX_BATCH_MESSAGES = 64

__all__ = ["Transport", "ProcessTransport"]


class _Mailbox:
    """One worker's end of a :class:`Transport` (:meth:`Transport.port`),
    used by its node session as a node's own transport: the inbox and
    the monotone ``sent_count`` / ``received_count`` under ``lock``;
    ``send`` stamps :attr:`Transport.now` and nothing is ever buffered.
    """

    __slots__ = ("lock", "queue", "sent_count", "received_count",
                 "_transport")

    def __init__(self, transport: "Transport") -> None:
        self.lock = threading.Lock()
        self.queue: Deque[Tuple[float, Message]] = deque()
        self.sent_count = 0
        self.received_count = 0
        # A proxy, so a finished job's transport is freed by refcount.
        self._transport = weakref.proxy(transport)

    def send(self, message: Message) -> float:
        return self._transport.send(message, self._transport.now)

    def flush_outgoing(self) -> None:
        """No-op, as on the transport."""

    def pending_unflushed(self) -> int:
        return 0


class Transport:
    """Routes messages between ``num_workers`` mailboxes."""

    def __init__(
        self,
        num_workers: int,
        metrics: Optional[MetricsRegistry] = None,
        network: Optional[NetworkModel] = None,
        timed: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._mailboxes = [_Mailbox(self) for _ in range(num_workers)]
        self._metrics = metrics or MetricsRegistry()
        self._network = network or NetworkModel()
        self._timed = timed
        # Per-destination link clock: models FIFO serialization on the
        # receiver's NIC so that the DES cannot deliver two large batches
        # to the same worker "for free" at the same instant.
        self._link_free_at = [0.0] * num_workers
        # Optional hook ``(dst_worker, available_at)`` invoked on every
        # send; the DES runtime uses it to wake the destination's comm
        # entity exactly when the message becomes deliverable.
        self.deliver_hook = None
        #: The time a :meth:`port` stamps on its sends: the master's
        #: clock (the DES master's virtual time; 0 elsewhere).
        self.now = 0.0

    def send(self, message: Message, now: float = 0.0) -> float:
        """Enqueue ``message`` for its destination; returns delivery time.

        Local (``src == dst``) messages bypass the network model — the
        paper's workers answer local pulls directly from ``T_local``, so
        same-worker messages only occur in degenerate configurations.
        """
        dst = message.dst
        if not 0 <= dst < len(self._mailboxes):
            raise ValueError(f"invalid destination worker {dst}")
        size = message.size_bytes()
        self._metrics.add("net:messages")
        self._metrics.add("net:bytes", size)
        if self._timed and message.src != dst:
            start = max(now, self._link_free_at[dst])
            available_at = start + self._network.transfer_time(size)
            self._link_free_at[dst] = available_at
        else:
            available_at = now
        # Counted sent before it can be polled, so no snapshot sees it
        # received and not sent.
        src_box = self._mailboxes[message.src]
        with src_box.lock:
            src_box.sent_count += 1
        box = self._mailboxes[dst]
        with box.lock:
            box.queue.append((available_at, message))
        if self.deliver_hook is not None:
            self.deliver_hook(dst, available_at)
        return available_at

    def poll(self, worker_id: int, now: float = float("inf")) -> List[Message]:
        """Dequeue messages for ``worker_id`` whose delivery time has passed.

        With the default ``now=inf`` (untimed runtimes) everything queued
        is returned.
        """
        box = self._mailboxes[worker_id]
        out: List[Message] = []
        requeue: List[Tuple[float, Message]] = []
        with box.lock:
            while box.queue:
                available_at, msg = box.queue.popleft()
                if available_at <= now:
                    out.append(msg)
                else:
                    requeue.append((available_at, msg))
            for item in requeue:
                box.queue.append(item)
        return out

    def mark_received(self, worker_id: int) -> None:
        """Count one polled message as received: its dispatch returned,
        so whatever it carried is in a container again."""
        box = self._mailboxes[worker_id]
        with box.lock:
            box.received_count += 1

    def flush_outgoing(self) -> None:
        """No-op: in-process sends deliver straight to the mailbox."""

    def port(self, worker_id: int) -> _Mailbox:
        """Worker ``worker_id``'s end of this transport."""
        return self._mailboxes[worker_id]

    def next_delivery_time(self, worker_id: int) -> Optional[float]:
        """Earliest pending delivery for a worker (DES wake-up hint)."""
        box = self._mailboxes[worker_id]
        with box.lock:
            if not box.queue:
                return None
            return min(t for t, _ in box.queue)

    @property
    def total_bytes(self) -> float:
        return self._metrics.get("net:bytes")

    @property
    def total_messages(self) -> float:
        return self._metrics.get("net:messages")


class ProcessTransport:
    """Batched IPC message routing for one worker process.

    Every worker process holds the full list of data queues (one inbox
    per worker) plus its own id.  ``send`` buffers per destination;
    buffers drain as a single ``queue.put`` (one GTWIRE1 payload) when
    they reach :data:`MAX_BATCH_MESSAGES`, on :meth:`flush_outgoing`, or on
    the next :meth:`poll`.  The checkpoint barrier cannot observe a
    cross-process in-flight count directly, so the transport keeps
    monotone ``sent_count`` / ``received_count`` (dispatched) counters
    that workers report at every barrier poll: globally, ``sum(sent) ==
    sum(received)`` with nothing buffered means the wire is empty.
    Termination needs no wire term: every message in flight belongs to
    a task that is born and not retired (DESIGN.md §13).
    """

    def __init__(
        self,
        worker_id: int,
        queues: Sequence,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0 <= worker_id < len(queues):
            raise ValueError(f"worker_id {worker_id} out of range")
        self._worker_id = worker_id
        self._queues = list(queues)
        self._metrics = metrics or MetricsRegistry()
        self._buffers: List[List[Message]] = [[] for _ in queues]
        self.sent_count = 0
        self.received_count = 0

    def send(self, message: Message, now: float = 0.0) -> float:
        dst = message.dst
        if not 0 <= dst < len(self._queues):
            raise ValueError(f"invalid destination worker {dst}")
        self._metrics.add("net:messages")
        self._metrics.add("net:bytes", message.size_bytes())
        buf = self._buffers[dst]
        buf.append(message)
        self.sent_count += 1
        if len(buf) >= MAX_BATCH_MESSAGES:
            self._flush_dst(dst)
        return now

    def _flush_dst(self, dst: int) -> None:
        buf = self._buffers[dst]
        if buf:
            self._buffers[dst] = []
            payload = wire.encode_batch(buf)
            self._queues[dst].put(payload)
            self._metrics.add("ipc:batches")
            self._metrics.add("ipc:batched_messages", len(buf))
            self._metrics.add("ipc:payload_bytes", len(payload))

    def flush_outgoing(self) -> None:
        """Drain every per-destination buffer onto its queue."""
        for dst in range(len(self._buffers)):
            self._flush_dst(dst)

    def pending_unflushed(self) -> int:
        """Messages buffered but not yet handed to a queue."""
        return sum(len(b) for b in self._buffers)

    def wait_for_activity(self, timeout: float, extra: Sequence = ()) -> bool:
        """Block up to ``timeout`` for inbox data or ``extra`` readables.

        The idle-wait primitive of the process worker's serve loop,
        mirroring :meth:`repro.net.tcp.TcpTransport.wait_for_activity`:
        ``extra`` carries the control pipe so one wait covers both
        planes.  Waking is best-effort — a spurious return just costs
        one serve-loop iteration.
        """
        wait_on = list(extra)
        reader = getattr(self._queues[self._worker_id], "_reader", None)
        if reader is not None:
            wait_on.append(reader)
        if not wait_on:
            return False
        try:
            return bool(mp_connection.wait(wait_on, timeout=timeout))
        except OSError:
            return True

    def poll(self, worker_id: int, now: float = float("inf")) -> List[Message]:
        """Drain this worker's inbox (non-blocking); flushes first."""
        if worker_id != self._worker_id:
            raise ValueError(
                f"ProcessTransport of worker {self._worker_id} asked to poll "
                f"worker {worker_id}'s inbox"
            )
        self.flush_outgoing()
        out: List[Message] = []
        inbox = self._queues[self._worker_id]
        while True:
            try:
                batch = inbox.get_nowait()
            except queue_mod.Empty:
                break
            out.extend(wire.decode_batch(batch))
        return out

    def mark_received(self, worker_id: int) -> None:
        """Count one polled message as received once dispatched."""
        self.received_count += 1

    def close(self) -> None:
        """Nothing to release: the queues belong to the parent process."""
