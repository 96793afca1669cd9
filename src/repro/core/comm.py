"""Per-worker communication service (paper: "communication threads").

Compers append vertex pulls here; the service flushes them as batched
:class:`~repro.net.message.RequestBatch` messages (desirability 5 —
batching to combat round-trip time), answers incoming requests from the
local vertex table, and lands incoming responses in the vertex cache,
notifying the pending tasks of the owning compers.

The pull path is batch-first end to end:

* **queueing** needs no dedup: the R-table sends a vertex at most once
  per response round trip (a second task asking for it in the same
  flush window is a ``cache:miss_duplicate``, and waits on the first
  request), so every queued id is a first miss;
* **serving** answers each distinct id once (``comm:requests_deduped``
  counts the repeats a peer's batch carried), a whole request batch as
  one struct-of-arrays :class:`~repro.net.message.ResponseBatch`
  (labels/degrees gathered into int64 arrays, all adjacency rows
  concatenated with a single ``np.concatenate``) so the GTWIRE1 encoder
  can dump it without a per-vertex loop;
* **landing** inserts a whole response batch through
  :meth:`~repro.core.vertex_cache.VertexCache.insert_responses` straight
  from its arrays, then wakes each waiting task once, with the views of
  every vertex of the batch it waited for.

``time:comm_flush_s`` / ``time:comm_serve_s`` / ``time:comm_land_s``
timers attribute wall time to the three phases.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Sequence

from ..net.message import Message, RequestBatch, ResponseBatch, TaskBatchTransfer
from .api import VertexView
from .containers import comper_of_task_id
from .errors import GThinkerError, TaskError

__all__ = ["CommService", "RESPONSE_CHUNK"]

#: Cap on vertices per response batch, so one huge request batch does
#: not produce one giant message (MTU-ish chunking).
RESPONSE_CHUNK = 4096


class CommService:
    """Outgoing request batching + inbound message dispatch for one worker."""

    def __init__(self, worker) -> None:
        self.worker = worker
        self._lock = threading.Lock()
        self._outgoing: Dict[int, List[int]] = defaultdict(list)
        self._bytes_served = 0
        #: Ids queued over the job, published as ``comm:requests_queued``.
        self.requests_queued = 0

    # -- comper-side -------------------------------------------------------

    def queue_requests(self, vertices: Sequence[int]) -> None:
        """Append first-miss vertex pulls for batched transmission.

        One lock acquisition per call.  Routing a miss is the only
        place the pull path evaluates the partition hash: compers decide
        local-vs-remote by table membership, so an id that hashes *here*
        and still missed is in no table at all — the bad-pull check
        lives here.
        """
        if not vertices:
            return
        owner_of = self.worker.owner_of
        me = self.worker.worker_id
        with self._lock:
            outgoing = self._outgoing
            for v in vertices:
                dst = owner_of(v)
                if dst == me:
                    raise self.worker.unknown_vertex_error(v)
                outgoing[dst].append(v)
            self.requests_queued += len(vertices)

    def pending_outgoing(self) -> int:
        with self._lock:
            return sum(len(vs) for vs in self._outgoing.values())

    # -- service loop ----------------------------------------------------------

    def step(self, now: float = 0.0) -> bool:
        """Flush outgoing batches and dispatch every available message."""
        worked = self._flush(now)
        # Batching transports (ProcessTransport) hold sent messages in
        # per-destination buffers; drain them every service step so a
        # quiet worker still ships what its compers queued last round.
        self.worker.transport.flush_outgoing()
        messages = self.worker.transport.poll(self.worker.worker_id, now=now)
        for msg in messages:
            self._dispatch(msg, now)
        return worked or bool(messages)

    def _flush(self, now: float) -> bool:
        t0 = time.perf_counter()
        with self._lock:
            batches = {dst: vs for dst, vs in self._outgoing.items() if vs}
            self._outgoing.clear()
        for dst, vertex_ids in batches.items():
            msg = RequestBatch(src=self.worker.worker_id, dst=dst, vertex_ids=vertex_ids)
            self.worker.transport.send(msg, now=now)
        if batches:
            self.worker.metrics.add("time:comm_flush_s", time.perf_counter() - t0)
        return bool(batches)

    def _dispatch(self, msg: Message, now: float) -> None:
        """Dispatch one inbound message.

        Any protocol violation here (a misrouted arrival, an unknown
        vertex, a corrupt batch) is re-raised as a contextual
        :class:`TaskError` naming the message kind — in threaded mode
        this service loop is the worker's only request server, so a bare
        ``KeyError`` would otherwise surface as a dead daemon thread.
        """
        try:
            if isinstance(msg, RequestBatch):
                self._serve_requests(msg, now)
            elif isinstance(msg, ResponseBatch):
                self._receive_responses(msg)
            elif isinstance(msg, TaskBatchTransfer):
                self.worker.l_file.add_payload(msg.payload, msg.num_tasks)
            else:  # pragma: no cover - no other message kinds exist
                raise TypeError(f"unknown message type {type(msg)!r}")
        except (GThinkerError, TypeError):
            raise
        except Exception as exc:
            raise TaskError(
                -1,
                f"comm dispatch of {type(msg).__name__} "
                f"(worker {msg.src} -> {msg.dst}) failed: {exc!r}",
            ) from exc
        # Only now is the message received: at the checkpoint barrier,
        # sum(sent) == sum(received) then means what every message
        # carried (a stolen batch, a response) is in a container.
        self.worker.transport.mark_received(self.worker.worker_id)

    def _serve_requests(self, msg: RequestBatch, now: float) -> None:
        """Answer a pull batch from the local vertex table.

        Duplicate vertex ids in the batch (the R-table never sends any,
        but the batch comes from a peer) are served once.  The reply is built structure-of-arrays
        (:meth:`ResponseBatch.from_rows`: one label/degree gather plus a
        single ``np.concatenate`` over the T_local row views) — the
        GTWIRE1 encoder then ships it without touching the rows again.
        """
        t0 = time.perf_counter()
        ids = msg.vertex_ids
        if len(set(ids)) != len(ids):
            unique = list(dict.fromkeys(ids))
            self.worker.metrics.add("comm:requests_deduped", len(ids) - len(unique))
            ids = unique
        local_entry = self.worker.local_entry
        me = self.worker.worker_id
        for start in range(0, len(ids), RESPONSE_CHUNK):
            rows = [(v, *local_entry(v)) for v in ids[start:start + RESPONSE_CHUNK]]
            self.worker.transport.send(
                ResponseBatch.from_rows(me, msg.src, rows), now=now
            )
        self.worker.metrics.add("comm:requests_served", len(ids))
        self.worker.metrics.add("time:comm_serve_s", time.perf_counter() - t0)

    def _receive_responses(self, msg: ResponseBatch) -> None:
        """Insert arrived vertices into the cache and wake waiting tasks:
        one delivery per task with the views of all its arrivals, in the
        order of each task's *last* arrival (the order per-vertex
        notification made them ready in)."""
        t0 = time.perf_counter()
        landed = self.worker.cache.insert_responses(msg)
        by_task: Dict[int, Dict[int, VertexView]] = {}
        for entry, waiting in landed:
            for task_id in waiting:
                views = by_task.pop(task_id, None) or {}
                views[entry.vid] = entry.view
                by_task[task_id] = views
        for task_id, views in by_task.items():
            try:
                engine = self.worker.engine_by_global_id(
                    comper_of_task_id(task_id)
                )
                ready = engine.deliver(task_id, views)
            except GThinkerError:
                raise
            except Exception as exc:
                # A waiting task id that resolves to no engine or no
                # pending entry means task identity was corrupted
                # somewhere upstream (e.g. an id that survived a
                # spill/steal handoff).
                raise TaskError(
                    task_id,
                    f"cannot deliver arrival of vertices {list(views)} "
                    f"(ResponseBatch from worker {msg.src}): {exc}",
                ) from exc
            if ready is not None:
                engine.b_task.put(ready)
        self.worker.metrics.add("comm:responses_received", len(landed))
        self.worker.metrics.add("time:comm_land_s", time.perf_counter() - t0)
