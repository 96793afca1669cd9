"""The highly-concurrent remote-vertex cache ``T_cache`` (paper §V-A, Fig. 6).

``T_cache`` is an array of ``k`` buckets, each guarded by its own mutex
so operations on vertices hashed to different buckets proceed in
parallel.  Each bucket holds three tables:

* **Γ-table** — cached vertices ``(v, Γ(v))`` with a ``lock_count(v)``
  of tasks currently using ``v``;
* **Z-table** — the subset of Γ-table entries with ``lock_count == 0``
  (safe to evict; lets GC scan only evictables while holding the lock);
* **R-table** — vertices requested but not yet received, each with the
  id list of waiting tasks (``lock_count`` is that list's length plus
  any extra holds).

The four atomic operations:

* **OP1** :meth:`VertexCache.request` — a comper asks for ``Γ(v)``;
* **OP2** :meth:`VertexCache.insert_response` — the receiving thread
  moves ``v`` from R-table to Γ-table, transferring its lock count;
* **OP3** :meth:`VertexCache.release` — a task releases ``v`` after an
  iteration; at zero the vertex enters the Z-table;
* **OP4** :meth:`VertexCache.evict` — GC removes Z-table entries,
  round-robin over buckets, until the overflow is cleared.

The cache size ``s_cache`` counts Γ-table plus R-table entries and is
maintained *approximately*: each thread accumulates a local delta and
commits it when it reaches ±δ (paper default δ=10), bounding contention
on the shared counter while keeping the estimation error below
``n_threads · δ``.

The bulk entry points :meth:`VertexCache.request_batch`,
:meth:`VertexCache.insert_responses` and :meth:`VertexCache.release_batch`
apply a whole batch of OP1/OP2/OP3 operations while taking each touched
bucket's mutex **once per batch** instead of once per vertex.  They are
observationally equivalent to the per-vertex sequence in batch order
(same outcomes, same lock counts, same Z-table membership, same
``s_cache``); only the number of mutex acquisitions differs, which the
``cache:bucket_lock_acquisitions`` metric makes visible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..graph import kernels
from .api import VertexView
from .errors import CacheProtocolError
from .metrics import MetricsRegistry

__all__ = [
    "VertexCache",
    "CachedVertex",
    "RequestOutcome",
    "BatchRequestOutcome",
]

#: Modeled per-entry header cost: the CachedVertex record, the Γ-table
#: slot and the ndarray object header a C++ implementation would also
#: pay in some form.  The old ``32`` ignored all of that and undercounted.
_ENTRY_HEADER_BYTES = 64


@dataclass
class CachedVertex:
    """A Γ-table entry.

    ``adj`` is a sorted read-only int64 ndarray — an owned array for
    remote vertices materialized from a wire response, or a zero-copy
    view into the local ``SharedCSR`` partition when the runtime caches
    locally-owned rows.  Legacy tuple adjacency is still accepted.
    ``view`` is the entry as the frontier element every hit hands out.
    """

    vid: int
    label: int
    adj: Union[np.ndarray, Sequence[int]]
    lock_count: int = 0
    view: VertexView = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.view = VertexView(self.vid, self.label, self.adj)

    def memory_estimate_bytes(self) -> int:
        adj = self.adj
        if isinstance(adj, np.ndarray):
            return _ENTRY_HEADER_BYTES + adj.nbytes
        return _ENTRY_HEADER_BYTES + 8 * len(adj)


@dataclass
class _PendingRequest:
    """An R-table entry: tasks waiting for the response."""

    waiting_task_ids: List[int] = field(default_factory=list)

    @property
    def lock_count(self) -> int:
        return len(self.waiting_task_ids)


class RequestOutcome:
    """Result of OP1."""

    HIT = "hit"                    # Γ(v) available; entry returned, lock taken
    MISS_SEND = "miss_send"        # first request: caller must send it
    MISS_DUPLICATE = "miss_dup"    # already requested by another task: wait

    __slots__ = ("status", "entry")

    def __init__(self, status: str, entry: Optional[CachedVertex] = None) -> None:
        self.status = status
        self.entry = entry


class BatchRequestOutcome:
    """Aggregate result of a :meth:`VertexCache.request_batch` (bulk OP1).

    Equivalent to folding the per-vertex :class:`RequestOutcome` stream:
    ``hits`` counts HIT outcomes (each took one lock, exactly as the
    per-vertex op would) and ``entries`` maps each hit vertex to its
    locked entry, ``to_send`` lists the MISS_SEND vertices in batch
    order (the caller must queue a network request for each), and
    ``duplicates`` counts suppressed MISS_DUPLICATE outcomes.
    """

    __slots__ = ("hits", "entries", "to_send", "duplicates")

    def __init__(self, hits: int, entries: Dict[int, CachedVertex],
                 to_send: List[int], duplicates: int) -> None:
        self.hits = hits
        self.entries = entries
        self.to_send = to_send
        self.duplicates = duplicates


class _Bucket:
    __slots__ = ("lock", "gamma", "zero", "requests", "acquisitions")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.gamma: Dict[int, CachedVertex] = {}
        self.zero: Set[int] = set()
        self.requests: Dict[int, _PendingRequest] = {}
        #: Mutex acquisitions by OP1-OP4/get_locked (bulk ops count one
        #: per touched bucket).  Mutated only while ``lock`` is held, so
        #: the count is exact without any extra synchronization.
        self.acquisitions = 0


class VertexCache:
    """The ``T_cache`` structure shared by all compers of one worker."""

    def __init__(
        self,
        num_buckets: int,
        capacity: int,
        overflow_alpha: float,
        count_delta: int = 10,
        metrics: Optional[MetricsRegistry] = None,
        memory_model=None,
    ) -> None:
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self._buckets = [_Bucket() for _ in range(num_buckets)]
        self._num_buckets = num_buckets
        self.capacity = capacity
        self.overflow_alpha = overflow_alpha
        self._count_delta = max(1, count_delta)
        self._metrics = metrics or MetricsRegistry()
        self._memory_model = memory_model

        # Approximate size counter s_cache with per-thread local deltas.
        self._s_cache = 0
        self._s_cache_lock = threading.Lock()
        self._local = threading.local()

        # GC round-robin cursor over buckets.  Guarded by _gc_lock: one
        # service thread calls evict() today, but the cursor must not
        # silently corrupt if a future change runs GC concurrently.
        self._gc_cursor = 0
        self._gc_lock = threading.Lock()

        #: Acquisition total already published by commit_lock_metrics.
        self._lock_metrics_committed = 0

    # -- bucket addressing ------------------------------------------------

    def _bucket(self, v: int) -> _Bucket:
        return self._buckets[v % self._num_buckets]

    # -- approximate size counter ------------------------------------------

    def _local_delta(self) -> int:
        return getattr(self._local, "delta", 0)

    def _bump(self, amount: int) -> None:
        delta = self._local_delta() + amount
        if abs(delta) >= self._count_delta:
            with self._s_cache_lock:
                self._s_cache += delta
            delta = 0
        self._local.delta = delta

    def flush_local_counter(self) -> None:
        """Commit this thread's pending delta (call when a thread parks)."""
        delta = self._local_delta()
        if delta:
            with self._s_cache_lock:
                self._s_cache += delta
            self._local.delta = 0

    @property
    def size_estimate(self) -> int:
        """The approximate ``s_cache`` (committed part only)."""
        with self._s_cache_lock:
            return self._s_cache

    def exact_size(self) -> int:
        """Exact |Γ-tables| + |R-tables| (test/diagnostic use; takes all locks)."""
        total = 0
        for b in self._buckets:
            with b.lock:
                total += len(b.gamma) + len(b.requests)
        return total

    def overflowed(self) -> bool:
        """True when ``s_cache > (1 + α) · c_cache`` — compers must stop
        fetching new tasks and GC must act."""
        return self.size_estimate > (1 + self.overflow_alpha) * self.capacity

    # -- OP1: comper requests Γ(v) -------------------------------------------

    def request(self, v: int, task_id: int) -> RequestOutcome:
        """A task asks for ``Γ(v)``.

        Returns HIT with the entry (lock count incremented), or
        MISS_SEND (v entered the R-table for the first time — the caller
        must append a network request), or MISS_DUPLICATE (another task
        already requested v; this task is queued on the same response).
        """
        b = self._bucket(v)
        with b.lock:
            b.acquisitions += 1
            entry = b.gamma.get(v)
            if entry is not None:
                # Case 1: cached.  Take a lock; leave the Z-table if there.
                if entry.lock_count == 0:
                    b.zero.discard(v)
                entry.lock_count += 1
                self._metrics.add("cache:hits")
                return RequestOutcome(RequestOutcome.HIT, entry)
            pending = b.requests.get(v)
            if pending is None:
                # Case 2.1: first request for v.
                b.requests[v] = _PendingRequest([task_id])
                self._metrics.add("cache:miss_first")
                new_entry = True
            else:
                # Case 2.2: duplicate request — suppressed.
                pending.waiting_task_ids.append(task_id)
                self._metrics.add("cache:miss_duplicate")
                new_entry = False
        if new_entry:
            self._bump(+1)
            return RequestOutcome(RequestOutcome.MISS_SEND)
        return RequestOutcome(RequestOutcome.MISS_DUPLICATE)

    def request_batch(self, vertices: Sequence[int], task_id: int) -> BatchRequestOutcome:
        """Bulk OP1: request every vertex in ``vertices`` for one task.

        Groups the vertices by bucket and takes each touched bucket's
        mutex once, applying the per-vertex OP1 state transitions in
        batch order inside it.  Observationally equivalent to calling
        :meth:`request` per vertex; the HIT entries come back locked (the
        lock is taken here, exactly as OP1 does), so a task whose every
        pull hit reads them without a :meth:`get_locked` round.
        """
        by_bucket: Dict[int, List[int]] = {}
        for v in vertices:
            by_bucket.setdefault(v % self._num_buckets, []).append(v)
        entries: Dict[int, CachedVertex] = {}
        hits = 0
        duplicates = 0
        new_entries = 0
        send_set: Set[int] = set()
        for bidx, vs in by_bucket.items():
            b = self._buckets[bidx]
            with b.lock:
                b.acquisitions += 1
                for v in vs:
                    entry = b.gamma.get(v)
                    if entry is not None:
                        if entry.lock_count == 0:
                            b.zero.discard(v)
                        entry.lock_count += 1
                        entries[v] = entry
                        hits += 1
                        continue
                    pending = b.requests.get(v)
                    if pending is None:
                        b.requests[v] = _PendingRequest([task_id])
                        new_entries += 1
                        send_set.add(v)
                    else:
                        pending.waiting_task_ids.append(task_id)
                        duplicates += 1
        if hits:
            self._metrics.add("cache:hits", hits)
        if new_entries:
            self._metrics.add("cache:miss_first", new_entries)
            self._bump(+new_entries)
        if duplicates:
            self._metrics.add("cache:miss_duplicate", duplicates)
        # Preserve batch order in to_send so request batches on the wire
        # match what the per-vertex path would have queued (one entry per
        # MISS_SEND even if the batch names a vertex twice).
        to_send: List[int] = []
        for v in vertices:
            if v in send_set:
                send_set.discard(v)
                to_send.append(v)
        return BatchRequestOutcome(hits, entries, to_send, duplicates)

    # -- OP2: receiving thread inserts a response ------------------------------

    def insert_response(self, v: int, label: int, adj: Sequence[int]) -> List[int]:
        """Move ``v`` from R-table to Γ-table; returns the waiting task ids.

        The lock count transfers: every waiting task already holds one
        lock on ``v`` (taken at request time), so the new Γ-entry starts
        with ``len(waiting)`` locks.  ``adj`` is stored as a sorted
        read-only int64 ndarray (zero-copy when the caller already
        decoded one from the binary wire format).
        """
        b = self._bucket(v)
        with b.lock:
            b.acquisitions += 1
            pending = b.requests.pop(v, None)
            if pending is None:
                raise CacheProtocolError(
                    f"response for vertex {v} that has no R-table entry"
                )
            if v in b.gamma:
                raise CacheProtocolError(f"vertex {v} already in Γ-table")
            arr = kernels.as_ids_array(adj)
            if arr.flags.writeable:
                arr.flags.writeable = False
            entry = CachedVertex(int(v), int(label), arr,
                                 lock_count=pending.lock_count)
            b.gamma[v] = entry
            waiting = list(pending.waiting_task_ids)
        # s_cache unchanged (R-table entry became a Γ-table entry).
        if self._memory_model is not None:
            self._memory_model.add_cache(entry.memory_estimate_bytes())
        self._metrics.add("cache:responses")
        return waiting

    def insert_responses(
        self, rows: Iterable[Tuple[int, int, Sequence[int]]]
    ) -> List[Tuple[int, List[int]]]:
        """Bulk OP2: land a batch of ``(v, label, adj)`` responses.

        Groups by bucket, takes each bucket's mutex once, and applies the
        per-vertex OP2 transition for each row in batch order.  Returns
        ``[(v, waiting_task_ids), ...]`` in batch order so the caller can
        notify pending tasks exactly as it would per vertex.  Raises
        :class:`CacheProtocolError` mid-batch on a protocol violation —
        rows already landed stay landed, mirroring a per-vertex sequence
        that fails partway through.
        """
        by_bucket: Dict[int, List[Tuple[int, int, int, Sequence[int]]]] = {}
        order = 0
        for v, label, adj in rows:
            by_bucket.setdefault(v % self._num_buckets, []).append(
                (order, v, label, adj)
            )
            order += 1
        results: List[Optional[Tuple[int, List[int]]]] = [None] * order
        added_bytes = 0
        landed = 0
        try:
            for bidx, items in by_bucket.items():
                b = self._buckets[bidx]
                with b.lock:
                    b.acquisitions += 1
                    for pos, v, label, adj in items:
                        pending = b.requests.pop(v, None)
                        if pending is None:
                            raise CacheProtocolError(
                                f"response for vertex {v} that has no R-table entry"
                            )
                        if v in b.gamma:
                            raise CacheProtocolError(
                                f"vertex {v} already in Γ-table"
                            )
                        arr = kernels.as_ids_array(adj)
                        if arr.flags.writeable:
                            arr.flags.writeable = False
                        entry = CachedVertex(int(v), int(label), arr,
                                             lock_count=pending.lock_count)
                        b.gamma[v] = entry
                        results[pos] = (int(v), list(pending.waiting_task_ids))
                        added_bytes += entry.memory_estimate_bytes()
                        landed += 1
        finally:
            # s_cache unchanged (R-table entries became Γ-table entries).
            if self._memory_model is not None and added_bytes:
                self._memory_model.add_cache(added_bytes)
            if landed:
                self._metrics.add("cache:responses", landed)
        return [r for r in results if r is not None]

    # -- OP3: task releases a vertex after an iteration -------------------------

    def release(self, v: int, task_id: int = -1) -> None:
        """Decrement ``lock_count(v)``; at zero, enter the Z-table.

        ``task_id`` identifies the releasing task; the base cache ignores
        it, the protocol checker uses it to balance each task's ledger.
        """
        b = self._bucket(v)
        with b.lock:
            b.acquisitions += 1
            entry = b.gamma.get(v)
            if entry is None or entry.lock_count <= 0:
                raise CacheProtocolError(
                    f"release of vertex {v} that is not locked in the Γ-table"
                )
            entry.lock_count -= 1
            if entry.lock_count == 0:
                b.zero.add(v)

    def release_batch(self, vertices: Sequence[int], task_id: int = -1) -> None:
        """Bulk OP3: release every vertex in ``vertices`` for one task.

        Groups by bucket and takes each touched bucket's mutex once.
        Equivalent to calling :meth:`release` per vertex in batch order
        (a vertex listed twice is decremented twice).
        """
        by_bucket: Dict[int, List[int]] = {}
        for v in vertices:
            by_bucket.setdefault(v % self._num_buckets, []).append(v)
        for bidx, vs in by_bucket.items():
            b = self._buckets[bidx]
            with b.lock:
                b.acquisitions += 1
                for v in vs:
                    entry = b.gamma.get(v)
                    if entry is None or entry.lock_count <= 0:
                        raise CacheProtocolError(
                            f"release of vertex {v} that is not locked in the "
                            f"Γ-table"
                        )
                    entry.lock_count -= 1
                    if entry.lock_count == 0:
                        b.zero.add(v)

    # -- reads for ready tasks (no extra lock taken) -----------------------------

    def get_locked(self, v: int, task_id: int = -1) -> CachedVertex:
        """Fetch a vertex this task already holds a lock on.

        Used when a pending task becomes ready: its request locks were
        taken at OP1 time, so resolution must *not* re-increment.
        ``task_id`` is checker attribution, ignored here.
        """
        b = self._bucket(v)
        with b.lock:
            b.acquisitions += 1
            entry = b.gamma.get(v)
            if entry is None or entry.lock_count <= 0:
                raise CacheProtocolError(
                    f"vertex {v} expected locked in Γ-table but is not"
                )
            return entry

    # -- OP4: garbage collection ----------------------------------------------

    def evict(self, max_evictions: Optional[int] = None) -> int:
        """Evict up to ``max_evictions`` zero-lock vertices, round-robin
        over buckets; returns how many were evicted.

        With ``max_evictions=None``, clears the current overflow
        ``s_cache - c_cache`` (the paper's δ_cache batch).  The calling
        thread's uncommitted counter delta is flushed first so the
        overflow budget is computed from this thread's true view of
        ``s_cache`` — without this the GC thread's own pending inserts
        made it under- or over-shoot by up to δ.
        """
        if max_evictions is None:
            self.flush_local_counter()
            max_evictions = max(0, self.size_estimate - self.capacity)
        evicted = 0
        scanned_buckets = 0
        freed_bytes = 0
        with self._gc_lock:
            while evicted < max_evictions and scanned_buckets < self._num_buckets:
                b = self._buckets[self._gc_cursor]
                self._gc_cursor = (self._gc_cursor + 1) % self._num_buckets
                scanned_buckets += 1
                with b.lock:
                    b.acquisitions += 1
                    while b.zero and evicted < max_evictions:
                        v = b.zero.pop()
                        entry = b.gamma.pop(v)
                        freed_bytes += entry.memory_estimate_bytes()
                        evicted += 1
        if evicted:
            with self._s_cache_lock:
                self._s_cache -= evicted
            if self._memory_model is not None:
                self._memory_model.add_cache(-freed_bytes)
            self._metrics.add("cache:evictions", evicted)
        return evicted

    # -- lock-acquisition accounting ------------------------------------------

    def bucket_lock_acquisitions(self) -> int:
        """Total bucket-mutex acquisitions so far (racy read; exact once
        the cache is quiescent)."""
        return sum(b.acquisitions for b in self._buckets)

    def commit_lock_metrics(self) -> None:
        """Publish the acquisition total to ``cache:bucket_lock_acquisitions``.

        Delta-tracked so repeated calls (every sync) are idempotent; the
        metric ends up equal to :meth:`bucket_lock_acquisitions` at job
        end.
        """
        total = self.bucket_lock_acquisitions()
        delta = total - self._lock_metrics_committed
        if delta:
            self._metrics.add("cache:bucket_lock_acquisitions", delta)
            self._lock_metrics_committed = total

    # -- invariant checks (tests) -------------------------------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants (single-threaded contexts only)."""
        for b in self._buckets:
            with b.lock:
                for v in b.zero:
                    if v not in b.gamma:
                        raise CacheProtocolError(f"Z-table entry {v} not in Γ-table")
                    if b.gamma[v].lock_count != 0:
                        raise CacheProtocolError(
                            f"Z-table entry {v} has lock_count "
                            f"{b.gamma[v].lock_count}"
                        )
                for v, entry in b.gamma.items():
                    if entry.lock_count == 0 and v not in b.zero:
                        raise CacheProtocolError(
                            f"Γ-table entry {v} has zero locks but is not in Z-table"
                        )
                    if entry.lock_count < 0:
                        raise CacheProtocolError(f"negative lock count on {v}")
                    if v in b.requests:
                        raise CacheProtocolError(f"{v} in both Γ-table and R-table")
