"""The highly-concurrent remote-vertex cache ``T_cache`` (paper §V-A, Fig. 6).

``T_cache`` is an array of ``k`` buckets, each guarded by its own mutex
so operations on vertices hashed to different buckets proceed in
parallel.  Each bucket holds three tables:

* **Γ-table** — cached vertices ``(v, Γ(v))`` with a ``lock_count(v)``
  of tasks currently using ``v``;
* **Z-table** — the subset of Γ-table entries with ``lock_count == 0``
  (safe to evict; lets GC scan only evictables while holding the lock);
* **R-table** — vertices requested but not yet received, each mapped to
  the list of waiting task ids (its length is the lock count the
  response will transfer).

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
are the per-vertex sequence in batch order — one in-order pass, each
vertex's transition under its own bucket mutex (the paper's OP
granularity) — minus its per-call overhead.  The OP outcome counts are
per-bucket ints bumped under that mutex and published by
:meth:`VertexCache.commit_lock_metrics`: exact on every runtime.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..graph import kernels
from ..net.message import ResponseBatch
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

    The cache holds remote rows only.  ``adj`` is a sorted read-only
    int64 ndarray: a slice of the ``adj_concat`` of the
    :class:`ResponseBatch` that carried it, or the array given to
    :meth:`VertexCache.insert_response`, made read-only.  ``view`` is
    the entry as the frontier element every hit hands out.
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
    __slots__ = ("lock", "gamma", "zero", "requests", "acquisitions", "hits",
                 "miss_first", "miss_duplicate", "responses", "evictions")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.gamma: Dict[int, CachedVertex] = {}
        self.zero: Set[int] = set()
        #: R-table: vertex -> ids of the tasks waiting for its response.
        self.requests: Dict[int, List[int]] = {}
        # Mutex acquisitions by OP1-OP4/get_locked and the OP outcome
        # counts.  Mutated only while ``lock`` is held, so they are
        # exact without any extra synchronization.
        self.acquisitions = 0
        self.hits = 0
        self.miss_first = 0
        self.miss_duplicate = 0
        self.responses = 0
        self.evictions = 0


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

        #: Per-metric totals already published by commit_lock_metrics.
        self._committed: Dict[str, int] = {}

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
                b.hits += 1
                return RequestOutcome(RequestOutcome.HIT, entry)
            waiting = b.requests.get(v)
            if waiting is None:
                # Case 2.1: first request for v.
                b.requests[v] = [task_id]
                b.miss_first += 1
            else:
                # Case 2.2: duplicate request — suppressed.
                waiting.append(task_id)
                b.miss_duplicate += 1
        if waiting is None:
            self._bump(+1)
            return RequestOutcome(RequestOutcome.MISS_SEND)
        return RequestOutcome(RequestOutcome.MISS_DUPLICATE)

    def request_batch(self, vertices: Sequence[int], task_id: int) -> BatchRequestOutcome:
        """Bulk OP1: request every vertex in ``vertices`` for one task.

        One in-order pass applying :meth:`request`'s transition to each
        vertex under its bucket's mutex.  The HIT entries come back
        locked (the lock is taken here, exactly as OP1 does), so the
        task reads them without a :meth:`get_locked` round.
        """
        buckets, k = self._buckets, self._num_buckets
        entries: Dict[int, CachedVertex] = {}
        to_send: List[int] = []
        hits = duplicates = 0
        for v in vertices:
            b = buckets[v % k]
            with b.lock:
                b.acquisitions += 1
                entry = b.gamma.get(v)
                if entry is not None:
                    if entry.lock_count == 0:
                        b.zero.discard(v)
                    entry.lock_count += 1
                    b.hits += 1
                    entries[v] = entry
                    hits += 1
                    continue
                waiting = b.requests.get(v)
                if waiting is None:
                    b.requests[v] = [task_id]
                    b.miss_first += 1
                    to_send.append(v)
                else:
                    waiting.append(task_id)
                    b.miss_duplicate += 1
                    duplicates += 1
        if to_send:
            self._bump(len(to_send))
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
            waiting = b.requests.pop(v, None)
            if waiting is None:
                raise CacheProtocolError(
                    f"response for vertex {v} that has no R-table entry"
                )
            if v in b.gamma:
                raise CacheProtocolError(f"vertex {v} already in Γ-table")
            arr = kernels.as_ids_array(adj)
            if arr.flags.writeable:
                arr.flags.writeable = False
            entry = CachedVertex(int(v), int(label), arr,
                                 lock_count=len(waiting))
            b.gamma[v] = entry
            b.responses += 1
        # s_cache unchanged (R-table entry became a Γ-table entry).
        if self._memory_model is not None:
            self._memory_model.add_cache(entry.memory_estimate_bytes())
        return waiting

    def insert_responses(
        self, batch: ResponseBatch
    ) -> List[Tuple[CachedVertex, List[int]]]:
        """Bulk OP2: land a whole :class:`ResponseBatch`.

        One in-order pass applying :meth:`insert_response`'s transition
        to each row under its bucket's mutex; each row's adjacency is a
        slice of one read-only ``adj_concat``.  Returns ``[(entry,
        waiting_task_ids), ...]`` in batch order, so the caller hands
        each waiting task the entry's view.  Raises
        :class:`CacheProtocolError` mid-batch on a protocol violation —
        rows already landed stay landed, mirroring a per-vertex sequence
        that fails partway through.
        """
        ids = batch.ids.tolist()
        labels = batch.labels.tolist()
        offsets = batch.offsets.tolist()
        adj = kernels.as_ids_array(batch.adj_concat).view()
        adj.flags.writeable = False
        buckets, k = self._buckets, self._num_buckets
        landed: List[Tuple[CachedVertex, List[int]]] = []
        try:
            for i, v in enumerate(ids):
                b = buckets[v % k]
                with b.lock:
                    b.acquisitions += 1
                    waiting = b.requests.pop(v, None)
                    if waiting is None:
                        raise CacheProtocolError(
                            f"response for vertex {v} that has no R-table entry"
                        )
                    if v in b.gamma:
                        raise CacheProtocolError(f"vertex {v} already in Γ-table")
                    entry = b.gamma[v] = CachedVertex(
                        v, labels[i], adj[offsets[i]:offsets[i + 1]],
                        lock_count=len(waiting))
                    b.responses += 1
                landed.append((entry, waiting))
        finally:
            # s_cache unchanged (R-table entries became Γ-table entries);
            # the landed rows are a prefix, so their bytes are one sum.
            n = len(landed)
            if self._memory_model is not None and n:
                self._memory_model.add_cache(
                    n * _ENTRY_HEADER_BYTES + 8 * (offsets[n] - offsets[0]))
        return landed

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

        One in-order pass applying :meth:`release`'s transition to each
        vertex under its bucket's mutex (a vertex listed twice is
        decremented twice).
        """
        buckets, k = self._buckets, self._num_buckets
        for v in vertices:
            b = buckets[v % k]
            with b.lock:
                b.acquisitions += 1
                entry = b.gamma.get(v)
                if entry is None or entry.lock_count <= 0:
                    raise CacheProtocolError(
                        f"release of vertex {v} that is not locked in the "
                        f"Γ-table"
                    )
                entry.lock_count -= 1
                if entry.lock_count == 0:
                    b.zero.add(v)

    # -- reads of held entries (no extra lock taken) -----------------------------

    def get_locked(self, v: int, task_id: int = -1) -> CachedVertex:
        """Fetch a vertex this task already holds a lock on, without
        re-incrementing it (tests and diagnostics: the engine gets its
        views at hit or arrival time).  ``task_id`` is checker
        attribution, ignored here.
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
                        b.evictions += 1
        if evicted:
            with self._s_cache_lock:
                self._s_cache -= evicted
            if self._memory_model is not None:
                self._memory_model.add_cache(-freed_bytes)
        return evicted

    # -- counter publication --------------------------------------------------

    def bucket_lock_acquisitions(self) -> int:
        """Total bucket-mutex acquisitions so far (racy read; exact once
        the cache is quiescent)."""
        return sum(b.acquisitions for b in self._buckets)

    def commit_lock_metrics(self) -> None:
        """Publish the per-bucket counters (lock acquisitions, hits,
        misses, responses, evictions) to their ``cache:*`` metrics.

        Watermark-tracked so repeated calls (every sync) are idempotent;
        each metric ends up equal to its bucket total at job end.
        """
        # One pass over the buckets: this runs at every status report.
        acq = hits = first = dup = resp = evict = 0
        for b in self._buckets:
            acq += b.acquisitions
            hits += b.hits
            first += b.miss_first
            dup += b.miss_duplicate
            resp += b.responses
            evict += b.evictions
        committed = self._committed
        for metric, total in (("cache:bucket_lock_acquisitions", acq),
                              ("cache:hits", hits),
                              ("cache:miss_first", first),
                              ("cache:miss_duplicate", dup),
                              ("cache:responses", resp),
                              ("cache:evictions", evict)):
            delta = total - committed.get(metric, 0)
            if delta:
                self._metrics.add(metric, delta)
                committed[metric] = total

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
