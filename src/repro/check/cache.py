"""OP1–OP4 cache-protocol checker.

:class:`CheckedVertexCache` is a drop-in :class:`VertexCache` that keeps
a *per-task lock ledger* — which task holds how many locks on which
vertex — beside the cache's own ``lock_count``s, and cross-checks the
two on every operation:

* **lock-count balance**: for every touched vertex, the Γ-table (or
  R-table) lock count equals the sum of ledger holds across tasks;
* **no release-without-request** (and no unattributed release): OP3 must
  name a task that holds a ledger lock on the vertex;
* **no view without a hold**: every view handed to a task (its hits at
  park time, its arrivals) is of a vertex it holds a ledger lock on;
* **Γ/Z/R disjointness** and Z-table consistency on the touched bucket.

Operations are serialized by one checker lock so the assertions are
exact (the base class' finer-grained bucket locking is still exercised
underneath).  GC additionally runs inside a
:class:`~repro.check.guards.SingleWriterGuard`, asserting the
single-caller discipline the round-robin cursor relies on.
"""

from __future__ import annotations

import threading
from typing import Dict

from ..core.errors import ProtocolViolation
from ..core.vertex_cache import (
    BatchRequestOutcome,
    RequestOutcome,
    VertexCache,
)
from .guards import SingleWriterGuard

__all__ = ["CheckedVertexCache"]


class CheckedVertexCache(VertexCache):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._check_lock = threading.RLock()
        # task_id -> {vertex -> holds}; _holds_by_vertex is the column sum.
        self._ledger: Dict[int, Dict[int, int]] = {}
        self._holds_by_vertex: Dict[int, int] = {}
        self._gc_guard = SingleWriterGuard("T_cache GC cursor")

    # -- ledger ------------------------------------------------------------

    def _fail(self, message: str, task_id: int = -1, vertex: int = -1) -> None:
        raise ProtocolViolation("cache-protocol", message, task_id=task_id, vertex=vertex)

    def _ledger_add(self, task_id: int, v: int) -> None:
        self._ledger.setdefault(task_id, {})[v] = (
            self._ledger.get(task_id, {}).get(v, 0) + 1
        )
        self._holds_by_vertex[v] = self._holds_by_vertex.get(v, 0) + 1

    def _ledger_remove(self, task_id: int, v: int) -> None:
        per_task = self._ledger.get(task_id)
        if not per_task or per_task.get(v, 0) <= 0:
            self._fail(
                "OP3 release of a vertex the task holds no lock on "
                "(release-without-request)",
                task_id=task_id,
                vertex=v,
            )
        per_task[v] -= 1
        if per_task[v] == 0:
            del per_task[v]
            if not per_task:
                del self._ledger[task_id]
        self._holds_by_vertex[v] -= 1
        if self._holds_by_vertex[v] == 0:
            del self._holds_by_vertex[v]

    def _check_balance(self, v: int) -> None:
        """Γ/R lock count of ``v`` must equal the ledger column sum."""
        b = self._bucket(v)
        with b.lock:
            entry = b.gamma.get(v)
            pending = b.requests.get(v)
            if entry is not None and pending is not None:
                self._fail("vertex in both Γ-table and R-table", vertex=v)
            if entry is not None:
                have = entry.lock_count
            elif pending is not None:
                have = len(pending)
            else:
                have = 0
            want = self._holds_by_vertex.get(v, 0)
            if have != want:
                self._fail(
                    f"lock-count imbalance: cache says {have}, "
                    f"task ledger says {want}",
                    vertex=v,
                )

    def _check_bucket(self, v: int) -> None:
        """Structural Γ/Z/R invariants of the bucket holding ``v``."""
        b = self._bucket(v)
        with b.lock:
            for u in b.zero:
                if u not in b.gamma:
                    self._fail("Z-table entry not in Γ-table", vertex=u)
                if b.gamma[u].lock_count != 0:
                    self._fail(
                        f"Z-table entry has lock_count {b.gamma[u].lock_count}",
                        vertex=u,
                    )
            for u, entry in b.gamma.items():
                if entry.lock_count < 0:
                    self._fail("negative lock count", vertex=u)
                if entry.lock_count == 0 and u not in b.zero:
                    self._fail("zero-lock Γ-table entry missing from Z-table", vertex=u)
                if u in b.requests:
                    self._fail("vertex in both Γ-table and R-table", vertex=u)

    # -- checked OP1-OP4 ---------------------------------------------------

    def request(self, v: int, task_id: int) -> RequestOutcome:
        with self._check_lock:
            if task_id == -1:
                self._fail("OP1 request without a task id", vertex=v)
            outcome = super().request(v, task_id)
            self._ledger_add(task_id, v)
            self._check_balance(v)
            self._check_bucket(v)
            return outcome

    def insert_response(self, v, label, adj):
        with self._check_lock:
            waiting = super().insert_response(v, label, adj)
            # OP2 transfers the R-table lock count; every waiter must
            # hold exactly the ledger locks taken at OP1 time.
            for task_id in waiting:
                holds = self._ledger.get(task_id, {}).get(v, 0)
                if holds < 1:
                    self._fail(
                        "OP2 delivered a response to a task with no "
                        "ledger lock on the vertex",
                        task_id=task_id,
                        vertex=v,
                    )
            self._check_balance(v)
            self._check_bucket(v)
            return waiting

    def release(self, v: int, task_id: int = -1) -> None:
        with self._check_lock:
            self._ledger_remove(task_id, v)
            super().release(v, task_id)
            self._check_balance(v)
            self._check_bucket(v)

    # Bulk ops decompose into the checked per-vertex operations so every
    # batch element passes through the ledger and invariant checks; the
    # decomposition is exactly the observational-equivalence contract
    # the property tests assert.

    def request_batch(self, vertices, task_id: int) -> BatchRequestOutcome:
        with self._check_lock:
            hits = 0
            entries = {}
            duplicates = 0
            to_send = []
            for v in vertices:
                outcome = self.request(v, task_id)
                if outcome.status == RequestOutcome.HIT:
                    hits += 1
                    entries[v] = outcome.entry
                elif outcome.status == RequestOutcome.MISS_SEND:
                    to_send.append(v)
                else:
                    duplicates += 1
            return BatchRequestOutcome(hits, entries, to_send, duplicates)

    def insert_responses(self, batch):
        with self._check_lock:
            landed = []
            for v, label, adj in batch.iter_rows():
                waiting = self.insert_response(v, label, adj)
                landed.append((self._bucket(v).gamma[v], waiting))
            return landed

    def release_batch(self, vertices, task_id: int = -1) -> None:
        with self._check_lock:
            for v in vertices:
                self.release(v, task_id)

    def get_locked(self, v: int, task_id: int = -1):
        with self._check_lock:
            self.check_delivery(task_id, (v,))
            return super().get_locked(v, task_id)

    def check_delivery(self, task_id: int, vertices) -> None:
        """Every view handed to a task (a park-time hit, an arrival
        delivered by the receiver) must be of a vertex that task holds
        a ledger lock on: the task computes on it until its release."""
        with self._check_lock:
            held = self._ledger.get(task_id, {})
            for v in vertices:
                if held.get(v, 0) < 1:
                    self._fail(
                        "view handed to a task holding no ledger lock on "
                        "the vertex",
                        task_id=task_id,
                        vertex=v,
                    )

    def evict(self, max_evictions=None) -> int:
        # Guard entered before the serializing lock so a second
        # concurrent GC caller is detected as overlap, not silently
        # serialized away.
        with self._gc_guard.entered():
            with self._check_lock:
                evicted = super().evict(max_evictions)
                if evicted:
                    for v, holds in self._holds_by_vertex.items():
                        if holds > 0:
                            b = self._bucket(v)
                            with b.lock:
                                present = v in b.gamma or v in b.requests
                            if not present:
                                self._fail(
                                    "OP4 evicted a vertex with live task locks",
                                    vertex=v,
                                )
                return evicted

    # -- end-of-job ---------------------------------------------------------

    def assert_quiescent(self) -> None:
        """At job termination: no pending requests, no locks, no ledger."""
        with self._check_lock:
            if self._ledger:
                leaks = {
                    hex(tid): dict(held) for tid, held in self._ledger.items()
                }
                self._fail(f"task lock ledger not empty at termination: {leaks}")
            self.check_invariants()
            for b in self._buckets:
                with b.lock:
                    if b.requests:
                        self._fail(
                            f"R-table not empty at termination: "
                            f"{sorted(b.requests)}"
                        )
                    for v, entry in b.gamma.items():
                        if entry.lock_count != 0:
                            self._fail(
                                f"vertex still locked at termination "
                                f"(lock_count={entry.lock_count})",
                                vertex=v,
                            )
