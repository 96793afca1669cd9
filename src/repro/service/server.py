"""The resident-graph job server: multi-tenant admission over one graph.

One :class:`GraphService` owns one graph for its whole life.  The graph
is loaded (and its CSR flattened) exactly once; every admitted job runs
against it through a long-lived :class:`~repro.core.session.Session`,
so the per-job cost is mining, not setup — the NScale "resident
neighborhood service" economics applied to the G-thinker runtime stack.

Admission control (the HUGE lesson: throughput is a *scheduling*
property):

* **Bounded queue** — at most ``max_queue_depth`` jobs may wait;
  admission past that raises
  :class:`~repro.core.errors.JobRejectedError` so backpressure is
  explicit, never an unbounded memory balloon.
* **Worker quotas** — each job asks for ``num_workers`` and is capped
  at ``max_workers_per_job``; jobs start only while the sum of running
  quotas fits ``worker_budget``, so one greedy job cannot occupy the
  machine.
* **Weighted fairness** — queued tenants are drained by stride
  scheduling: each tenant holds a virtual *pass*, the lowest pass runs
  next, and dispatching advances the tenant's pass by
  ``quota / weight``.  A tenant that just went active starts at the
  current virtual time (never in the past), so a backlogged tenant
  cannot starve a light one and an idle tenant cannot hoard credit.
* **Result cache** — finished answers are memoized under
  ``(graph_digest, app, canonical params)`` by a
  :class:`~repro.service.cache.ResultCache`; a repeated submission
  completes at admission time with zero mining rounds.  With a
  ``cache_dir`` the cache persists across service restarts.
* **In-flight dedup** — a submission whose cache key matches a job
  that is already queued or running *attaches* to that execution
  instead of mining twice.  The scheduler's unit is therefore the
  :class:`_Execution` (one factory, one quota, one Session handle);
  each :class:`_JobRecord` is a per-tenant *subscriber* with its own
  id, status, and ``done_seq``.  Cancelling one subscriber never kills
  an execution that other live subscribers still want.
* **Cancellation** — a queued job cancels immediately; a *running*
  job is cancelled cooperatively through the runtime's
  :class:`~repro.core.runtime.AbortToken` (honored at sync-barrier /
  steal-sweep boundaries), releasing its worker quota within one
  scheduler pass.

The wire is the ``net/`` control-plane plumbing: one
:class:`~repro.net.tcp.ControlChannel` (length-prefixed pickled frames,
the GTWIRE1 framing discipline) per client connection, one handler
thread per connection, request/reply tuples ``(op, payload)`` ->
``("ok"| "error", payload)``.  :class:`repro.service.client.ServiceClient`
is the matching caller.
"""

from __future__ import annotations

import functools
import itertools
import os
import selectors
import socket
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import GThinkerConfig, parse_host_port
from ..core.errors import (
    JobCancelledError,
    JobRejectedError,
    ServiceError,
    WireDecodeError,
)
from ..core.job import get_runtime
from ..core.session import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    Session,
)
from ..graph.digest import graph_digest
from ..net.tcp import ChannelClosed, ControlChannel, listen_socket
from .cache import ResultCache
from .jobs import JobSpec, admit, available_apps

__all__ = ["GraphService"]

#: Ops a connection may invoke; anything else is a bad request.
_OPS = ("hello", "submit", "status", "result", "cancel", "jobs", "stats",
        "shutdown")

#: Record states with nothing left to settle.
_TERMINAL = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)
#: Record states a cancel can still act on.
_LIVE = (JOB_QUEUED, JOB_RUNNING)
#: Finished job records the service keeps for ``status`` / ``result``
#: (newest first to stay); older ones are forgotten, so a long-lived
#: server's memory does not grow with the number of jobs it has run.
MAX_FINISHED_RECORDS = 128


class _Execution:
    """One actual mining run: the unit the scheduler queues and funds.

    Holds the app factory, the worker quota it charges, and — once
    dispatched — the Session handle.  ``records`` is every subscriber
    (the original submission plus any deduplicated attachments); the
    execution is killed only when its *last* live subscriber cancels.
    """

    __slots__ = ("key", "factory", "quota", "tenant", "records", "handle",
                 "status", "abort_requested")

    def __init__(self, key: str, factory, quota: int, tenant: str,
                 record: "_JobRecord") -> None:
        self.key = key
        self.factory = factory
        self.quota = quota
        self.tenant = tenant
        self.records: List[_JobRecord] = [record]
        self.handle = None
        self.status = JOB_QUEUED
        self.abort_requested = False

    def live_records(self, but: "_JobRecord" = None) -> List["_JobRecord"]:
        return [r for r in self.records if r is not but and r.status in _LIVE]


class _JobRecord:
    """Server-side state of one submitted job (one execution subscriber)."""

    __slots__ = (
        "job_id", "spec", "quota", "key", "status", "cached", "deduped",
        "submitted_at", "started_at", "finished_at", "done_seq",
        "error", "result", "event", "execution",
    )

    def __init__(self, job_id: str, spec: JobSpec, quota: int,
                 key: str) -> None:
        self.job_id = job_id
        self.spec = spec
        self.quota = quota
        self.key = key
        self.status = JOB_QUEUED
        self.cached = False
        self.deduped = False
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done_seq: Optional[int] = None
        self.error: Optional[str] = None
        self.result = None
        self.event = threading.Event()
        self.execution: Optional[_Execution] = None

    def to_wire(self) -> Dict[str, Any]:
        """The public, picklable view (no handles, no factories)."""
        return {
            "job_id": self.job_id,
            "app": self.spec.app,
            "params": dict(self.spec.params),
            "tenant": self.spec.tenant,
            "quota": self.quota,
            "status": self.status,
            "cached": self.cached,
            "deduped": self.deduped,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "done_seq": self.done_seq,
            "error": self.error,
            # Mining evidence for the cache-hit proof: a served-from-
            # cache job never touched a worker, so its round count is
            # identically zero; an executed job reports the engine's
            # task-iteration counter from its worker metrics.
            "mining_rounds": (
                0.0 if self.cached else
                (self.result.metrics.get("tasks:iterations", 0.0)
                 if self.result is not None else None)
            ),
        }


class GraphService:
    """A long-lived, multi-tenant job server over one resident graph.

    Parameters
    ----------
    graph:
        The resident :class:`~repro.graph.Graph` (or
        ``ShardedGraphStore``).  Loaded once; digested once for cache
        keys.
    config:
        Base :class:`GThinkerConfig` for executed jobs; each job's
        ``num_workers`` is overridden by its admitted quota.
    runtime:
        Runtime every job runs on (``serial`` / ``threaded`` /
        ``process`` / ``checked``).
    bind:
        ``"host:port"`` for the request listener (port 0 = ephemeral;
        read the bound port from :attr:`address`).
    worker_budget:
        Total worker quota that may run concurrently (default: CPU
        count, at least the per-job cap).
    max_workers_per_job:
        Per-job quota cap (default: the base config's ``num_workers``).
    max_queue_depth:
        Bounded admission queue; submissions past it are rejected with
        :class:`JobRejectedError`.
    tenant_weights:
        ``{tenant: weight}`` for the stride scheduler; unlisted tenants
        weigh ``1.0``.
    result_cache_size:
        LRU capacity of the ``(graph, app, params)`` result cache.
        0 disables caching (including ``cache_dir`` persistence).
    cache_dir:
        Optional directory for the persistent result store; finished
        answers written here survive a service restart (files carry
        the graph digest and are invalidated on mismatch).
    """

    def __init__(
        self,
        graph,
        config: Optional[GThinkerConfig] = None,
        runtime: str = "serial",
        bind: str = "127.0.0.1:0",
        worker_budget: Optional[int] = None,
        max_workers_per_job: Optional[int] = None,
        max_queue_depth: int = 64,
        tenant_weights: Optional[Dict[str, float]] = None,
        result_cache_size: int = 128,
        cache_dir: Optional[str] = None,
    ) -> None:
        get_runtime(runtime)  # an unknown name fails here, before any work
        self._base_config = config or GThinkerConfig()
        if max_workers_per_job is None:
            max_workers_per_job = self._base_config.num_workers
        if max_workers_per_job < 1:
            raise ValueError("max_workers_per_job must be >= 1")
        if worker_budget is None:
            worker_budget = max(os.cpu_count() or 2, max_workers_per_job)
        if worker_budget < max_workers_per_job:
            raise ValueError(
                f"worker_budget ({worker_budget}) must be >= "
                f"max_workers_per_job ({max_workers_per_job})"
            )
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if result_cache_size < 0:
            raise ValueError("result_cache_size must be >= 0")
        for tenant, w in (tenant_weights or {}).items():
            if w <= 0:
                raise ValueError(f"tenant weight for {tenant!r} must be > 0")

        self.graph = graph
        self.runtime = runtime
        self.digest = graph_digest(graph)
        self._bind = parse_host_port(bind)
        self._budget_total = worker_budget
        self._max_workers_per_job = max_workers_per_job
        self._max_queue_depth = max_queue_depth
        self._weights = dict(tenant_weights or {})

        # The execution substrate: one Session, graph resident, no
        # second queue below the admission scheduler.
        self._session = Session(graph, config=self._base_config,
                                runtime=runtime, max_concurrent=None)

        self._lock = threading.RLock()
        self._closed = False
        self._records: Dict[str, _JobRecord] = {}
        #: Ids of the terminal records in ``_records``, oldest first.
        self._finished_ids: deque = deque()
        self._queues: Dict[str, deque] = {}  # tenant -> deque[_Execution]
        self._queued_count = 0
        self._tenant_pass: Dict[str, float] = {}
        self._vtime = 0.0
        self._available = worker_budget
        self._seq = itertools.count(1)
        self._done_seq = itertools.count(1)
        self._inflight: Dict[str, _Execution] = {}
        self._cache = ResultCache(result_cache_size, self.digest,
                                  cache_dir=cache_dir)
        self._stats: Dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "rejected": 0,
            "cache_hits": 0,
            "deduped": 0,
            "executed": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
        }

        self._listener: Optional[socket.socket] = None
        self._address: Optional[Tuple[str, int]] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._conn_threads: List[threading.Thread] = []
        self._channels: List[ControlChannel] = []
        self._shutdown = threading.Event()
        self._started = False

    # ------------------------------------------------------------------
    # Admission and scheduling
    # ------------------------------------------------------------------

    def _weight(self, tenant: str) -> float:
        return float(self._weights.get(tenant, 1.0))

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Admit one job; returns its wire record immediately.

        Raises :class:`JobRejectedError` when the app/params are
        invalid or the admission queue is full, and
        :class:`ServiceError` after :meth:`close` (checked *before*
        any scheduler state changes, so a late submission can never
        wedge the budget).  A result-cache hit returns an already-
        ``done`` record (``cached: True``) without touching a worker;
        a key already queued or running attaches to that execution
        (``deduped: True``) instead of mining twice.
        """
        try:
            factory, key = admit(self.digest, spec.app, spec.params)
            requested = (spec.num_workers if spec.num_workers is not None
                         else self._base_config.num_workers)
            if requested < 1:
                raise JobRejectedError(
                    f"num_workers must be >= 1, got {requested}")
        except JobRejectedError:
            with self._lock:
                self._stats["rejected"] += 1
            raise
        quota = min(requested, self._max_workers_per_job)
        with self._lock:
            if self._closed:
                raise ServiceError("service is shut down")
            self._stats["submitted"] += 1
            # Make room for this job's record among the finished ones;
            # queued and running records are never dropped.
            while len(self._finished_ids) >= MAX_FINISHED_RECORDS:
                del self._records[self._finished_ids.popleft()]
            record = _JobRecord(f"job-{next(self._seq)}", spec, quota, key)
            self._records[record.job_id] = record
            cached = self._cache.get(key)
            if cached is not None:
                self._stats["cache_hits"] += 1
                record.cached = True
                record.result = cached
                record.status = JOB_DONE
                record.started_at = record.finished_at = time.time()
                self._settle_locked(record)
                record.event.set()
                return record.to_wire()
            running = self._inflight.get(key)
            if running is not None and not running.abort_requested:
                # In-flight dedup: subscribe to the execution already
                # queued/running for this exact (graph, app, params).
                # The subscriber gets its own record (id, status,
                # done_seq) but charges no additional quota.
                record.deduped = True
                record.execution = running
                record.quota = running.quota
                running.records.append(record)
                record.status = running.status
                if running.status == JOB_RUNNING:
                    record.started_at = time.time()
                self._stats["deduped"] += 1
                self._stats["admitted"] += 1
                return record.to_wire()
            if self._queued_count >= self._max_queue_depth:
                self._stats["rejected"] += 1
                del self._records[record.job_id]
                raise JobRejectedError(
                    f"admission queue is full ({self._max_queue_depth} "
                    f"jobs queued); retry later or raise max_queue_depth"
                )
            self._stats["admitted"] += 1
            execution = _Execution(key, factory, quota, spec.tenant, record)
            record.execution = execution
            self._inflight[key] = execution
            tenant = spec.tenant
            q = self._queues.get(tenant)
            if q is None:
                q = self._queues[tenant] = deque()
            if not q:
                # Tenant (re)activates at the current virtual time: it
                # keeps any pass it already earned but gains no credit
                # for having been idle.
                self._tenant_pass[tenant] = max(
                    self._tenant_pass.get(tenant, 0.0), self._vtime
                )
            q.append(execution)
            self._queued_count += 1
            self._dispatch_locked()
            return record.to_wire()

    def _dispatch_locked(self) -> None:
        """Start queued executions while worker budget allows (lock held)."""
        self._prune_tenants_locked()
        while self._queued_count:
            active = [(p, t) for t, p in self._tenant_pass.items()
                      if self._queues.get(t)]
            if not active:  # defensive: count says queued, queues disagree
                return
            _pass, tenant = min(active)
            q = self._queues[tenant]
            execution = q[0]
            if execution.status == JOB_CANCELLED:
                # cancel() already took it out of the queued count; here
                # we just garbage-collect the deque entry.
                q.popleft()
                continue
            if execution.quota > self._available:
                return  # strict FIFO-within-fairness: no bypass
            q.popleft()
            self._queued_count -= 1
            self._available -= execution.quota
            self._vtime = self._tenant_pass[tenant]
            self._tenant_pass[tenant] += execution.quota / self._weight(tenant)
            now = time.time()
            execution.status = JOB_RUNNING
            for record in execution.records:
                if record.status == JOB_QUEUED:
                    record.status = JOB_RUNNING
                    record.started_at = now
            job_config = self._base_config.with_updates(
                num_workers=execution.quota)
            # All scheduler state is settled before the Session call, so
            # a submit failure (e.g. the session raced shut) can restore
            # the budget and fail the subscribers without leaving the
            # record stuck RUNNING or the quota leaked.
            try:
                handle = self._session.submit(execution.factory,
                                              config=job_config)
            except BaseException as exc:
                self._available += execution.quota
                self._inflight.pop(execution.key, None)
                self._fail_execution_locked(
                    execution, f"dispatch failed: "
                               f"{type(exc).__name__}: {exc}")
                continue
            self._stats["executed"] += 1
            execution.handle = handle
            handle.add_done_callback(
                functools.partial(self._on_job_done, execution))

    def _settle_locked(self, record: _JobRecord) -> None:
        """Bookkeeping of a record's (one) transition to a terminal state."""
        record.done_seq = next(self._done_seq)
        record.execution = None  # only cancel() of a live record reads it
        self._finished_ids.append(record.job_id)

    def _fail_execution_locked(self, execution: _Execution,
                               error: str) -> None:
        """Settle every live subscriber of a never-ran execution as failed."""
        now = time.time()
        execution.status = JOB_FAILED
        for record in execution.records:
            if record.status in _TERMINAL:
                continue
            record.status = JOB_FAILED
            record.error = error
            record.finished_at = now
            self._settle_locked(record)
            self._stats["failed"] += 1
            record.event.set()

    def _prune_tenants_locked(self) -> None:
        """Drop drained tenants so the maps stay bounded (lock held).

        While anything is queued, a tenant with an empty queue loses its
        deque; its pass entry is kept only while it is *ahead* of
        virtual time (that credit is what stops an idle tenant
        front-running on reactivation) and is dropped once ``_vtime``
        catches up.  When the queue is empty everywhere, credit has no
        competitor to be held against, so the whole scheduler state
        resets — this is what keeps the maps bounded under one-tenant-
        at-a-time traffic, where virtual time never advances.
        """
        if self._queued_count == 0:
            self._queues.clear()
            self._tenant_pass.clear()
            self._vtime = 0.0
            return
        for tenant in [t for t, q in self._queues.items() if not q]:
            del self._queues[tenant]
        for tenant in [t for t, p in self._tenant_pass.items()
                       if p <= self._vtime and not self._queues.get(t)]:
            del self._tenant_pass[tenant]

    def _on_job_done(self, execution: _Execution, handle) -> None:
        """Session runner callback: settle subscribers, refill the budget."""
        events = []
        with self._lock:
            if self._inflight.get(execution.key) is execution:
                del self._inflight[execution.key]
            now = time.time()
            result = None
            error = None
            try:
                result = handle.result(timeout=0)
                status = JOB_DONE
            except JobCancelledError:
                status = JOB_CANCELLED
            except BaseException as exc:
                status = JOB_FAILED
                error = f"{type(exc).__name__}: {exc}"
            execution.status = status
            if status == JOB_DONE:
                self._cache.put(execution.key, result)
            for record in execution.records:
                if record.status in _TERMINAL:
                    continue  # e.g. a subscriber cancelled individually
                record.finished_at = now
                self._settle_locked(record)
                record.status = status
                if status == JOB_DONE:
                    record.result = result
                    self._stats["completed"] += 1
                elif status == JOB_CANCELLED:
                    self._stats["cancelled"] += 1
                else:
                    record.error = error
                    self._stats["failed"] += 1
                events.append(record.event)
            self._available += execution.quota
            self._dispatch_locked()
        for event in events:
            event.set()

    # ------------------------------------------------------------------
    # Job inspection / control (shared by in-process and wire callers)
    # ------------------------------------------------------------------

    def _record(self, job_id: str) -> _JobRecord:
        record = self._records.get(job_id)
        if record is None:
            raise KeyError(job_id)
        return record

    def status(self, job_id: str) -> Dict[str, Any]:
        with self._lock:
            return self._record(job_id).to_wire()

    def jobs(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [r.to_wire() for r in self._records.values()]

    def stats(self) -> Dict[str, Any]:
        with self._conn_lock:
            open_connections = sum(
                1 for t in self._conn_threads if t.is_alive())
        with self._lock:
            return {
                **self._stats,
                "queued": self._queued_count,
                "inflight": len(self._inflight),
                "workers_available": self._available,
                "worker_budget": self._budget_total,
                "cache_entries": len(self._cache),
                "cache_disk_entries": self._cache.disk_entries(),
                "tracked_tenants": len(self._tenant_pass),
                "open_connections": open_connections,
            }

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns True when the cancel was accepted.

        A queued job cancels immediately.  A *running* job is cancelled
        cooperatively: the underlying execution's abort token is set
        and honored at the next sync boundary, so the record reaches
        ``cancelled`` (and the quota is re-admitted) within one
        scheduler pass rather than instantly.  On a deduplicated key
        only the named subscriber is settled; the shared execution is
        killed only when its last live subscriber cancels.  Returns
        False for finished jobs.
        """
        kill_handle = None
        with self._lock:
            record = self._record(job_id)
            if record.status not in _LIVE:
                return False
            execution = record.execution
            others_live = bool(execution.live_records(but=record))
            record.status = JOB_CANCELLED
            record.finished_at = time.time()
            self._settle_locked(record)
            self._stats["cancelled"] += 1
            if not others_live:
                # Last live subscriber gone: take the execution down.
                if execution.status == JOB_QUEUED:
                    execution.status = JOB_CANCELLED
                    self._inflight.pop(execution.key, None)
                    # Lazy removal: _dispatch_locked skips cancelled
                    # deque entries.
                    self._queued_count -= 1
                elif execution.status == JOB_RUNNING:
                    execution.abort_requested = True
                    self._inflight.pop(execution.key, None)
                    kill_handle = execution.handle
        record.event.set()
        if kill_handle is not None:
            # Outside the lock: the Session-level cancel may run its
            # done-callback inline, which re-acquires our lock.
            kill_handle.cancel()
        return True

    def wait_result(self, job_id: str, timeout: Optional[float] = None):
        """Block for a job's :class:`~repro.core.job.JobResult`.

        Raises :class:`TimeoutError`, :class:`JobCancelledError`, or
        :class:`ServiceError` (carrying the job's error string) when
        the job timed out / was cancelled / failed.
        """
        with self._lock:
            record = self._record(job_id)
        if not record.event.wait(timeout):
            raise TimeoutError(
                f"job {job_id} still {record.status} after {timeout}s"
            )
        if record.status == JOB_CANCELLED:
            raise JobCancelledError(f"job {job_id} was cancelled")
        if record.status == JOB_FAILED:
            raise ServiceError(f"job {job_id} failed: {record.error}")
        return record.result

    def server_info(self) -> Dict[str, Any]:
        info = {
            "graph_digest": self.digest,
            "runtime": self.runtime,
            "apps": available_apps(),
            "worker_budget": self._budget_total,
            "max_workers_per_job": self._max_workers_per_job,
            "max_queue_depth": self._max_queue_depth,
            "tenant_weights": dict(self._weights),
        }
        num_vertices = getattr(self.graph, "num_vertices", None)
        if num_vertices is not None:
            info["num_vertices"] = num_vertices
            info["num_edges"] = self.graph.num_edges
        return info

    # ------------------------------------------------------------------
    # Socket front end
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid after :meth:`start`."""
        if self._address is None:
            raise RuntimeError("service is not started")
        return self._address

    def start(self) -> "GraphService":
        """Bind the listener and start serving in background threads."""
        if self._started:
            return self
        host, port = self._bind
        self._listener = listen_socket(host, port)
        self._address = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="service-accept"
        )
        self._started = True
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`shutdown`."""
        self.start()
        try:
            self._shutdown.wait()
        finally:
            self.close()

    def shutdown(self) -> None:
        """Ask the server to stop; ``serve_forever`` returns after this."""
        self._shutdown.set()

    def close(self) -> None:
        """Stop the listener, cancel queued jobs, drain running ones.

        After this returns, :meth:`submit` raises
        :class:`ServiceError` instead of touching the (now closed)
        session.
        """
        with self._lock:
            self._closed = True
        self._shutdown.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._lock:
            queued = [r.job_id for r in self._records.values()
                      if r.status == JOB_QUEUED]
        for job_id in queued:
            self.cancel(job_id)
        with self._conn_lock:
            channels = list(self._channels)
            threads = list(self._conn_threads)
        for chan in channels:
            chan.close()
        for t in threads:
            t.join(timeout=5.0)
        self._session.close(wait=True)

    def __enter__(self) -> "GraphService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _accept_loop(self) -> None:
        with selectors.DefaultSelector() as sel:
            try:
                sel.register(self._listener, selectors.EVENT_READ)
            except (ValueError, OSError):
                return  # close() raced us and already took the listener
            while not self._shutdown.is_set():
                if not sel.select(timeout=0.2):
                    continue
                try:
                    conn, _addr = self._listener.accept()
                except OSError:
                    return
                chan = ControlChannel(conn)
                t = threading.Thread(
                    target=self._serve_connection, args=(chan,),
                    daemon=True, name="service-conn",
                )
                with self._conn_lock:
                    # Reap finished handler threads so a long-lived
                    # service doesn't accumulate one entry per client
                    # that ever connected.
                    self._conn_threads = [x for x in self._conn_threads
                                          if x.is_alive()]
                    self._conn_threads.append(t)
                    self._channels.append(chan)
                t.start()

    def _serve_connection(self, chan: ControlChannel) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    request = chan.recv(timeout=0.25)
                except TimeoutError:
                    continue
                except (ChannelClosed, WireDecodeError, OSError):
                    return
                try:
                    reply = self._handle(request)
                except Exception as exc:
                    # A handler bug must cost one request, not the
                    # connection: report it as a typed internal error
                    # and keep serving.
                    reply = ("error", {
                        "kind": "internal",
                        "message": f"{type(exc).__name__}: {exc}",
                    })
                try:
                    chan.send(reply)
                except (ChannelClosed, OSError):
                    return
                except Exception as exc:
                    # e.g. an unpicklable payload; the frame was never
                    # started (send serializes before writing), so
                    # the channel is still coherent.
                    chan.send(("error", {
                        "kind": "internal",
                        "message": f"reply serialization failed: "
                                   f"{type(exc).__name__}: {exc}",
                    }))
        except (ChannelClosed, WireDecodeError, OSError):
            pass
        finally:
            chan.close()
            with self._conn_lock:
                if chan in self._channels:
                    self._channels.remove(chan)

    def _handle(self, request) -> Tuple[str, Dict[str, Any]]:
        """One request tuple -> one ``("ok" | "error", payload)`` reply."""
        if (not isinstance(request, tuple) or len(request) != 2
                or request[0] not in _OPS
                or not isinstance(request[1], dict)):
            return ("error", {"kind": "bad-request",
                              "message": f"malformed request {request!r}; "
                                         f"expected (op, payload) with op in "
                                         f"{_OPS}"})
        op, payload = request
        try:
            if op == "hello":
                return ("ok", self.server_info())
            if op == "submit":
                spec = JobSpec(
                    app=payload.get("app", ""),
                    params=dict(payload.get("params") or {}),
                    tenant=str(payload.get("tenant") or "default"),
                    num_workers=payload.get("num_workers"),
                )
                return ("ok", {"record": self.submit(spec)})
            if op == "status":
                return ("ok", {"record": self.status(payload["job_id"])})
            if op == "result":
                job_id = payload["job_id"]
                result = self.wait_result(job_id, payload.get("timeout"))
                return ("ok", {"record": self.status(job_id),
                               "result": result})
            if op == "cancel":
                job_id = payload["job_id"]
                cancelled = self.cancel(job_id)
                return ("ok", {"cancelled": cancelled,
                               "record": self.status(job_id)})
            if op == "jobs":
                return ("ok", {"jobs": self.jobs()})
            if op == "stats":
                return ("ok", {"stats": self.stats()})
            if op == "shutdown":
                self.shutdown()
                return ("ok", {})
        except JobRejectedError as exc:
            return ("error", {"kind": "rejected", "message": str(exc)})
        except JobCancelledError as exc:
            return ("error", {"kind": "cancelled", "message": str(exc)})
        except TimeoutError as exc:
            return ("error", {"kind": "timeout", "message": str(exc)})
        except KeyError as exc:
            return ("error", {"kind": "unknown-job",
                              "message": f"no such job: {exc}"})
        except ServiceError as exc:
            return ("error", {"kind": "failed", "message": str(exc)})
        return ("error", {"kind": "bad-request",
                          "message": f"unhandled op {op!r}"})
