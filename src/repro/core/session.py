"""Sessions and job handles: the resident-graph entry-point layer.

A :class:`Session` holds one graph resident and runs any number of jobs
against it.  The graph's store is its CSR arrays
(:meth:`repro.graph.Graph.csr_arrays`), built once with the graph; the
first job pays the load cost and every later job on the in-process
runtimes reuses the partitioned and trimmed local tables
(:class:`~repro.core.worker.LocalTable`), which is what makes a
long-lived job server economical — see :mod:`repro.service` for the
multi-tenant server built on top.

Submission is asynchronous: :meth:`Session.submit` returns a
:class:`JobHandle` immediately with ``.result(timeout=)``, ``.status()``
and ``.cancel()``.  The classic one-shot entry points
:func:`repro.core.job.run_job` and :func:`~repro.core.job.resume_job`
are thin wrappers over a one-shot Session — same signatures, same
behavior, same exceptions — so nothing existing changes spelling.

The :class:`JobHandle` surface is a *protocol*: the local handle here
and the remote handle in :mod:`repro.service.client` implement the same
four methods, so code written against a handle does not care whether
the job runs in-process or on a served resident graph.

Typical use::

    from repro import Session
    from repro.apps import TriangleCountComper

    with Session(graph, config, runtime="process") as session:
        h1 = session.submit(TriangleCountComper)
        h2 = session.submit(MaxCliqueComper)
        print(h1.result().aggregate, h2.result().aggregate)

Recovery is a parameter, not a separate entry point: pass
``resume_from=<shard path>`` to :meth:`Session.submit` (or ``run_job``)
to seed the job from a checkpoint shard.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import Any, Callable, List, Optional, Set

from .config import GThinkerConfig
from .errors import JobCancelledError
from .job import get_runtime
from .runtime import AbortToken, JobRequest
from .worker import LocalTableMemo

__all__ = [
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_CANCELLED",
    "JobHandle",
    "LocalJobHandle",
    "Session",
]

#: Job lifecycle states, shared by local and remote handles.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})


class JobHandle:
    """The handle protocol: what every submitted job hands back.

    Implementations: :class:`LocalJobHandle` (in-process Session) and
    :class:`repro.service.client.RemoteJobHandle` (a job on a served
    resident graph).  Both expose exactly this surface, so local and
    served jobs are interchangeable to calling code.
    """

    job_id: str

    def status(self) -> str:
        """One of ``queued / running / done / failed / cancelled``."""
        raise NotImplementedError

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        raise NotImplementedError

    def result(self, timeout: Optional[float] = None):
        """Block for the :class:`~repro.core.job.JobResult`.

        Re-raises the job's exception if it failed, raises
        :class:`~repro.core.errors.JobCancelledError` if it was
        cancelled, and :class:`TimeoutError` if ``timeout`` elapses
        first (the job keeps running; call ``result`` again).
        """
        raise NotImplementedError

    def cancel(self) -> bool:
        """Try to cancel; True iff the request was accepted.

        A queued job cancels immediately.  A *running* job cancels
        cooperatively on every runtime: the job's abort token is set,
        the control plane observes it at the next sync boundary, and the
        handle reaches the ``cancelled`` terminal state shortly after —
        ``cancel()`` returning True means the cancel was *accepted*, not
        that the job already stopped.  Finished jobs return False.
        """
        raise NotImplementedError


class LocalJobHandle(JobHandle):
    """Handle to a job submitted to an in-process :class:`Session`."""

    def __init__(self, session: "Session", job_id: str) -> None:
        self._session = session
        self.job_id = job_id
        self._event = threading.Event()
        self._state = JOB_QUEUED
        self._result = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["LocalJobHandle"], None]] = []
        #: The job's cooperative-cancellation token (set by ``submit``).
        self._abort: Optional[AbortToken] = None

    # -- protocol ----------------------------------------------------

    def status(self) -> str:
        with self._session._lock:
            return self._state

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} still {self.status()} after {timeout}s"
            )
        if self._state == JOB_CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        if self._error is not None:
            raise self._error
        return self._result

    def cancel(self) -> bool:
        return self._session._cancel(self)

    def add_done_callback(
        self, fn: Callable[["LocalJobHandle"], None]
    ) -> None:
        """Run ``fn(handle)`` when the job reaches a terminal state.

        Called on the runner thread (or immediately, on the calling
        thread, if the job already finished).  The job service uses this
        to release worker quota and admit the next queued job.
        """
        run_now = False
        with self._session._lock:
            if self._event.is_set():
                run_now = True
            else:
                self._callbacks.append(fn)
        if run_now:
            fn(self)

    # -- session-side completion --------------------------------------

    def _finish(self, state: str, result=None,
                error: Optional[BaseException] = None) -> None:
        with self._session._lock:
            self._state = state
            self._result = result
            self._error = error
            callbacks, self._callbacks = self._callbacks, []
        self._event.set()
        for fn in callbacks:
            fn(self)


class _PendingJob:
    """A submitted-but-not-started job: the handle plus its run thunk."""

    __slots__ = ("handle", "thunk")

    def __init__(self, handle: LocalJobHandle, thunk: Callable[[], Any]) -> None:
        self.handle = handle
        self.thunk = thunk


class Session:
    """A resident graph plus an asynchronous job executor over it.

    Parameters
    ----------
    graph:
        A :class:`repro.graph.Graph` or
        :class:`repro.graph.ShardedGraphStore`.  Held for the life of
        the session; in-memory graphs get their CSR arrays warmed once
        when the session's runtime wants them (``process`` / ``cluster``),
        so repeat jobs skip the flatten entirely.  The serial, threaded
        and checked runtimes partition and trim an in-memory graph once
        per ``(num_workers, trimmer class)`` and every later job attaches
        the same immutable tables (apps whose trimmer is not
        :attr:`~repro.core.api.Trimmer.stateless` still build per job);
        :meth:`close` drops them.
    config:
        Default :class:`GThinkerConfig` for submitted jobs
        (per-``submit`` override available).  ``None`` keeps the classic
        ``run_job`` defaulting — including adopting a checkpoint shard's
        worker layout on ``resume_from``.
    runtime:
        Default runtime name; validated eagerly so a typo fails at
        construction, not first submit.
    max_concurrent:
        How many submitted jobs may run at once.  The default ``1``
        preserves one-job-at-a-time semantics (submissions queue FIFO);
        ``None`` means unlimited — the job service supplies its own
        admission scheduler and never wants a second queue below it.
    """

    def __init__(
        self,
        graph,
        config: Optional[GThinkerConfig] = None,
        runtime: str = "serial",
        max_concurrent: Optional[int] = 1,
    ) -> None:
        get_runtime(runtime)  # fail fast on unknown names
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1 or None (unlimited)")
        self.graph = graph
        self.runtime = runtime
        self._config = config  # may be None: submit-time defaulting
        self._max_concurrent = max_concurrent
        self._lock = threading.RLock()
        self._pending: deque = deque()  # of _PendingJob
        self._running = 0
        self._threads: Set[threading.Thread] = set()
        self._closed = False
        self._seq = itertools.count(1)
        self._local_tables = LocalTableMemo()

    # -- submission ----------------------------------------------------

    def submit(
        self,
        app_factory: Callable[[], Any],
        *,
        config: Optional[GThinkerConfig] = None,
        checkpoint_path: Optional[str] = None,
        abort_after_rounds: Optional[int] = None,
        resume_from: Optional[str] = None,
        profiler: Optional[Any] = None,
    ) -> LocalJobHandle:
        """Queue one job; returns its :class:`LocalJobHandle` immediately.

        Parameters mirror :func:`~repro.core.job.run_job` (which is a
        wrapper over exactly this call).  ``resume_from`` names a
        checkpoint shard to seed the job from — recovery as a parameter
        rather than a parallel entry point; validation (runtime name,
        worker-count match) happens here, synchronously, before any
        cluster is built.

        ``profiler`` is a ``cProfile.Profile`` (anything with
        ``enable()``/``disable()``) switched on around the job *on the
        thread that executes it*: cProfile hooks one thread, so a
        profiler enabled by the submitter records only the wait inside
        ``result()``.  Read its stats after ``result()`` returns.  The
        in-process runtimes run on that thread (``threaded`` only its
        master loop); ``process``/``cluster`` children are not reached.
        """
        # Imported here, not at module top: job.py imports this module
        # lazily from run_job, and importing it back at top level would
        # complete the cycle during package init.
        from .job import resolve_resume

        runtime = self.runtime
        config = config if config is not None else self._config
        checkpoint = None
        if resume_from is not None:
            checkpoint, config = resolve_resume(resume_from, config, runtime)
            if checkpoint_path is None and config.checkpoint_every_syncs > 0:
                # Keep checkpointing to the shard we resumed from (the
                # classic resume_job contract).
                checkpoint_path = resume_from
        else:
            config = config or GThinkerConfig()

        # Validate the runtime/feature combination now, on the calling
        # thread, so submit-time errors stay synchronous exactly like
        # the one-shot entry points.
        spec = get_runtime(runtime)
        wanted = []
        if checkpoint_path is not None:
            wanted.append("checkpointing")
        if abort_after_rounds is not None or config.failure_plan is not None:
            wanted.append("failure_injection")
        spec.require(*wanted)

        # Every runtime's control plane honors the abort token.
        request = JobRequest(
            app_factory=app_factory,
            graph=self.graph,
            config=config,
            checkpoint_path=checkpoint_path,
            abort_after_rounds=abort_after_rounds,
            checkpoint=checkpoint,
            abort=AbortToken(),
            local_tables=self._local_tables,
        )

        def thunk():
            if profiler is not None:
                profiler.enable()
            try:
                return spec.factory().execute(request)
            finally:
                if profiler is not None:
                    profiler.disable()

        with self._lock:
            if self._closed:
                raise RuntimeError("cannot submit to a closed Session")
            handle = LocalJobHandle(self, f"job-{next(self._seq)}")
            handle._abort = request.abort
            job = _PendingJob(handle, thunk)
            if self._max_concurrent is None or self._running < self._max_concurrent:
                self._start_locked(job)
            else:
                self._pending.append(job)
        return handle

    # -- execution -----------------------------------------------------

    def _start_locked(self, job: _PendingJob) -> None:
        """Start a runner thread for ``job``; caller holds the lock."""
        self._running += 1
        job.handle._state = JOB_RUNNING
        t = threading.Thread(
            target=self._run_loop, args=(job,), daemon=True,
            name=f"session-{job.handle.job_id}",
        )
        self._threads.add(t)
        t.start()

    def _run_loop(self, job: Optional[_PendingJob]) -> None:
        while job is not None:
            try:
                result = job.thunk()
            except JobCancelledError:
                # The control plane observed the abort token and unwound
                # cleanly — a cancelled job, not a failed one.
                job.handle._finish(JOB_CANCELLED)
            except BaseException as exc:
                job.handle._finish(JOB_FAILED, error=exc)
            else:
                job.handle._finish(JOB_DONE, result=result)
            with self._lock:
                job = None
                while self._pending:
                    nxt = self._pending.popleft()
                    if nxt.handle._state == JOB_QUEUED:
                        nxt.handle._state = JOB_RUNNING
                        job = nxt
                        break
                if job is None:
                    self._running -= 1
                    self._threads.discard(threading.current_thread())

    def _cancel(self, handle: LocalJobHandle) -> bool:
        with self._lock:
            if handle._state == JOB_RUNNING:
                # Cooperative running-job cancel: set the token and
                # return — the control plane unwinds at its next sync
                # boundary and the runner thread settles the handle in
                # the cancelled terminal state.  True means accepted.
                handle._abort.set()
                return True
            if handle._state != JOB_QUEUED:
                return False
            handle._state = JOB_CANCELLED
        # The queued entry stays in _pending; the runner loop skips
        # cancelled entries.  Finish outside the lock (callbacks).
        handle._finish(JOB_CANCELLED)
        return True

    # -- lifecycle ------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs; by default wait for submitted ones.

        ``wait=False`` cancels everything still queued and returns
        without joining running jobs (they finish on their daemon
        threads; their handles stay valid).  Either way the resident
        local tables are dropped: a job still running keeps only the
        ones its workers attached.
        """
        with self._lock:
            if self._closed and not self._threads:
                return
            self._closed = True
            threads = list(self._threads)
            if not wait:
                stranded = [j.handle for j in self._pending
                            if j.handle._state == JOB_QUEUED]
            else:
                stranded = []
        for handle in stranded:
            self._cancel(handle)
        if wait:
            for t in threads:
                t.join()
        self._local_tables.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)

    @property
    def closed(self) -> bool:
        return self._closed
