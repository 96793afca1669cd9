"""Execution runtimes and the types of the runtime table.

Low-level cluster steppers (both drive the same components — comm
services, comper engines, GC — only the interleaving differs; both call
:meth:`~repro.core.master.Master.sync`, one round of the one master
every runtime shares, at points of their choosing):

* :class:`SerialRuntime` — gives every worker one burst round
  (:meth:`Worker.step_round`, the node round of the process and cluster
  backends) in turn, in one thread.  Deterministic; the default for
  tests.  Its checkpoints are the process and cluster backends'
  sync-barrier protocol (see :mod:`repro.core.controlplane`), run over
  loopback channels, so its shards resume on any runtime.
* :class:`ThreadedRuntime` — one OS thread per comper plus one comm/GC
  thread per worker, mirroring the paper's thread layout.  Exercises the
  real lock protocols (bucketed cache, concurrent containers).  The GIL
  serializes Python bytecode, so this runtime demonstrates correctness
  under concurrency, not wall-clock speedup — the process backend
  (``runtime="process"``) and the discrete-event runtime in
  :mod:`repro.sim` cover performance (see DESIGN.md).

A :class:`Cluster` is the bag of components a runtime drives.

Runtime table
-------------

``run_job``/``resume_job`` resolve their ``runtime=`` string through the
fixed :data:`repro.core.job.RUNTIMES` table rather than an if/elif
ladder.  Each entry is a :class:`RuntimeSpec`: a zero-argument
``factory`` producing an executor object with
``execute(request: JobRequest) -> JobResult``, plus a
:class:`RuntimeCapabilities` declaration.  Unsupported runtime/feature
combinations fail uniformly with
:class:`~repro.core.errors.UnsupportedRuntimeFeature`; unknown names with
:class:`~repro.core.errors.UnknownRuntimeError`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from .config import IDLE_BACKOFF_MAX_S, IDLE_SLEEP_S, GThinkerConfig
from .containers import SpillRoot
from .errors import (
    GThinkerError,
    JobAbortedError,
    JobCancelledError,
    UnsupportedRuntimeFeature,
)
from .metrics import MetricsRegistry
from .worker import ENGINE_BURST_STEPS, LocalTableMemo, Worker

if TYPE_CHECKING:  # the master imports the control plane, which imports us
    from .master import Master

__all__ = [
    "AbortToken",
    "Cluster",
    "SerialRuntime",
    "ThreadedRuntime",
    "JobRequest",
    "RuntimeCapabilities",
    "RuntimeSpec",
]


@dataclass
class Cluster:
    workers: List[Worker]
    master: "Master"
    transport: object
    metrics: MetricsRegistry
    config: GThinkerConfig
    #: Where the workers spill task batches, made on the first spill.
    #: When the job made it (no ``config.spill_dir``) teardown removes
    #: the whole tree.
    spill_root: Optional[SpillRoot] = None


class AbortToken:
    """Cooperative cancellation signal for one running job.

    The session sets it from :meth:`LocalJobHandle.cancel`; the control
    plane polls it at sync-barrier/steal-sweep boundaries (the same
    cadence the master already owns) and unwinds the job with
    :class:`~repro.core.errors.JobCancelledError`.  Cancellation is
    therefore *cooperative*: a job stops within one sync round, never
    mid-iteration, so worker teardown always runs from a consistent
    scheduler state.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def set(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    def raise_if_set(self) -> None:
        """Unwind with :class:`JobCancelledError` if cancellation was requested."""
        if self._event.is_set():
            raise JobCancelledError("job cancelled at a sync boundary")


# ---------------------------------------------------------------------------
# Runtime table entries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeCapabilities:
    """What a runtime supports; requests outside this set are rejected.

    Every boolean field doubles as a *feature name* accepted by
    :meth:`RuntimeSpec.require`.
    """

    checkpointing: bool = False
    failure_injection: bool = False

    def feature_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(self))


@dataclass
class JobRequest:
    """Everything an executor needs to run one job to completion."""

    app_factory: Callable[[], Any]
    graph: Any
    config: GThinkerConfig
    checkpoint_path: Optional[str] = None
    abort_after_rounds: Optional[int] = None
    #: A loaded :class:`~repro.core.checkpoint.JobCheckpoint` when
    #: resuming, else None.
    checkpoint: Any = None
    #: Cooperative-cancellation token (an :class:`AbortToken`), or None
    #: when the caller never cancels.
    abort: Any = None
    #: The submitting Session's resident local tables (None outside a
    #: Session).  The in-process executors attach them; ``process`` and
    #: ``cluster`` children cannot share the parent's objects.
    local_tables: Optional[LocalTableMemo] = None


@dataclass(frozen=True)
class RuntimeSpec:
    """One runtime table entry: name, executor factory, capabilities."""

    name: str
    factory: Callable[[], Any]
    capabilities: RuntimeCapabilities = field(default_factory=RuntimeCapabilities)

    def require(self, *features: str) -> None:
        """Raise unless every named feature is in the capabilities."""
        unknown = [f for f in features if not hasattr(self.capabilities, f)]
        if unknown:
            raise UnsupportedRuntimeFeature(
                f"unknown runtime feature(s) {unknown!r}; known features: "
                f"{list(self.capabilities.feature_names())}"
            )
        missing = [f for f in features if not getattr(self.capabilities, f)]
        if missing:
            raise UnsupportedRuntimeFeature(
                f"runtime {self.name!r} does not support: {', '.join(missing)} "
                f"(capabilities: {self.capabilities}); pick a runtime whose "
                f"capabilities include the feature"
            )


class SerialRuntime:
    """Deterministic round-robin scheduler, one burst round per worker.

    Every pass gives each worker one :meth:`Worker.step_round` — the
    same comm step + engine burst a process or cluster node runs — so
    parked tasks' pulls travel in real batches.  ``sync_every_rounds``,
    ``abort_after_rounds`` and ``max_rounds`` count *engine* rounds: a
    burst is clipped at the next sync or abort boundary, which keeps the
    ``Master.sync`` cadence (aggregator, steals, checkpoints) what it
    was when a pass was a single engine round.
    """

    def __init__(self, max_rounds: int = 50_000_000) -> None:
        self.max_rounds = max_rounds

    def run(self, cluster: Cluster, abort_after_rounds: Optional[int] = None) -> None:
        """Drive the cluster to completion.

        ``abort_after_rounds`` injects a failure after that many rounds
        (fault-tolerance tests): the job stops with
        :class:`JobAbortedError` leaving the last checkpoint on disk.
        """
        sync_every = cluster.config.sync_every_rounds
        rounds = 0
        while True:
            budget = min(ENGINE_BURST_STEPS, sync_every - rounds % sync_every)
            if abort_after_rounds is not None:
                budget = min(budget, abort_after_rounds - rounds)
            worked = False
            ran = 0
            for w in cluster.workers:
                w_worked, w_ran = w.step_round(budget)
                worked = worked or w_worked
                ran = max(ran, w_ran)
            rounds += ran
            if abort_after_rounds is not None and rounds >= abort_after_rounds:
                raise JobAbortedError(f"injected failure after {rounds} rounds")
            if rounds % sync_every == 0 or not worked:
                if cluster.master.sync():
                    return
            if rounds > self.max_rounds:
                raise GThinkerError(
                    f"job did not terminate within {self.max_rounds} rounds "
                    f"(likely a livelock bug)"
                )


class ThreadedRuntime:
    """One thread per comper + one service thread per worker.

    Idle loops sleep adaptively: starting at ``IDLE_SLEEP_S`` and
    doubling up to ``IDLE_BACKOFF_MAX_S`` while nothing happens,
    resetting on work.  The master sweep is driven the same way — it
    backs off towards ``aggregator_sync_period_s`` between sweeps, but a
    service thread observing its worker fully drained sets a wake event
    so the termination-detecting sweeps run immediately instead of a
    sync period later.
    """

    def __init__(self, join_timeout_s: float = 120.0) -> None:
        self.join_timeout_s = join_timeout_s

    def run(self, cluster: Cluster) -> None:
        cfg = cluster.config
        stop = threading.Event()
        wake = threading.Event()
        errors: List[BaseException] = []
        errors_lock = threading.Lock()

        def record_error(exc: BaseException) -> None:
            with errors_lock:
                errors.append(exc)
            stop.set()
            wake.set()

        def comper_loop(engine) -> None:
            try:
                backoff = IDLE_SLEEP_S
                while not stop.is_set():
                    if engine.step():
                        backoff = IDLE_SLEEP_S
                    else:
                        engine.worker.cache.flush_local_counter()
                        time.sleep(backoff)
                        backoff = min(backoff * 2, IDLE_BACKOFF_MAX_S)
            except BaseException as exc:  # propagate to the main thread
                record_error(exc)

        def service_loop(worker) -> None:
            try:
                backoff = IDLE_SLEEP_S
                was_drained = False
                while not stop.is_set():
                    worked = worker.comm.step()
                    worked = worker.gc_step() or worked
                    if worked:
                        backoff = IDLE_SLEEP_S
                        was_drained = False
                        continue
                    drained = worker.drained()
                    if drained and not was_drained:
                        # Locally out of work: nudge the master so the
                        # two termination sweeps run now, not after the
                        # sync period elapses.
                        wake.set()
                    was_drained = drained
                    time.sleep(backoff)
                    backoff = min(backoff * 2, IDLE_BACKOFF_MAX_S)
            except BaseException as exc:
                record_error(exc)

        threads: List[threading.Thread] = []
        for w in cluster.workers:
            threads.append(
                threading.Thread(target=service_loop, args=(w,), daemon=True,
                                 name=f"svc-{w.worker_id}")
            )
            for engine in w.engines:
                threads.append(
                    threading.Thread(target=comper_loop, args=(engine,), daemon=True,
                                     name=f"comper-{engine.global_id}")
                )
        for t in threads:
            t.start()

        deadline = time.monotonic() + self.join_timeout_s
        sweep_wait = IDLE_SLEEP_S
        try:
            while not stop.is_set():
                if cluster.master.sync():
                    break
                if time.monotonic() > deadline:
                    raise GThinkerError(
                        f"threaded job exceeded {self.join_timeout_s}s"
                    )
                if wake.wait(timeout=sweep_wait):
                    wake.clear()
                    sweep_wait = IDLE_SLEEP_S
                else:
                    sweep_wait = min(sweep_wait * 2,
                                     cfg.aggregator_sync_period_s)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5.0)
        if errors:
            raise errors[0]
