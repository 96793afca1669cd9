"""Exception hierarchy for the G-thinker reproduction."""

from __future__ import annotations

__all__ = [
    "GThinkerError",
    "JobAbortedError",
    "CheckpointError",
    "TaskError",
    "CacheProtocolError",
    "ProtocolViolation",
    "JobCancelledError",
    "JobRejectedError",
    "ServiceError",
    "UnknownRuntimeError",
    "UnsupportedRuntimeFeature",
    "WireDecodeError",
    "WorkerProcessError",
]


class GThinkerError(Exception):
    """Base class for all framework errors."""


class WireDecodeError(GThinkerError, ValueError):
    """A wire payload could not be decoded.

    Raised by :mod:`repro.net.wire`, the task codec and the TCP framing
    layer for payloads without their magic, truncated frames, frame
    lengths pointing past the end of the buffer, negative counts and
    unknown frame kinds.  A ``ValueError`` subclass so callers
    that guarded the old raw errors keep working, but typed so transports
    receiving bytes from a network can distinguish "corrupt payload"
    (drop/rollback) from a framework bug.
    """


class UnknownRuntimeError(GThinkerError, ValueError):
    """No runtime has that name (see ``available_runtimes``)."""


class UnsupportedRuntimeFeature(GThinkerError, ValueError):
    """A requested feature is not in the selected runtime's capabilities.

    Both :func:`~repro.core.job.run_job` and
    :func:`~repro.core.job.resume_job` raise exactly this type for every
    unsupported runtime/feature combination (checkpointing, failure
    injection, resume, ...), so callers have one error to catch.
    """


class WorkerProcessError(GThinkerError):
    """A worker process of the ``"process"`` runtime died or misbehaved.

    Carries the worker id and, when the child could still report it, the
    formatted traceback of the original exception.  ``recoverable``
    classifies the loss for the fault-tolerance layer: a process that
    vanished without an error report (killed, OOM, injected failure)
    is recoverable — the parent may respawn the worker set from the
    last sync-barrier checkpoint — while a worker that reported an
    exception from user/framework code is not (the same code would
    fail again after a rollback).
    """

    def __init__(
        self, worker_id: int, message: str, recoverable: bool = False
    ) -> None:
        super().__init__(f"worker process {worker_id}: {message}")
        self.worker_id = worker_id
        self.recoverable = recoverable


class JobAbortedError(GThinkerError):
    """A job was aborted before completion (e.g. simulated failure)."""


class CheckpointError(GThinkerError):
    """A checkpoint could not be written or restored."""


class ServiceError(GThinkerError):
    """Base class for job-service (``repro.service``) errors."""


class JobRejectedError(ServiceError):
    """The service refused to admit a job.

    Raised for a full admission queue (bounded depth — backpressure is
    explicit, never silent), an unknown app name, or malformed app
    parameters.  The message says which.
    """


class JobCancelledError(ServiceError):
    """The job was cancelled — while queued or mid-run.

    Raised by ``result()`` on a cancelled handle, and *inside* a running
    job by the control plane when its abort token is observed set at a
    sync boundary (see :class:`~repro.core.runtime.AbortToken`); the
    session layer translates that unwind into the ``cancelled`` terminal
    state rather than ``failed``.
    """


class TaskError(GThinkerError):
    """A user UDF raised inside a task; wraps the original exception."""

    def __init__(self, task_id: int, message: str) -> None:
        super().__init__(f"task {task_id:#x}: {message}")
        self.task_id = task_id


class CacheProtocolError(GThinkerError):
    """The vertex-cache OP1-OP4 protocol was violated (internal bug guard)."""


class ProtocolViolation(GThinkerError):
    """The protocol checker (``repro.check``) detected a violation.

    Raised only when checking is enabled
    (``GThinkerConfig.check_protocols`` / ``REPRO_CHECK=1``); carries the
    subsystem the violation was observed in plus the offending task id
    and vertex where known.
    """

    def __init__(
        self,
        subsystem: str,
        message: str,
        task_id: int = -1,
        vertex: int = -1,
    ) -> None:
        detail = f"[{subsystem}] {message}"
        if task_id != -1:
            detail += f" (task {task_id:#x})"
        if vertex != -1:
            detail += f" (vertex {vertex})"
        super().__init__(detail)
        self.subsystem = subsystem
        self.task_id = task_id
        self.vertex = vertex
