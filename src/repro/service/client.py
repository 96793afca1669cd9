"""The service client: Session-shaped access to a served resident graph.

:class:`ServiceClient` speaks the :class:`~repro.net.tcp.ControlChannel`
request/reply protocol to a :class:`~repro.service.server.GraphService`.
Its :meth:`~ServiceClient.submit` returns a :class:`RemoteJobHandle`
implementing the same :class:`~repro.core.session.JobHandle` protocol as
the in-process :class:`~repro.core.session.LocalJobHandle` — code
written against a handle does not care whether the graph lives in its
own process or behind a socket.

Server-side errors come back as ``("error", {"kind", "message"})``
frames and are re-raised here as the matching exception types
(:class:`JobRejectedError`, :class:`JobCancelledError`,
:class:`TimeoutError`, :class:`ServiceError`), so remote admission
behaves exactly like local admission to calling code.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.config import parse_host_port
from ..core.errors import JobCancelledError, JobRejectedError, ServiceError
from ..core.session import JOB_CANCELLED, JOB_FAILED, TERMINAL_STATES, JobHandle
from ..net.tcp import ChannelClosed, ControlChannel, connect_with_retry

__all__ = ["RemoteJobHandle", "ServiceClient"]

#: How server error kinds map back onto client-side exception types.
#: Unlisted kinds (including ``internal``, the server's "a handler bug
#: cost this one request, the connection survived" reply) fall back to
#: plain :class:`ServiceError`.
_ERROR_KINDS = {
    "rejected": JobRejectedError,
    "cancelled": JobCancelledError,
    "timeout": TimeoutError,
}


class RemoteJobHandle(JobHandle):
    """Handle to a job running on a served resident graph.

    Same protocol as :class:`~repro.core.session.LocalJobHandle`:
    ``status() / done() / result(timeout=) / cancel()``.  ``result``
    blocks *server-side* (one request, one reply), so polling loops are
    unnecessary; on timeout the job keeps running and ``result`` can be
    called again.
    """

    def __init__(self, client: "ServiceClient", record: Dict[str, Any]) -> None:
        self._client = client
        self._record = record
        self.job_id = record["job_id"]

    @property
    def record(self) -> Dict[str, Any]:
        """The latest job record seen from the server (no extra RPC)."""
        return dict(self._record)

    def _refresh(self) -> Dict[str, Any]:
        self._record = self._client.status(self.job_id)
        return self._record

    def status(self) -> str:
        if self._record["status"] in TERMINAL_STATES:
            return self._record["status"]
        return self._refresh()["status"]

    def done(self) -> bool:
        return self.status() in TERMINAL_STATES

    def result(self, timeout: Optional[float] = None):
        if self._record["status"] == JOB_CANCELLED:
            raise JobCancelledError(f"job {self.job_id} was cancelled")
        record, result = self._client.result(self.job_id, timeout=timeout)
        self._record = record
        return result

    def cancel(self) -> bool:
        """Ask the server to cancel this job.

        True means the cancel was *accepted*: a queued job is already
        ``cancelled`` in the returned record; a running one aborts at
        its next sync boundary and settles asynchronously.  False means
        the job already finished.
        """
        cancelled, record = self._client.cancel(self.job_id)
        self._record = record
        return cancelled


class ServiceClient:
    """One connection to a :class:`~repro.service.server.GraphService`.

    Thread-safe: a lock serializes request/reply pairs, so one client
    may be shared by concurrent submitter threads (each ``result`` call
    holds the connection while it blocks — use one client per thread
    when jobs are long and overlap matters).

    Usable as a context manager::

        with ServiceClient("127.0.0.1:7777") as client:
            handle = client.submit("tc")
            print(handle.result().aggregate)
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        connect_timeout_s: float = 10.0,
        request_timeout_s: float = 300.0,
    ) -> None:
        if isinstance(address, str):
            address = parse_host_port(address)
        self.address = address
        self._request_timeout_s = request_timeout_s
        sock = connect_with_retry(
            address[0], address[1], connect_timeout_s, what="job service"
        )
        self._chan = ControlChannel(sock)
        self._lock = threading.Lock()

    # -- plumbing -------------------------------------------------------

    def _request(self, op: str, payload: Dict[str, Any],
                 timeout: Optional[float] = None) -> Dict[str, Any]:
        """One request/reply round trip; server errors re-raise typed."""
        wait = self._request_timeout_s if timeout is None else timeout + 5.0
        with self._lock:
            try:
                self._chan.send((op, payload))
                status, body = self._chan.recv(timeout=wait)
            except ChannelClosed as exc:
                raise ServiceError(
                    f"job service at {self.address[0]}:{self.address[1]} "
                    f"closed the connection: {exc}"
                ) from exc
        if status == "ok":
            return body
        kind = body.get("kind", "error")
        message = body.get("message", repr(body))
        raise _ERROR_KINDS.get(kind, ServiceError)(message)

    def close(self) -> None:
        self._chan.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the protocol ---------------------------------------------------

    def server_info(self) -> Dict[str, Any]:
        """Graph digest, available apps, and the server's admission limits."""
        return self._request("hello", {})

    def submit(
        self,
        app: str,
        params: Optional[Dict[str, Any]] = None,
        tenant: str = "default",
        num_workers: Optional[int] = None,
    ) -> RemoteJobHandle:
        """Submit a named app; returns a :class:`RemoteJobHandle`.

        Raises :class:`JobRejectedError` when the app/params are invalid
        or the server's admission queue is full.  A result-cache hit
        returns an already-``done`` handle (``record["cached"]`` true).
        """
        body = self._request("submit", {
            "app": app,
            "params": dict(params or {}),
            "tenant": tenant,
            "num_workers": num_workers,
        })
        return RemoteJobHandle(self, body["record"])

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("status", {"job_id": job_id})["record"]

    def result(self, job_id: str,
               timeout: Optional[float] = None) -> Tuple[Dict[str, Any], Any]:
        """Block for a job's answer; returns ``(record, JobResult)``."""
        body = self._request(
            "result", {"job_id": job_id, "timeout": timeout}, timeout=timeout
        )
        record = body["record"]
        if record["status"] == JOB_FAILED:  # defensive; server raises first
            raise ServiceError(f"job {job_id} failed: {record['error']}")
        return record, body["result"]

    def cancel(self, job_id: str) -> Tuple[bool, Dict[str, Any]]:
        body = self._request("cancel", {"job_id": job_id})
        return body["cancelled"], body["record"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("jobs", {})["jobs"]

    def stats(self) -> Dict[str, Any]:
        return self._request("stats", {})["stats"]

    def shutdown(self) -> None:
        """Ask the server to stop serving (running jobs drain first)."""
        self._request("shutdown", {})
