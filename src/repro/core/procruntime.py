"""The ``runtime="process"`` backend: real CPU parallelism, crash-safe.

The paper's headline claim is *CPU-bound* execution; the threaded
runtime cannot show it because the GIL serializes the mining work.  This
backend runs one OS process per worker:

* the graph lives in :class:`~repro.graph.csr.SharedCSR` shared-memory
  segments — every worker maps it read-only at zero copy and
  materializes only its own hash partition's rows, lazily;
* inter-worker vertex pulls/responses travel over
  :class:`~repro.net.transport.ProcessTransport` — batched per
  destination, drained through ``multiprocessing`` queues (the paper's
  batched sending applied to IPC);
* a control plane of per-worker pipes carries the master protocol of
  :class:`~repro.core.controlplane.ControlPlaneMaster`: periodic syncs
  (aggregator partials up, global value down, status snapshot for
  termination detection), master-coordinated steal commands,
  sync-barrier checkpoints, and the final report (outputs + metrics
  snapshot), with each worker's
  :class:`~repro.core.metrics.MetricsRegistry` merged into the parent
  via ``merge_from`` at join time.

Termination mirrors :class:`~repro.core.master.Master`'s double
snapshot: two consecutive syncs must observe every worker drained
(no tasks in memory / on disk / unspawned, no queued or buffered
outgoing messages), a globally balanced ``sent == received`` message
count, and an unchanged progress counter between the observations.

Fault tolerance (paper §V-B)
----------------------------

This runtime supports the full capability set: **checkpointing**,
**failure injection** and **resume**.

*Checkpoints* are a sync-barrier protocol.  Every
``checkpoint_every_syncs`` master sweeps the parent quiesces all workers
(``"quiesce"`` — engines pause, only the comm service keeps stepping so
in-transit messages drain), polls ``"qstatus"`` until the wire is
*settled* — globally ``sum(sent) == sum(received)`` with zero buffered
outgoing anywhere, which proves no message exists in any queue — then
collects a :class:`~repro.core.checkpoint.WorkerSnapshot` per worker
(``"checkpoint"``: spawn cursor, every in-memory and spilled task with
its pull set, outputs, aggregator partial, transport counters) and
resumes all workers with the freshly folded global aggregate
(``"resume"``).  Snapshots are kept in memory as the rollback point and,
when a ``checkpoint_path`` is given, written atomically as a
:class:`~repro.core.checkpoint.JobCheckpoint` shard (same format as the
serial runtime's — shards resume across runtimes).

*Recovery* is a global rollback.  When any worker dies or times out on
the control plane, the parent terminates the whole worker set, rebuilds
fresh queues and pipes, and respawns every worker from the last barrier
snapshot (or from scratch when none was taken): caches restart cold,
restored tasks re-issue their pull sets, transport counters resume from
the barrier's balanced values so termination stays sound, outputs are
replaced by the snapshot's (work redone after the barrier cannot
duplicate records), and the master aggregator rolls back to the barrier
value so sum-style aggregates count redone work exactly once.
Single-worker respawn would be unsound — in-transit messages addressed
to the dead worker and the survivors' unanswered pulls are unrecoverable
— so rollback is all-or-nothing.  Retries are bounded by
``max_worker_restarts`` with exponential backoff
(``worker_restart_backoff_s`` doubling per consecutive restart); a
worker that *reported* an exception (an app/framework bug that would
recur) raises :class:`~repro.core.errors.WorkerProcessError` with
``recoverable=False`` and the original traceback chained, immediately
— unless what it reported is wire damage
(:class:`~repro.core.errors.WireDecodeError`), which a rollback clears
and the report therefore marks recoverable, exactly as on the cluster
runtime.

*Failure injection* is driven by
:class:`~repro.core.config.FailurePlanConfig`: the selected worker
``os._exit``\\ s — no error report, exactly what a machine loss looks
like — at a deterministic trigger (n-th sync/steal command, n-th round
observing a mid-spawn cursor or a non-empty spill list, or a seeded
coin flip per sync).  Plans arm only in the job's first incarnation
unless ``rearm=True``.
"""

from __future__ import annotations

import multiprocessing.connection as mp_connection
import shutil
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from ..graph.csr import SharedCSR
from ..net.transport import ProcessTransport
from .checkpoint import JobCheckpoint
from .config import GThinkerConfig
from .controlplane import (
    ControlPlaneMaster,
    mp_context,
    prepare_job,
    run_node,
)
from .errors import WorkerProcessError
from .runtime import JobRequest

__all__ = ["ProcessExecutor"]

#: How long `_send` drains a broken pipe looking for the error report.
_ERROR_DRAIN_S = 1.0


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


def _worker_main(
    worker_id,
    config,
    app_factory,
    csr_meta,
    data_queues,
    conn,
    spill_root,
    snapshot=None,
    global_value=None,
    incarnation=0,
):
    """Entry point of one worker process.

    :func:`~repro.core.controlplane.run_node` over this backend's two
    real differences: the data plane is a
    :class:`~repro.net.transport.ProcessTransport` on the inherited
    queues, and the graph is mapped from shared memory.  The spill
    directory lives under a parent-owned root, so a ``terminate()``
    during recovery cannot leak it.
    """
    attached: List[SharedCSR] = []

    def make_transport(metrics):
        return ProcessTransport(
            worker_id,
            data_queues,
            metrics=metrics,
            max_batch_messages=config.ipc_batch_max_messages,
        )

    def load_graph(worker):
        attached.append(SharedCSR.attach(csr_meta))
        worker.load_shared(attached[0])

    try:
        run_node(
            worker_id, config, app_factory, conn, make_transport, load_graph,
            spill_root, snapshot, global_value, incarnation,
        )
    finally:
        for csr in attached:
            csr.close()


# ---------------------------------------------------------------------------
# Parent-side master
# ---------------------------------------------------------------------------


class _ProcessMaster(ControlPlaneMaster):
    """Pipe/queue plumbing for :class:`ControlPlaneMaster`.

    Owns the worker set (queues, pipes, processes) so the shared
    rollback can tear the whole set down and respawn it from the last
    barrier snapshot when a worker is lost.
    """

    def __init__(
        self,
        config: GThinkerConfig,
        app_factory,
        csr_meta,
        spill_root: Path,
        join_timeout_s: float,
        checkpoint_path: Optional[str] = None,
        abort_after_rounds: Optional[int] = None,
    ) -> None:
        super().__init__(
            config=config,
            app_factory=app_factory,
            join_timeout_s=join_timeout_s,
            checkpoint_path=checkpoint_path,
            abort_after_rounds=abort_after_rounds,
        )
        self.ctx = mp_context(config)
        self.csr_meta = csr_meta
        self.spill_root = spill_root
        self.conns: List = []
        self.data_queues: List = []

    # -- worker-set lifecycle ---------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.conns)

    def _boot(self, checkpoint: Optional[JobCheckpoint], global_value) -> None:
        config = self.config
        # Fresh queues every incarnation: batches sent before the loss
        # belong to the rolled-back epoch and must not be delivered.
        self.data_queues = [self.ctx.Queue() for _ in range(config.num_workers)]
        self.procs, self.conns = [], []
        for wid in range(config.num_workers):
            parent_conn, child_conn = self.ctx.Pipe()
            snap = (checkpoint.worker_snapshots[wid]
                    if checkpoint is not None else None)
            proc = self.ctx.Process(
                target=_worker_main,
                args=(wid, config, self.app_factory, self.csr_meta,
                      self.data_queues, child_conn, str(self.spill_root),
                      snap, global_value, self._incarnation),
                name=f"gthinker-worker-{wid}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self.procs.append(proc)
            self.conns.append(parent_conn)

    def _terminate(self) -> None:
        for conn in self.conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for q in self.data_queues:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self.procs, self.conns, self.data_queues = [], [], []

    # -- plumbing ---------------------------------------------------------

    def _died(self, worker_id: int) -> WorkerProcessError:
        return WorkerProcessError(
            worker_id,
            f"died with exit code {self.procs[worker_id].exitcode} "
            f"without reporting an error",
            recoverable=True,
        )

    def _recv(self, worker_id: int, timeout: Optional[float] = None):
        if timeout is None:
            timeout = self.config.control_reply_timeout_s
        conn = self.conns[worker_id]
        # One deadline for the whole call: a wake ahead of the reply
        # does not restart the clock.
        deadline = time.monotonic() + timeout
        poll_s = 0.002
        while True:
            while not conn.poll(poll_s):
                # Exponential backoff on the control plane: spin tightly
                # for prompt replies, back off towards 100ms for slow ones.
                poll_s = min(poll_s * 2, 0.1)
                if not self.procs[worker_id].is_alive():
                    # Exit may have raced a final message into the pipe.
                    if conn.poll(0.25):
                        break
                    raise self._died(worker_id)
                if time.monotonic() > deadline:
                    raise WorkerProcessError(
                        worker_id,
                        f"no control-plane reply within {timeout}s",
                        recoverable=True,
                    )
            try:
                msg = conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerProcessError(
                    worker_id, "control pipe closed while receiving",
                    recoverable=True,
                ) from exc
            self._raise_from_report(msg)
            if not self._note_oob(msg):
                return msg
            # A wake racing a request-reply exchange; the reply we are
            # waiting for is still behind it.

    def _send(self, worker_id: int, cmd) -> None:
        try:
            self.conns[worker_id].send(cmd)
        except (BrokenPipeError, OSError) as exc:
            # The worker died.  Drain its pipe looking for the error
            # report — a wake or a reply sent before the death must not
            # shadow the real traceback — and chain the pipe error.
            conn = self.conns[worker_id]
            deadline = time.monotonic() + _ERROR_DRAIN_S
            while time.monotonic() < deadline:
                try:
                    if not conn.poll(0.05):
                        continue
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                try:
                    self._raise_from_report(msg)
                except WorkerProcessError as report:
                    raise report from exc
                # else: a stale pre-death reply; keep draining.
            raise WorkerProcessError(
                worker_id, "control pipe closed unexpectedly",
                recoverable=True,
            ) from exc

    def _drain_events(self, timeout: float) -> None:
        """Multiplexed control-event drain over every worker's pipe.

        Blocks up to ``timeout`` for the *first* message, then consumes
        everything already buffered.  Wakes route through
        ``_note_oob``; anything else is
        an error report or a pipe closure/dead process (raised as a
        recoverable loss).  Real protocol replies cannot appear: the
        control plane is strictly request-reply outside this window.
        """
        try:
            ready = mp_connection.wait(self.conns, timeout=timeout)
        except OSError:  # a pipe died mid-wait; the next op reports it
            self._pending_wake = True
            return
        for conn in ready:
            wid = self.conns.index(conn)
            if not self.procs[wid].is_alive() and not conn.poll(0):
                raise self._died(wid)
            while conn.poll(0):
                try:
                    msg = conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerProcessError(
                        wid, "control pipe closed while idle",
                        recoverable=True,
                    ) from exc
                self._raise_from_report(msg)
                if not self._note_oob(msg):
                    raise WorkerProcessError(
                        wid,
                        "unexpected out-of-band control message "
                        f"{type(msg).__name__}",
                    )


# ---------------------------------------------------------------------------
# The executor registered as runtime="process"
# ---------------------------------------------------------------------------


class ProcessExecutor:
    """``execute(JobRequest) -> JobResult`` via worker processes."""

    def __init__(self, join_timeout_s: float = 600.0) -> None:
        self.join_timeout_s = join_timeout_s

    def execute(self, request: JobRequest):
        config = request.config
        graph = prepare_job(request, "process")
        started = time.perf_counter()
        csr = SharedCSR.from_graph(graph)
        # The parent owns the spill root: worker processes can be
        # terminate()d mid-recovery, so they must not own tempdirs.
        owns_spill = config.spill_dir is None
        spill_root = Path(config.spill_dir) if config.spill_dir else Path(
            tempfile.mkdtemp(prefix="gthinker-spill-proc-")
        )
        master = _ProcessMaster(
            config=config,
            app_factory=request.app_factory,
            csr_meta=csr.meta,
            spill_root=spill_root,
            join_timeout_s=self.join_timeout_s,
            checkpoint_path=request.checkpoint_path,
            abort_after_rounds=request.abort_after_rounds,
        )
        # Cooperative cancel: the sweep loop raises JobCancelledError,
        # which unwinds through run_job's shutdown() — every worker
        # process is terminated, so quota is really free.
        master.abort = request.abort
        try:
            return master.run_job(request.checkpoint, started)
        finally:
            if owns_spill:
                shutil.rmtree(spill_root, ignore_errors=True)
            csr.close()
            csr.unlink()
