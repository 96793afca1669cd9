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
(``controlplane.RESTART_BACKOFF_S`` doubling per consecutive restart); a
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

from pathlib import Path
from typing import List, Optional

from ..graph.csr import SharedCSR
from ..net.transport import ProcessTransport
from .checkpoint import JobCheckpoint
from .controlplane import (
    ControlPlaneMaster,
    execute_on_nodes,
    mp_context,
    run_node,
)
from .runtime import JobRequest

__all__ = ["ProcessExecutor"]

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
    """Forks the worker set for :class:`ControlPlaneMaster`.

    Its control endpoints are pipe ends; beyond them it owns only the
    data queues, fresh every incarnation, which the shared rollback
    closes with the rest of the set.
    """

    def __init__(self, csr_meta, spill_root: Path, **master_args) -> None:
        super().__init__(**master_args)
        self.ctx = mp_context()
        self.csr_meta = csr_meta
        self.spill_root = spill_root
        self.data_queues: List = []

    def _boot(self, checkpoint: Optional[JobCheckpoint], global_value) -> None:
        config = self.config
        # Fresh queues every incarnation: batches sent before the loss
        # belong to the rolled-back epoch and must not be delivered.
        self.data_queues = [self.ctx.Queue() for _ in range(config.num_workers)]
        self.procs, self.channels = [], []
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
            self.channels.append(parent_conn)

    def _terminate(self) -> None:
        super()._terminate()
        for q in self.data_queues:
            try:
                q.cancel_join_thread()
                q.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        self.data_queues = []


# ---------------------------------------------------------------------------
# The executor registered as runtime="process"
# ---------------------------------------------------------------------------


class ProcessExecutor:
    """``execute(JobRequest) -> JobResult`` via worker processes."""

    def execute(self, request: JobRequest):
        def build_master(graph, spill_root, cleanup, **master_args):
            # The graph is handed over as shared memory, unlinked when
            # the job ends however it ends.
            csr = SharedCSR.from_graph(graph)
            cleanup.callback(csr.unlink)
            cleanup.callback(csr.close)
            return _ProcessMaster(csr.meta, spill_root, **master_args)

        return execute_on_nodes(request, "process", build_master)
