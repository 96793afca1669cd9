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
* a control plane of per-worker pipes carries the protocol of the one
  master every runtime shares,
  :class:`~repro.core.controlplane.ControlPlaneMaster`: sync sweeps,
  steal commands, double-snapshot termination, sync-barrier
  checkpoints and the final report (outputs + metrics snapshot, merged
  into the parent's :class:`~repro.core.metrics.MetricsRegistry`).

This runtime has the full capability set: **checkpointing**, **failure
injection** and **resume**.  Recovery is the master's global rollback:
when any worker dies or times out on the control plane, the parent
terminates the whole worker set and respawns it from the last barrier
snapshot, with fresh queues and pipes, so a batch sent before the loss
belongs to the rolled-back epoch and is never delivered.  Single-worker
respawn would be unsound — in-transit messages addressed to the dead
worker and the survivors' unanswered pulls are unrecoverable.

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
