"""The master of the in-process runtimes: :class:`ControlPlaneMaster`
over loopback channels.

The paper has one master, and so does every runtime here: ``process``
and ``cluster`` drive :class:`~repro.core.controlplane.ControlPlaneMaster`
over pipes or TCP; ``serial``, ``threaded``, ``checked`` and the
simulator wrap each worker in the :class:`NodeSession` a node process
runs and reach it through a :class:`LoopbackChannel`.  They keep their
own interleaving of the workers' components and call
:meth:`Master.sync`, one :meth:`ControlPlaneMaster._round`, when they
choose — so every runtime shares one status builder, termination
proof, steal move, sync-barrier checkpoint and restore path.
"""

from __future__ import annotations

from collections import deque
from typing import List

from .controlplane import (
    ControlPlaneMaster,
    FailureInjector,
    NodeFinal,
    NodeSession,
    seed_node,
)
from .worker import Worker

__all__ = ["LoopbackChannel", "Master"]


class LoopbackChannel:
    """A control endpoint whose node is a :class:`NodeSession` in this
    process: ``send`` runs :meth:`NodeSession.handle` at once and queues
    the reply for ``recv``.  A quiesced node first takes its comm step,
    as :func:`~repro.core.controlplane.run_node` does between commands,
    so the checkpoint barrier settles with nothing else stepping it."""

    __slots__ = ("session", "_replies")

    def __init__(self, session: NodeSession) -> None:
        self.session = session
        self._replies = deque()

    def send(self, cmd) -> None:
        if self.session.quiesced:
            self.session.step()
        self._replies.append(self.session.handle(cmd))

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self._replies)

    def recv(self):
        return self._replies.popleft()

    def close(self) -> None:
        self._replies.clear()


class Master(ControlPlaneMaster):
    """:class:`ControlPlaneMaster` over the workers of one process.

    Booted cold by the constructor; an executor resuming from a shard
    calls :meth:`start` again with it.  Nothing in one process can be
    lost, so a barrier is taken only to be written to
    :attr:`checkpoint_path`, and its settle loop never waits: the nodes
    answer in the master's thread.
    """

    SETTLE_WAIT_S = 0.0

    def __init__(self, workers: List[Worker], transport, config,
                 metrics) -> None:
        self.workers = workers
        self.transport = transport
        super().__init__(config, app_factory=None,
                         join_timeout_s=float("inf"))
        self.metrics = metrics
        self.done = False
        self.start()

    def _make_aggregator(self):
        # Worker 0 already built the app's aggregator.
        return self.workers[0].aggregator._agg

    def _boot(self, checkpoint, global_value) -> None:
        idle = FailureInjector(None, 0, 0)
        self.channels = []
        for w in self.workers:
            port = self.transport.port(w.worker_id)
            seed_node(
                w, port,
                checkpoint.worker_snapshots[w.worker_id]
                if checkpoint is not None else None,
                global_value,
            )
            self.channels.append(
                LoopbackChannel(NodeSession(w, port, idle, self.metrics))
            )

    def _checkpoint_due(self) -> bool:
        return (self.checkpoint_path is not None
                and super()._checkpoint_due())

    def _finalize(self) -> List[NodeFinal]:
        """Fold each node's last partial; its outputs are already here."""
        for ch in self.channels:
            self.global_aggregator.fold(ch.session.close())
        return []

    def sync(self, now: float = 0.0) -> bool:
        """One master round; returns True when the job has completed.

        ``now`` is the caller's clock, stamped on the batches this
        round's steals send (the simulator's virtual time).  Raises
        :class:`~repro.core.errors.JobCancelledError` when the job's
        abort token was set since the last sync.
        """
        if self.done:
            return True
        self.transport.now = now
        if self._round():
            # The paper's closing rule: one more aggregation pass so data
            # from every task is folded before the job result is read.
            self._finalize()
            self.done = True
        return self.done
