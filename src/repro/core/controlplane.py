"""The master⇄worker control-plane protocol, shared across backends.

Both ``runtime="process"`` (pipes + ``multiprocessing`` queues, one
machine) and ``runtime="cluster"`` (TCP control channels + socket data
plane, many machines) drive the *same* protocol:

* periodic **sync sweeps** — global aggregate down, per-node status
  (task/queue occupancy, transport counters, progress, workload
  estimate, aggregator partial) up;
* Safra-style **double-snapshot termination**: two consecutive sweeps
  must observe every node drained, globally ``sum(sent) ==
  sum(received)``, and an unchanged progress counter;
* master-coordinated, workload-**proportional stealing** with ping-pong
  hysteresis;
* **sync-barrier checkpoints**: quiesce → drain the wire to a provably
  settled state → snapshot every node → resume with the folded global;
* bounded-restart **global rollback** recovery in :meth:`run`.

The master's one run loop is the sweep: a round-robin request-reply
``sync`` probe over every node; between sweeps the master idles,
backing off from ``idle_sleep_s`` up to ``aggregator_sync_period_s``.
A node that goes busy→drained sends one unsolicited ``("wake", id)``
so the master runs its next sweep at once instead of waiting out the
backoff.

This module holds that protocol once: the master side in
:class:`ControlPlaneMaster`, parameterised over a tiny plumbing surface
the backends implement (``num_nodes``, ``_boot``, ``_terminate``,
``_send``, ``_recv``, ``_drain_events``); the node side in
:class:`NodeSession` (the command machine) and :func:`run_node` (the
one serve loop every node process runs, whatever its transport and
however its graph rows arrived); and the executor prologue/epilogue in
:func:`prepare_job` / :meth:`ControlPlaneMaster.run_job`.  The wire representation of
every command and reply is identical across backends, which is what
lets a checkpoint shard taken under one runtime resume under another.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..graph.graph import Graph
from ..graph.io import ShardedGraphStore
from ..net.message import TaskBatchTransfer
from ..net.tcp import PeerLostError
from .aggregator import GlobalAggregator
from .checkpoint import (
    JobCheckpoint,
    WorkerSnapshot,
    restore_worker,
    snapshot_worker,
)
from .config import FailurePlanConfig, GThinkerConfig
from .errors import (
    CheckpointError,
    GThinkerError,
    JobAbortedError,
    WireDecodeError,
    WorkerProcessError,
)
from .master import plan_steals
from .metrics import MetricsRegistry
from .runtime import JobRequest
from .worker import ENGINE_BURST_STEPS, Worker

__all__ = [
    "ENGINE_BURST_STEPS",
    "ControlPlaneMaster",
    "FailureInjector",
    "NodeSession",
    "NodeStatus",
    "NodeFinal",
    "mp_context",
    "prepare_job",
    "run_node",
]


@dataclass
class NodeStatus:
    """One node's answer to a sync command."""

    worker_id: int
    tasks_in_memory: int
    tasks_on_disk: int
    unspawned: int
    outgoing: int
    sent: int
    received: int
    progress: int
    workload: int
    partial: Any


@dataclass
class NodeFinal:
    """One node's end-of-job report."""

    worker_id: int
    outputs: List[Any]
    metrics: Dict[str, float]
    partial: Any


# ---------------------------------------------------------------------------
# Failure injection (node side)
# ---------------------------------------------------------------------------


class FailureInjector:
    """Kills this node process per its :class:`FailurePlanConfig`.

    Death is ``os._exit`` — no cleanup, no error report up the control
    plane — so the master observes exactly what a machine loss looks
    like.
    """

    def __init__(
        self,
        plan: Optional[FailurePlanConfig],
        worker_id: int,
        incarnation: int,
    ) -> None:
        self._plan = plan
        self._worker_id = worker_id
        self._counts: Dict[str, int] = {}
        self.active = (
            plan is not None
            and (incarnation == 0 or plan.rearm)
            and (plan.kill_worker is None or plan.kill_worker == worker_id)
        )
        # Incarnation perturbs the stream so a rearmed random plan does
        # not replay the same kill schedule after every recovery.
        self._rng = random.Random(
            ((plan.seed if plan else 0) << 8) ^ worker_id ^ (incarnation * 7919)
        )

    def fire(self, event: str) -> None:
        """Record one occurrence of ``event``; die if the plan says so."""
        if not self.active:
            return
        plan = self._plan
        if plan.when == "random":
            if event == "sync" and self._rng.random() < plan.probability:
                os._exit(plan.exit_code)
            return
        if event != plan.when:
            return
        count = self._counts.get(event, 0) + 1
        self._counts[event] = count
        if count == plan.at_count and (
            plan.probability >= 1.0 or self._rng.random() < plan.probability
        ):
            os._exit(plan.exit_code)

    def observe_round(self, worker) -> None:
        """Round-boundary triggers: mid-spawn cursor, non-empty L_file."""
        if not self.active:
            return
        when = self._plan.when
        if when == "spawn":
            if 0 < worker.spawn_cursor() < worker.num_local_vertices:
                self.fire("spawn")
        elif when == "spill":
            if len(worker.l_file) > 0:
                self.fire("spill")


# ---------------------------------------------------------------------------
# Node side: the command machine each backend's serve loop drives
# ---------------------------------------------------------------------------


class NodeSession:
    """One node's half of the control protocol, backend-agnostic.

    The backend's serve loop owns the transport-specific parts — how
    commands arrive, how replies travel back, how to block while idle —
    and delegates the rest here: :meth:`step` runs one scheduling round
    (an engine burst unless quiesced), :meth:`handle` executes one
    control command and returns the reply object to send, and
    :meth:`wake_edge` says when to send the unsolicited
    ``("wake", node_id)`` notification.
    """

    def __init__(
        self,
        worker,
        transport,
        injector: FailureInjector,
        metrics: MetricsRegistry,
    ) -> None:
        self.worker = worker
        self.transport = transport
        self.injector = injector
        self.metrics = metrics
        self.quiesced = False
        self.done = False
        self._was_drained = False

    def step(self) -> bool:
        """One :meth:`Worker.step_round`; while quiesced, its comm step only.

        Quiesced (checkpoint barrier), no engine round runs, so the wire
        drains to a provably empty state.  The failure injector observes
        every engine round of the burst.
        """
        worked, _ = self.worker.step_round(
            0 if self.quiesced else ENGINE_BURST_STEPS,
            self.injector.observe_round,
        )
        return worked

    def drained(self) -> bool:
        """True when this node has nothing runnable and nothing buffered."""
        return (
            not self.quiesced
            and self.worker.drained()
            and self.transport.pending_unflushed() == 0
        )

    def _build_status(self) -> NodeStatus:
        """Flush node-local state and build a fresh :class:`NodeStatus`.

        The serve loop is the process's only cache-mutating thread, so
        flushing here makes ``s_cache`` exact and the lock-acquisition
        metric current at every status report.
        """
        worker = self.worker
        transport = self.transport
        worker.flush_for_status()
        transport.flush_outgoing()
        return NodeStatus(
            worker_id=worker.worker_id,
            tasks_in_memory=worker.tasks_in_memory(),
            tasks_on_disk=len(worker.l_file),
            unspawned=worker.unspawned_count(),
            outgoing=(worker.comm.pending_outgoing()
                      + transport.pending_unflushed()),
            sent=transport.sent_count,
            received=transport.received_count,
            progress=worker.progress.value,
            workload=worker.remaining_workload_estimate(),
            partial=worker.aggregator.take_partial(),
        )

    def wake_edge(self) -> bool:
        """True once per busy→drained edge: the serve loop then sends an
        unsolicited ``("wake", id)`` so the master runs its confirming
        sweep at once."""
        drained = self.drained()
        edge = drained and not self._was_drained
        self._was_drained = drained
        return edge

    def _ship_batch(self, thief_id: int, max_tasks: int) -> int:
        """Send one task batch (spilled first, else fresh spawns) to
        ``thief_id`` over the data transport; returns the tasks moved."""
        worker = self.worker
        self.injector.fire("steal")
        payload_info = worker.l_file.take_payload()
        if payload_info is None:
            payload_info = worker.spawn_batch_payload(max_tasks)
        if payload_info is None:
            return 0
        payload, moved = payload_info
        self.transport.send(TaskBatchTransfer(
            src=worker.worker_id, dst=thief_id,
            payload=payload, num_tasks=moved,
        ))
        self.transport.flush_outgoing()
        return moved

    def handle(self, cmd):
        """Execute one control command; returns the reply to send back.

        ``stop`` additionally sets :attr:`done` — the serve loop sends
        the :class:`NodeFinal` reply and exits.
        """
        worker = self.worker
        transport = self.transport
        tag = cmd[0]
        if tag == "sync":
            # Injected death *before* the reply: the master is left
            # waiting mid-protocol, like a machine loss.
            self.injector.fire("sync")
            worker.aggregator.publish_global(cmd[1])
            return self._build_status()
        if tag == "steal":
            return ("stolen", self._ship_batch(cmd[1], cmd[2]))
        if tag == "quiesce":
            self.quiesced = True
            return ("quiesced", worker.worker_id)
        if tag == "qstatus":
            transport.flush_outgoing()
            return (
                "qstatus", worker.worker_id,
                transport.sent_count, transport.received_count,
                worker.comm.pending_outgoing()
                + transport.pending_unflushed(),
            )
        if tag == "checkpoint":
            snap = snapshot_worker(worker)
            snap.partial = worker.aggregator.take_partial()
            snap.sent = transport.sent_count
            snap.received = transport.received_count
            return snap
        if tag == "resume":
            worker.aggregator.publish_global(cmd[1])
            self.quiesced = False
            return ("resumed", worker.worker_id)
        if tag == "stop":
            worker.flush_for_status()
            self.done = True
            return NodeFinal(
                worker_id=worker.worker_id,
                outputs=worker.outputs(),
                metrics=self.metrics.snapshot(),
                partial=worker.aggregator.take_partial(),
            )
        raise GThinkerError(f"unknown control command {tag!r}")


def run_node(
    node_id: int,
    config: GThinkerConfig,
    app_factory,
    control,
    make_transport: Callable[[MetricsRegistry], Any],
    load_graph: Callable[[Worker], None],
    spill_root: Optional[str],
    snapshot: Optional[WorkerSnapshot] = None,
    global_value: Any = None,
    incarnation: int = 0,
) -> None:
    """The whole life of one node process, on any backend.

    Builds the worker, then steps its components (comm service, comper
    engines, GC) round-robin — the per-machine layout of the serial
    runtime, but with every machine on its own core — and answers the
    master's commands between rounds through :class:`NodeSession`.  A
    backend supplies only what really differs:

    * ``control`` — the master's end of this node's control channel,
      anything with ``poll(timeout)`` / ``recv()`` / ``send(obj)`` /
      ``close()`` (a ``multiprocessing`` pipe end or a
      :class:`~repro.net.tcp.ControlChannel`);
    * ``make_transport(metrics)`` — the data plane (mp queues or TCP),
      returned ready to send, with ``wait_for_activity`` and ``close``;
    * ``load_graph(worker)`` — how this node's rows arrive
      (``worker.load_shared(csr)`` or ``worker.load_rows(rows)``);
    * ``spill_root`` — a master-owned directory, or ``None`` for a node
      on a machine of its own (it makes and removes a temp dir).

    Anything raised is reported up the control channel as ``("error",
    node_id, type, traceback, recoverable)``; ``recoverable`` marks wire
    corruption and peer loss — environment damage a rollback can clear —
    as opposed to app/framework bugs that would recur.  When the master
    itself is gone the report has nowhere to go and is dropped.
    """
    owns_spill = spill_root is None
    if owns_spill:
        spill_root = tempfile.mkdtemp(prefix=f"gthinker-spill-node{node_id}-")
    worker = None
    transport = None
    try:
        metrics = MetricsRegistry()
        # Honor kernel_backend in the child even under 'spawn' (where the
        # parent's import-time selection is not inherited).
        from .job import activate_kernel_backend

        activate_kernel_backend(config, metrics)
        transport = make_transport(metrics)
        worker = Worker(
            worker_id=node_id,
            num_workers=config.num_workers,
            config=config,
            app_factory=app_factory,
            transport=transport,
            metrics=metrics,
            spill_dir=Path(spill_root),
        )
        load_graph(worker)
        if snapshot is not None:
            restore_worker(worker, snapshot)
            # Counters resume from the barrier's balanced values; the
            # fresh queues/sockets are empty, so sent==received still
            # means "wire empty" to the termination detector.
            transport.sent_count = snapshot.sent
            transport.received_count = snapshot.received
        if global_value is not None:
            worker.aggregator.publish_global(global_value)
        injector = FailureInjector(config.failure_plan, node_id, incarnation)
        session = NodeSession(worker, transport, injector, metrics)

        # Adaptive idle wait: back off exponentially while nothing
        # happens, waking promptly on either a control command or an
        # incoming data-plane batch (the transport selects on both).
        backoff = config.idle_sleep_s
        while True:
            worked = session.step()

            while control.poll(0):
                control.send(session.handle(control.recv()))
                if session.done:
                    return

            if session.wake_edge():
                control.send(("wake", node_id))

            if worked:
                backoff = config.idle_sleep_s
            else:
                transport.wait_for_activity(backoff, extra=(control,))
                backoff = min(backoff * 2, config.idle_backoff_max_s)
    except BaseException as exc:
        recoverable = isinstance(exc, (WireDecodeError, PeerLostError))
        try:
            control.send((
                "error", node_id, type(exc).__name__,
                "".join(traceback.format_exception(type(exc), exc,
                                                   exc.__traceback__)),
                recoverable,
            ))
        except Exception:
            pass
    finally:
        if worker is not None:
            worker.cleanup()
        if transport is not None:
            transport.close()
        if owns_spill:
            shutil.rmtree(spill_root, ignore_errors=True)
        control.close()


# ---------------------------------------------------------------------------
# Master side: the shared protocol driver
# ---------------------------------------------------------------------------


class ControlPlaneMaster:
    """Backend-agnostic master: syncs, steals, checkpoints, rollback.

    :meth:`_run_to_completion` is the one run loop (sweep, plan and
    execute steals, checkpoint on cadence, double-snapshot termination,
    idle until a wake or the backoff expires); :meth:`run` wraps it in
    rollback recovery.  Subclasses provide the plumbing:

    * ``num_nodes`` — how many nodes are attached;
    * ``_boot(checkpoint, global_value)`` — bring up one incarnation of
      the node set, each node seeded with its snapshot and the global
      aggregate (both ``None`` on a cold start);
    * ``_terminate()`` — tear the node set down;
    * ``_send(node_id, cmd)`` — deliver one command, raising
      :class:`WorkerProcessError` on a dead node (``recoverable=True``
      for silent losses; a node's own error report decides otherwise,
      see :meth:`_raise_from_report`);
    * ``_recv(node_id, timeout=None)`` — one reply, same error contract,
      skipping unsolicited notifications via :meth:`_note_oob`;
    * ``_drain_events(timeout)`` — the multiplexed idle wait.
    """

    def __init__(
        self,
        config: GThinkerConfig,
        app_factory,
        join_timeout_s: float,
        checkpoint_path: Optional[str] = None,
        abort_after_rounds: Optional[int] = None,
    ) -> None:
        self.config = config
        self.app_factory = app_factory
        self.join_timeout_s = join_timeout_s
        self.checkpoint_path = checkpoint_path
        self.abort_after_rounds = abort_after_rounds
        self.metrics = MetricsRegistry()
        self.global_aggregator = GlobalAggregator(app_factory().make_aggregator())
        #: Node processes this master started itself (none when attached).
        self.procs: List = []
        #: Cooperative-cancellation token (``AbortToken`` or None), set
        #: by the executor before :meth:`run`.  Checked once per sweep —
        #: the sweep cadence is bounded by ``aggregator_sync_period_s``,
        #: so a cancel lands within roughly one sync period.
        self.abort = None
        self._incarnation = 0
        self._epoch = 0
        self._last_checkpoint: Optional[JobCheckpoint] = None
        self._deadline = float("inf")
        #: Set by :meth:`_note_oob` whenever an out-of-band message is
        #: consumed anywhere (a sweep's ``_recv``, a drain); the base
        #: :meth:`_wait_for_wake` returns immediately while it is set,
        #: so a wake that arrived mid-sweep is never slept through.
        self._pending_wake = False
        self._last_steal_key = None
        self._last_steal_pairs = frozenset()

    # -- plumbing the backend must provide --------------------------------

    @property
    def num_nodes(self) -> int:
        raise NotImplementedError

    def _boot(self, checkpoint: Optional[JobCheckpoint], global_value) -> None:
        raise NotImplementedError

    def _terminate(self) -> None:
        raise NotImplementedError

    def _send(self, node_id: int, cmd) -> None:
        raise NotImplementedError

    def _recv(self, node_id: int, timeout: Optional[float] = None):
        raise NotImplementedError

    def _drain_events(self, timeout: float) -> None:
        """Block up to ``timeout`` for control traffic, then drain it all.

        The backend multiplexes every node's control channel (pipes via
        a selector wait, sockets via the channel's non-blocking drain),
        routing each message through :meth:`_note_oob` and raising
        :class:`WorkerProcessError` for error reports or dead nodes.
        """
        raise NotImplementedError

    # -- node-set lifecycle -----------------------------------------------

    def start(self, checkpoint: Optional[JobCheckpoint] = None) -> None:
        """Boot the initial node set, optionally seeded from a shard."""
        self._last_checkpoint = checkpoint
        if checkpoint is not None:
            self._epoch = checkpoint.epoch
        self._boot_from_last_checkpoint()

    def _boot_from_last_checkpoint(self) -> None:
        ckpt = self._last_checkpoint
        # The aggregator rolls back with the nodes: partials folded
        # after the barrier belong to work that will be redone.
        self.global_aggregator = GlobalAggregator(
            self.app_factory().make_aggregator()
        )
        if ckpt is not None:
            self.global_aggregator.set_value(ckpt.aggregator_global)
        self._boot(ckpt, self.global_aggregator.value if ckpt is not None else None)

    def _recover(self) -> None:
        """Global rollback: reboot the node set from the last barrier."""
        self._terminate()
        self._incarnation += 1
        self.metrics.add("ft:recoveries")
        self._boot_from_last_checkpoint()

    def shutdown(self) -> None:
        self._terminate()

    # -- shared event handling --------------------------------------------

    @staticmethod
    def _raise_from_report(msg) -> None:
        """Raise when ``msg`` is a node's error report; else return.

        The node classified its own failure: wire damage and peer loss
        are recoverable (roll back and redo), anything else its code
        raised would fail identically after a rollback, so it is final.
        """
        if isinstance(msg, tuple) and msg and msg[0] == "error":
            _tag, nid, exc_type, tb, recoverable = msg
            raise WorkerProcessError(
                nid, f"{exc_type} raised:\n{tb}", recoverable=recoverable
            )

    def _note_oob(self, msg) -> bool:
        """Consume one out-of-band control message, the node's
        ``("wake", id)``; False means ``msg`` is the synchronous reply the
        caller was waiting for."""
        if isinstance(msg, tuple) and msg and msg[0] == "wake":
            self._pending_wake = True
            return True
        return False

    def _wait_for_wake(self, timeout: float) -> bool:
        """Idle until a control message arrives or ``timeout`` elapses.

        Never sleeps past a pending message: if a wake was already
        consumed (e.g. during a sweep's ``_recv``) this returns without
        blocking at all, and otherwise the backend's ``_drain_events``
        wakes on the *first* message rather than a fixed interval.
        """
        if not self._pending_wake:
            self._drain_events(timeout)
        woke = self._pending_wake
        self._pending_wake = False
        return woke

    # -- protocol ---------------------------------------------------------

    def _sweep(self) -> List[NodeStatus]:
        t0 = time.perf_counter()
        value = self.global_aggregator.value
        for nid in range(self.num_nodes):
            self._send(nid, ("sync", value))
        statuses = []
        for nid in range(self.num_nodes):
            msg = self._recv(nid)
            if not isinstance(msg, NodeStatus):
                raise WorkerProcessError(
                    nid, f"expected a status report, got {type(msg).__name__}"
                )
            statuses.append(msg)
        for s in statuses:
            self.global_aggregator.fold(s.partial)
            s.partial = None
        self.metrics.add("time:master_sweep_s", time.perf_counter() - t0)
        return statuses

    def _plan_steals(self, statuses: List[NodeStatus]) -> None:
        """Run :func:`~repro.core.master.plan_steals` over ``statuses``.

        Memoized on the (worker, workload) view: when nothing changed
        since the last round the sorted plan is identical, so the whole
        sort/pair loop is skipped and the skip counted.
        """
        if not self.config.steal_enabled or len(statuses) < 2:
            return
        key = tuple(sorted((s.worker_id, s.workload) for s in statuses))
        if key == self._last_steal_key:
            self.metrics.add("control:steal_plan_skipped")
            return
        self._last_steal_key = key
        self._last_steal_pairs = plan_steals(
            [(s.workload, s.worker_id) for s in statuses],
            self.config.task_batch_size,
            self.config.steal_batches,
            self._last_steal_pairs,
            self._steal_via_master,
        )

    def _steal_via_master(self, victim: int, thief: int, amount: int) -> int:
        """One move: a ``steal`` request-reply with the victim, which
        ships the batch to the thief over the data transport."""
        self._send(victim, ("steal", thief, amount))
        reply = self._recv(victim)
        moved = reply[1] if isinstance(reply, tuple) else 0
        if moved:
            self.metrics.add("steal:batches")
            self.metrics.add("steal:tasks", moved)
        return moved

    def _checkpoint(self) -> None:
        """The sync-barrier checkpoint protocol.

        Quiesce every node, poll ``qstatus`` until the wire is *settled*
        — globally ``sent == received`` with zero buffered outgoing
        anywhere, which proves no message exists in any queue or socket
        — then snapshot every node and resume with the freshly folded
        global aggregate.
        """
        n = self.num_nodes
        for nid in range(n):
            self._send(nid, ("quiesce",))
        for nid in range(n):
            self._recv(nid)  # ("quiesced", nid)
        # Settle the wire: with engines paused, only in-transit pulls and
        # responses remain; they drain in finitely many comm steps.
        while True:
            replies = []
            for nid in range(n):
                self._send(nid, ("qstatus",))
            for nid in range(n):
                replies.append(self._recv(nid))
            sent = sum(r[2] for r in replies)
            received = sum(r[3] for r in replies)
            pending = sum(r[4] for r in replies)
            if sent == received and pending == 0:
                break
            if time.monotonic() > self._deadline:
                raise GThinkerError(
                    "checkpoint barrier did not settle before the job deadline"
                )
            time.sleep(0.001)
        snaps: List[WorkerSnapshot] = []
        for nid in range(n):
            self._send(nid, ("checkpoint",))
        for nid in range(n):
            msg = self._recv(nid)
            if not isinstance(msg, WorkerSnapshot):
                raise WorkerProcessError(
                    nid, f"expected a worker snapshot, got {type(msg).__name__}"
                )
            snaps.append(msg)
        for snap in snaps:
            # Fold the barrier partials now; clear them so a restore
            # cannot double-apply what is already in aggregator_global.
            self.global_aggregator.fold(snap.partial)
            snap.partial = None
        self._epoch += 1
        ckpt = JobCheckpoint(
            worker_snapshots=snaps,
            aggregator_global=self.global_aggregator.value,
            num_workers=n,
            compers_per_worker=self.config.compers_per_worker,
            epoch=self._epoch,
        )
        self._last_checkpoint = ckpt
        if self.checkpoint_path:
            ckpt.save(self.checkpoint_path)
        self.metrics.add("ft:checkpoints")
        value = self.global_aggregator.value
        for nid in range(n):
            self._send(nid, ("resume", value))
        for nid in range(n):
            self._recv(nid)  # ("resumed", nid)

    @staticmethod
    def _statuses_idle(statuses: List[NodeStatus]) -> bool:
        """The Safra snapshot predicate over one full status set."""
        return (
            all(
                s.tasks_in_memory == 0 and s.tasks_on_disk == 0
                and s.unspawned == 0 and s.outgoing == 0
                for s in statuses
            )
            and sum(s.sent for s in statuses)
            == sum(s.received for s in statuses)
        )

    def _finalize(self) -> List[NodeFinal]:
        finals: List[NodeFinal] = []
        for nid in range(self.num_nodes):
            self._send(nid, ("stop",))
        for nid in range(self.num_nodes):
            msg = self._recv(nid)
            if not isinstance(msg, NodeFinal):
                raise WorkerProcessError(
                    nid, f"expected a final report, got {type(msg).__name__}"
                )
            # The paper's closing rule: one more aggregation pass so data
            # from every task is folded before the job result is read.
            self.global_aggregator.fold(msg.partial)
            finals.append(msg)
        return finals

    def _run_to_completion(self) -> List[NodeFinal]:
        prev_idle = False
        prev_progress = -1
        sweeps = 0
        sweep_wait = self.config.idle_sleep_s
        self._pending_wake = False
        self._last_steal_key = None
        while True:
            if self.abort is not None:
                # The unwind reaches the executor's ``finally``, which
                # tears the node set down — quota is back within one
                # sweep of the cancel request.
                self.abort.raise_if_set()
            statuses = self._sweep()
            sweeps += 1
            self._plan_steals(statuses)
            every = self.config.checkpoint_every_syncs
            if every > 0 and sweeps % every == 0:
                self._checkpoint()
            if (self.abort_after_rounds is not None
                    and sweeps >= self.abort_after_rounds):
                # Checked after the checkpoint cadence so an aborted job
                # leaves a shard behind for resume_job.
                raise JobAbortedError(
                    f"job aborted after {sweeps} sync sweeps"
                )
            idle = self._statuses_idle(statuses)
            progress = sum(s.progress for s in statuses)
            if idle and prev_idle and progress == prev_progress:
                break
            prev_idle, prev_progress = idle, progress
            if time.monotonic() > self._deadline:
                raise GThinkerError(
                    f"job exceeded {self.join_timeout_s}s"
                )
            if idle:
                # First idle observation: run the confirming sweep right
                # away instead of burning a whole sync period — this is
                # most of the fixed-cadence latency on short jobs.
                sweep_wait = self.config.idle_sleep_s
                continue
            t0 = time.perf_counter()
            woke = self._wait_for_wake(sweep_wait)
            self.metrics.add("time:control_idle_s", time.perf_counter() - t0)
            if woke:
                sweep_wait = self.config.idle_sleep_s
            else:
                sweep_wait = min(sweep_wait * 2,
                                 self.config.aggregator_sync_period_s)

        return self._finalize()

    def run(self) -> List[NodeFinal]:
        """Drive the job to completion, recovering lost nodes."""
        self._deadline = time.monotonic() + self.join_timeout_s
        attempts = 0
        while True:
            try:
                return self._run_to_completion()
            except WorkerProcessError as exc:
                attempts += 1
                if not exc.recoverable or attempts > self.config.max_worker_restarts:
                    raise
                delay = self.config.worker_restart_backoff_s * (2 ** (attempts - 1))
                if delay > 0:
                    time.sleep(delay)
                self._recover()

    def run_job(self, checkpoint: Optional[JobCheckpoint], started: float):
        """Boot, :meth:`run`, and fold the nodes' final reports into the
        ``JobResult``; the node set is shut down on every way out."""
        from .job import JobResult  # deferred: job.py imports the backends lazily

        try:
            self.start(checkpoint)
            finals = self.run()
            for proc in self.procs:
                proc.join(timeout=10.0)
            merged = MetricsRegistry()
            merged.merge_from(self.metrics)
            outputs: List[Any] = []
            for final in sorted(finals, key=lambda f: f.worker_id):
                merged.merge_from(MetricsRegistry.from_snapshot(final.metrics))
                outputs.extend(final.outputs)
            return JobResult(
                aggregate=self.global_aggregator.value,
                outputs=outputs,
                metrics=merged.snapshot(),
                elapsed_s=time.perf_counter() - started,
                num_workers=self.config.num_workers,
                compers_per_worker=self.config.compers_per_worker,
            )
        finally:
            self.shutdown()


# ---------------------------------------------------------------------------
# Executor side: what every multi-process backend does around the master
# ---------------------------------------------------------------------------


def _default_start_method() -> str:
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def mp_context(config: GThinkerConfig):
    """The ``multiprocessing`` context node processes are started from
    (``process_start_method``, else fork where available)."""
    return mp.get_context(
        config.process_start_method or _default_start_method()
    )


def prepare_job(request: JobRequest, runtime: str) -> Graph:
    """Validate ``request`` for a multi-process backend; returns its graph.

    The app factory must pickle (it crosses a process or machine
    boundary), a resume checkpoint must match the worker count, and a
    sharded store is loaded whole — the backend then shares or ships
    the rows.
    """
    try:
        pickle.dumps(request.app_factory)
    except Exception as exc:
        raise GThinkerError(
            f"runtime={runtime!r} requires a picklable app_factory "
            f"(a Comper class or functools.partial, not a lambda or "
            f"closure): {exc!r}"
        ) from exc
    ckpt = request.checkpoint
    if ckpt is not None and ckpt.num_workers != request.config.num_workers:
        raise CheckpointError(
            f"checkpoint was taken with {ckpt.num_workers} workers, "
            f"job has {request.config.num_workers}"
        )
    graph = request.graph
    if isinstance(graph, ShardedGraphStore):
        graph = graph.load_full_graph()
    if not isinstance(graph, Graph):
        raise TypeError(f"unsupported graph source {type(request.graph)!r}")
    return graph
