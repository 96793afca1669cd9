"""The master⇄worker control-plane protocol: the one master of every runtime.

``runtime="process"`` (pipes + ``multiprocessing`` queues, one
machine), ``runtime="cluster"`` (TCP control channels + socket data
plane, many machines) and the in-process runtimes (``serial``,
``threaded``, ``checked`` and the simulator, whose
:class:`~repro.core.master.Master` talks to each worker through a
loopback channel) all drive the *same* protocol:

* periodic **sync sweeps** — global aggregate down, per-node status
  (monotone task counters, the closed flag, workload estimate,
  aggregator partial) up;
* **termination from monotone task counters** (Mattern's four-counter
  method, DESIGN.md §13): two consecutive sweeps must read the same
  global ``(born, retired)``, ``born == retired``, and every node's
  spawn partition closed;
* master-coordinated, workload-**proportional stealing** with ping-pong
  hysteresis;
* **sync-barrier checkpoints**: quiesce → drain the wire to a provably
  settled state → snapshot every node → resume with the folded global;
* bounded-restart **global rollback** recovery in :meth:`run`.

One master round (:meth:`ControlPlaneMaster._round`) is a sweep — a
round-robin request-reply ``sync`` probe over every node — then the
steal plan, the checkpoint cadence and the termination test.  The node
sets run rounds in :meth:`ControlPlaneMaster.run`, idling between them,
backing off from ``IDLE_SLEEP_S`` up to ``aggregator_sync_period_s``;
a node that goes busy→drained sends one unsolicited ``("wake", id)``
so the master runs its next sweep at once instead of waiting out the
backoff.  An in-process runtime runs one round per ``Master.sync``
call, on its own schedule.

This module holds that protocol once: the master side in
:class:`ControlPlaneMaster`, parameterised over the one thing a backend
really does differently (``_boot``, plus the ``channels`` / ``procs``
it fills); the node side in :class:`NodeSession` (the command machine)
and :func:`run_node` (the one serve loop every node process runs,
whatever its transport and however its graph rows arrived); and the
executor path in :func:`execute_on_nodes`.  The wire representation of
every command and reply is identical across backends, which is what
lets a checkpoint shard taken under one runtime resume under another.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..graph.graph import Graph
from ..graph.io import ShardedGraphStore
from ..net.message import TaskBatchTransfer
from ..net.tcp import ChannelClosed, PeerLostError
from .aggregator import GlobalAggregator
from .checkpoint import (
    JobCheckpoint,
    WorkerSnapshot,
    restore_worker,
    snapshot_worker,
)
from .config import (
    IDLE_BACKOFF_MAX_S,
    IDLE_SLEEP_S,
    FailurePlanConfig,
    GThinkerConfig,
)
from .errors import (
    CheckpointError,
    GThinkerError,
    JobAbortedError,
    WireDecodeError,
    WorkerProcessError,
)
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
    "execute_on_nodes",
    "mp_context",
    "plan_steals",
    "prepare_job",
    "run_node",
    "seed_node",
]


@dataclass
class NodeStatus:
    """One node's answer to a sync command."""

    worker_id: int
    #: Tasks born and retired on this node so far (:meth:`Worker.task_counts`).
    born: int
    retired: int
    #: :meth:`Worker.closed`: nothing left behind the spawn cursor.
    closed: bool
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
        flushing here makes ``s_cache`` exact and the cache and task
        metrics current at every status report.
        """
        worker = self.worker
        worker.flush_for_status()
        self.transport.flush_outgoing()
        born, retired = worker.task_counts()
        return NodeStatus(
            worker_id=worker.worker_id,
            born=born,
            retired=retired,
            closed=worker.closed(),
            workload=worker.remaining_workload_estimate(),
            partial=worker.aggregator.take_partial(),
        )

    def close(self) -> Any:
        """End the job on this node; returns its last aggregator partial."""
        self.worker.flush_for_status()
        self.done = True
        return self.worker.aggregator.take_partial()

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
            partial = self.close()
            return NodeFinal(
                worker_id=worker.worker_id,
                outputs=worker.outputs(),
                metrics=self.metrics.snapshot(),
                partial=partial,
            )
        raise GThinkerError(f"unknown control command {tag!r}")


def seed_node(worker, transport, snapshot: Optional[WorkerSnapshot],
              global_value: Any) -> None:
    """Restore a freshly built node from its barrier snapshot and the
    folded global aggregate (either may be None: a cold start).

    Transport counters resume from the barrier's balanced values; the
    fresh queues/sockets/mailboxes are empty, so ``sent == received``
    still means "wire empty" to the next barrier.  Task counters start
    over: every restored task is born again through ``add_task``.
    """
    if snapshot is not None:
        restore_worker(worker, snapshot)
        transport.sent_count = snapshot.sent
        transport.received_count = snapshot.received
    if global_value is not None:
        worker.aggregator.publish_global(global_value)


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
        seed_node(worker, transport, snapshot, global_value)
        injector = FailureInjector(config.failure_plan, node_id, incarnation)
        session = NodeSession(worker, transport, injector, metrics)

        # Adaptive idle wait: back off exponentially while nothing
        # happens, waking promptly on either a control command or an
        # incoming data-plane batch (the transport selects on both).
        backoff = IDLE_SLEEP_S
        while True:
            worked = session.step()

            while control.poll(0):
                control.send(session.handle(control.recv()))
                if session.done:
                    return

            if session.wake_edge():
                control.send(("wake", node_id))

            if worked:
                backoff = IDLE_SLEEP_S
            else:
                transport.wait_for_activity(backoff, extra=(control,))
                backoff = min(backoff * 2, IDLE_BACKOFF_MAX_S)
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

#: How long the master drains nodes for an error report: behind a
#: broken pipe (``_send``) or behind another node's peer-loss echo.
ERROR_DRAIN_S = 1.0

#: What a control endpoint raises once its node is gone: a pipe's EOF
#: or broken pipe, a channel's close, a frame cut short by the loss.
PEER_LOST = (EOFError, OSError, ChannelClosed, WireDecodeError)


def _is_report(msg) -> bool:
    return isinstance(msg, tuple) and bool(msg) and msg[0] == "error"


def _report_error(msg) -> WorkerProcessError:
    _tag, nid, exc_type, tb, recoverable = msg
    return WorkerProcessError(
        nid, f"{exc_type} raised:\n{tb}", recoverable=recoverable
    )


def plan_steals(
    workloads: Iterable[Tuple[int, int]],
    batch: int,
    steal_batches: int,
    prev_pairs: FrozenSet[Tuple[int, int]],
    move: Callable[[int, int, int], int],
) -> FrozenSet[Tuple[int, int]]:
    """Workload-proportional stealing with ping-pong hysteresis.

    The one steal policy of every runtime.  ``workloads`` is
    ``(estimate, worker_id)`` per worker; up to ``steal_batches`` times
    the most loaded worker (victim) gives to the least loaded (thief)
    through ``move(victim, thief, amount) -> moved``.  The amount is
    about a quarter of the gap (moving ``m`` tasks shrinks the gap by
    ``2m``, so ``gap // 4`` halves it without overshooting), at least
    one batch, capped at ``steal_batches`` batches.  Planning stops when
    the gap is within two batches, when ``move`` reports nothing moved,
    or when the pair moved work the other way in the previous plan
    (``prev_pairs``) — so near-balanced workers stop trading the same
    batch back and forth.  Returns this plan's ``(victim, thief)``
    pairs, the next call's ``prev_pairs``.
    """
    estimates = [[estimate, wid] for estimate, wid in workloads]
    cap = steal_batches * batch
    pairs = set()
    for _ in range(steal_batches):
        estimates.sort()
        low, high = estimates[0], estimates[-1]
        gap = high[0] - low[0]
        if gap <= 2 * batch or (low[1], high[1]) in prev_pairs:
            break
        moved = move(high[1], low[1], max(batch, min(gap // 4, cap)))
        if moved == 0:
            break
        pairs.add((high[1], low[1]))
        low[0] += moved
        high[0] -= moved
    return frozenset(pairs)


class ControlPlaneMaster:
    """Backend-agnostic master: syncs, steals, checkpoints, rollback.

    :meth:`_round` is one master round (sweep, plan and execute steals,
    checkpoint on cadence, double-snapshot termination test) — all an
    in-process ``Master.sync`` runs; :meth:`_run_to_completion` loops
    over rounds, idling until a wake or the backoff expires, and
    :meth:`run` wraps it in rollback recovery.  The master talks to node
    ``i`` through ``channels[i]``, a control endpoint with
    ``poll(timeout)`` / ``recv()`` / ``send(obj)`` / ``close()`` (an mp
    pipe end, a :class:`~repro.net.tcp.ControlChannel` or a
    :class:`~repro.core.master.LoopbackChannel`; the idle wait also
    needs ``fileno()``), and watches ``procs`` — the node processes it
    started itself, if any.  A backend provides only
    ``_boot(checkpoint, global_value)``: bring up one incarnation of the
    node set, each node seeded with its snapshot and the global
    aggregate (both ``None`` on a cold start), and fill ``channels`` /
    ``procs``.

    Whatever an endpoint raises once its node is gone (:data:`PEER_LOST`)
    becomes a recoverable :class:`WorkerProcessError`; a node's own
    error report decides otherwise (see :meth:`_raise_from_report`).
    """

    #: Pause between two ``qstatus`` polls of the checkpoint barrier,
    #: while node processes drain the wire on their own.
    SETTLE_WAIT_S = 0.001

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
        self.global_aggregator = GlobalAggregator(self._make_aggregator())
        #: One control endpoint per node, indexed by node id.
        self.channels: List = []
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

    # -- the one thing the backend provides --------------------------------

    def _boot(self, checkpoint: Optional[JobCheckpoint], global_value) -> None:
        raise NotImplementedError

    def _make_aggregator(self):
        return self.app_factory().make_aggregator()

    # -- control endpoints --------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.channels)

    def _send(self, node_id: int, cmd) -> None:
        """Deliver one command; a dead node raises :class:`WorkerProcessError`."""
        try:
            self.channels[node_id].send(cmd)
        except PEER_LOST as exc:
            # The node died.  Drain its channel looking for the error
            # report — a wake or a reply sent before the death must not
            # shadow the real traceback — and chain the endpoint error.
            deadline = time.monotonic() + ERROR_DRAIN_S
            while time.monotonic() < deadline:
                try:
                    msg = self._poll_message(node_id, 0.05)
                except WorkerProcessError:
                    break
                try:
                    self._raise_from_report(msg)
                except WorkerProcessError as report:
                    raise report from exc
                # else: a stale pre-death reply; keep draining.
            raise WorkerProcessError(
                node_id, "control channel closed unexpectedly",
                recoverable=True,
            ) from exc

    def _recv(self, node_id: int):
        """One reply from ``node_id``, skipping wakes via :meth:`_note_oob`.

        ``poll`` returns as soon as bytes arrive, so its 100 ms slice only
        sets how often a node this master started is checked for life.
        """
        # One deadline for the whole call: a wake ahead of the reply
        # does not restart the clock.
        deadline = time.monotonic() + self.config.control_reply_timeout_s
        while True:
            remaining = deadline - time.monotonic()
            msg = self._poll_message(node_id, min(0.1, max(0.0, remaining)))
            if msg is None:
                if time.monotonic() >= deadline:
                    raise WorkerProcessError(
                        node_id, f"no control-plane reply within "
                        f"{self.config.control_reply_timeout_s}s",
                        recoverable=True,
                    )
                if not self.procs or self.procs[node_id].is_alive():
                    continue
                # Exit may have raced a final message into the channel.
                msg = self._poll_message(node_id, 0.25)
                if msg is None:
                    raise WorkerProcessError(
                        node_id,
                        f"died with exit code {self.procs[node_id].exitcode} "
                        f"without reporting an error",
                        recoverable=True,
                    )
            self._raise_from_report(msg)
            if not self._note_oob(msg):
                return msg

    def _poll_message(self, node_id: int, timeout: float):
        """One message from ``node_id`` within ``timeout``, else None;
        raises :class:`WorkerProcessError` when its channel is gone.
        Nothing is interpreted: :meth:`_root_cause` reads reports raw."""
        chan = self.channels[node_id]
        try:
            return chan.recv() if chan.poll(timeout) else None
        except PEER_LOST as exc:
            raise WorkerProcessError(
                node_id, f"control channel lost: {exc!r}", recoverable=True,
            ) from exc

    def _drain_buffered(self) -> bool:
        """Consume every message already waiting on any channel; True if
        there was one.  Only wakes are legal here: the control plane is
        strictly request-reply outside a sweep."""
        got = False
        for nid in range(self.num_nodes):
            while (msg := self._poll_message(nid, 0)) is not None:
                self._raise_from_report(msg)
                if not self._note_oob(msg):
                    raise WorkerProcessError(
                        nid,
                        "unexpected out-of-band control message "
                        f"{type(msg).__name__}",
                    )
                got = True
        return got

    def _drain_events(self, timeout: float) -> None:
        """Block up to ``timeout`` for control traffic, then drain it all.

        A channel can hold whole frames its socket no longer signals, so
        what is buffered is drained first; only then does one
        ``connection.wait`` over every endpoint block for the *first*
        new message.  A closed peer raises a recoverable
        :class:`WorkerProcessError` from the drain that reads its EOF.
        """
        if self._drain_buffered():
            return
        try:
            mp_connection.wait(self.channels, timeout=timeout)
        except (OSError, ValueError):
            # An endpoint died mid-wait; the next protocol op reports it.
            self._pending_wake = True
            return
        self._drain_buffered()

    def _terminate(self) -> None:
        """Close every channel, then stop the node processes still alive."""
        for chan in self.channels:
            try:
                chan.close()
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        self.channels, self.procs = [], []

    # -- node-set lifecycle -----------------------------------------------

    def start(self, checkpoint: Optional[JobCheckpoint] = None) -> None:
        """Boot the initial node set, optionally seeded from a shard —
        the one restore entry of every runtime."""
        if checkpoint is not None:
            if checkpoint.num_workers != self.config.num_workers:
                raise CheckpointError(
                    f"checkpoint was taken with {checkpoint.num_workers} "
                    f"workers, job has {self.config.num_workers}"
                )
            self._epoch = checkpoint.epoch
        self._last_checkpoint = checkpoint
        self._boot_from_last_checkpoint()

    def _boot_from_last_checkpoint(self) -> None:
        ckpt = self._last_checkpoint
        # The aggregator rolls back with the nodes: partials folded
        # after the barrier belong to work that will be redone.
        if ckpt is not None:
            self.global_aggregator.set_value(ckpt.aggregator_global)
        else:
            self.global_aggregator.reset()
        self._sweeps = 0
        self._prev_idle = False
        self._prev_counts = None
        self._pending_wake = False
        self._last_steal_key = None
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

    def _raise_from_report(self, msg) -> None:
        """Raise when ``msg`` is a node's error report; else return.

        The node classified its own failure: wire damage and peer loss
        are recoverable (roll back and redo), anything else its code
        raised would fail identically after a rollback, so it is final.
        A peer-loss report is usually the echo of another node's
        failure, so :meth:`_root_cause` looks for that node's report
        first and raises it, chained from the echo.
        """
        if not _is_report(msg):
            return
        report = _report_error(msg)
        if msg[2] == PeerLostError.__name__:
            root = self._root_cause(reporter=msg[1])
            if root is not None:
                raise root from report
        raise report

    def _root_cause(self, reporter: int) -> Optional[WorkerProcessError]:
        """The first non-peer-loss report another node sends within
        ``ERROR_DRAIN_S``, or None.

        A node that dies of its own error reports it and exits; its
        peers' data channels break and they report ``PeerLostError``,
        which can reach the master first.  Every other node is drained
        (replies and wakes are dropped: the job is failing).  A node
        that also lost a peer is done; one whose channel closes with no
        report died silently, so the peer loss *is* the root cause.
        """
        deadline = time.monotonic() + ERROR_DRAIN_S
        waiting = [nid for nid in range(self.num_nodes) if nid != reporter]
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            for nid in list(waiting):
                try:
                    msg = self._poll_message(
                        nid, min(remaining, 0.05) / len(waiting)
                    )
                except WorkerProcessError:
                    return None
                if _is_report(msg):
                    if msg[2] != PeerLostError.__name__:
                        return _report_error(msg)
                    waiting.remove(nid)
        return None

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
        """Run :func:`plan_steals` over ``statuses``.

        Memoized on the (worker, workload) view: when nothing changed
        since the last round the sorted plan is identical, so the whole
        sort/pair loop is skipped and the skip counted.
        """
        if not self.config.steal_batches or len(statuses) < 2:
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
            time.sleep(self.SETTLE_WAIT_S)
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

    def _checkpoint_due(self) -> bool:
        every = self.config.checkpoint_every_syncs
        return every > 0 and self._sweeps % every == 0

    def _round(self) -> bool:
        """Sweep, plan steals, checkpoint on cadence; True when this
        sweep and the last were both idle — every task born has retired
        and every partition is closed — with the same task totals.
        (The statuses predate the steals, but an idle sweep shows no
        workload gap to plan a steal over, and a steal that moves tasks
        either births them or moves tasks not yet retired.)"""
        if self.abort is not None:
            # The unwind reaches the executor's teardown — quota is back
            # within one sweep of the cancel request.
            self.abort.raise_if_set()
        statuses = self._sweep()
        self._sweeps += 1
        self._plan_steals(statuses)
        if self._checkpoint_due():
            self._checkpoint()
        if (self.abort_after_rounds is not None
                and self._sweeps >= self.abort_after_rounds):
            # Checked after the checkpoint cadence so an aborted job
            # leaves a shard behind for resume_job.
            raise JobAbortedError(
                f"job aborted after {self._sweeps} sync sweeps"
            )
        counts = (sum(s.born for s in statuses),
                  sum(s.retired for s in statuses))
        if counts[1] > counts[0]:
            # Correct counting cannot get here (Worker.task_counts); a
            # job that did would never see born == retired, and spin.
            raise GThinkerError(
                f"task counters broken: {counts[1]} tasks retired but "
                f"only {counts[0]} born"
            )
        idle = counts[0] == counts[1] and all(s.closed for s in statuses)
        done = idle and self._prev_idle and counts == self._prev_counts
        self._prev_idle, self._prev_counts = idle, counts
        return done

    def _run_to_completion(self) -> List[NodeFinal]:
        sweep_wait = IDLE_SLEEP_S
        # Both master timers are reported from the start, so a node set
        # that drains before its first wait still reports idle 0.0.
        self.metrics.add("time:master_sweep_s", 0.0)
        self.metrics.add("time:control_idle_s", 0.0)
        while not self._round():
            if time.monotonic() > self._deadline:
                raise GThinkerError(
                    f"job exceeded {self.join_timeout_s}s"
                )
            if self._prev_idle:
                # First idle observation: run the confirming sweep right
                # away instead of burning a whole sync period — this is
                # most of the fixed-cadence latency on short jobs.
                sweep_wait = IDLE_SLEEP_S
                continue
            t0 = time.perf_counter()
            woke = self._wait_for_wake(sweep_wait)
            self.metrics.add("time:control_idle_s", time.perf_counter() - t0)
            if woke:
                sweep_wait = IDLE_SLEEP_S
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
                time.sleep(RESTART_BACKOFF_S * (2 ** (attempts - 1)))
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


def mp_context():
    """The ``multiprocessing`` context node processes are started from
    (fork where available: cheap node startup, else spawn)."""
    return mp.get_context(_default_start_method())


def prepare_job(request: JobRequest, runtime: str) -> Graph:
    """Validate ``request`` for a multi-process backend; returns its graph.

    The app factory must pickle (it crosses a process or machine
    boundary), and a sharded store is loaded whole — the backend then
    shares or ships the rows.
    """
    try:
        pickle.dumps(request.app_factory)
    except Exception as exc:
        raise GThinkerError(
            f"runtime={runtime!r} requires a picklable app_factory "
            f"(a Comper class or functools.partial, not a lambda or "
            f"closure): {exc!r}"
        ) from exc
    graph = request.graph
    if isinstance(graph, ShardedGraphStore):
        graph = graph.load_full_graph()
    if not isinstance(graph, Graph):
        raise TypeError(f"unsupported graph source {type(request.graph)!r}")
    return graph


#: A node-set job still running after this long is declared hung.
JOIN_TIMEOUT_S = 600.0

#: Delay before the first recovery respawn; doubles per consecutive one.
RESTART_BACKOFF_S = 0.05


def execute_on_nodes(
    request: JobRequest,
    runtime: str,
    build_master: Callable[..., ControlPlaneMaster],
    parent_spill: bool = True,
):
    """Run ``request`` on a master-driven node set; returns its ``JobResult``.

    The executor path every node-set backend shares: :func:`prepare_job`,
    then one cleanup scope that holds the spill root and everything the
    backend registers on it.  ``build_master(graph, spill_root, cleanup,
    **master_args)`` hands the graph over its own way (shared memory,
    partition rows) and returns the master built with ``master_args``
    (the :class:`ControlPlaneMaster` arguments); since it runs inside
    the scope, a master that fails to build (say, a control port already
    taken) leaks nothing.

    The parent owns the spill root — node processes can be
    ``terminate()``\\ d mid-recovery, so they must not own temp dirs —
    unless ``parent_spill`` is False (nodes on other machines make their
    own), in which case ``spill_root`` is None.
    """
    config = request.config
    graph = prepare_job(request, runtime)
    started = time.perf_counter()
    with contextlib.ExitStack() as cleanup:
        spill_root = None
        if parent_spill and config.spill_dir:
            spill_root = Path(config.spill_dir)
        elif parent_spill:
            spill_root = Path(
                tempfile.mkdtemp(prefix=f"gthinker-spill-{runtime}-")
            )
            cleanup.callback(shutil.rmtree, spill_root, ignore_errors=True)
        master = build_master(
            graph, spill_root, cleanup,
            config=config,
            app_factory=request.app_factory,
            join_timeout_s=JOIN_TIMEOUT_S,
            checkpoint_path=request.checkpoint_path,
            abort_after_rounds=request.abort_after_rounds,
        )
        # Cooperative cancel: the sweep loop raises JobCancelledError,
        # which unwinds through run_job's shutdown() — every node this
        # master started is terminated and every channel closed, so
        # attached nodes see the close and exit too.
        master.abort = request.abort
        return master.run_job(request.checkpoint, started)
