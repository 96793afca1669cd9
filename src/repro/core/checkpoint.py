"""Fault tolerance via checkpointing (paper §V-B, "Fault Tolerance").

A checkpoint captures, per worker: the task-spawning cursor over
``T_local``, every in-memory task (tasks in ``T_task`` and ``B_task``
are saved with their pull sets so they re-request vertices after
recovery — the cache restarts cold, exactly as the paper describes),
the spilled task files, the outputs emitted so far, and the global
aggregator value.

Every runtime that checkpoints takes the one sync-barrier checkpoint of
the master (:meth:`~repro.core.controlplane.ControlPlaneMaster._checkpoint`):
workers quiesce, the wire is drained until ``sent == received``
globally, then every worker ships a :class:`WorkerSnapshot` —
including its aggregator partial and transport counters, so the next
barrier's ``sent == received`` test stays sound after a restore.
Recovery builds a fresh job seeded from the snapshots
(:meth:`~repro.core.controlplane.ControlPlaneMaster.start`); every
runtime reads the same :class:`JobCheckpoint` format, so a shard
written by one can be resumed by another.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .api import Task
from .errors import CheckpointError

__all__ = [
    "TaskSnapshot",
    "WorkerSnapshot",
    "JobCheckpoint",
    "snapshot_task",
    "restore_task",
    "snapshot_worker",
    "restore_worker",
]


@dataclass
class TaskSnapshot:
    """A picklable, lock-free image of a task at an iteration boundary."""

    adjacency: Dict[int, Tuple[int, ...]]
    labels: Dict[int, int]
    context: Any
    pulls: Tuple[int, ...]


def snapshot_task(task: Task) -> TaskSnapshot:
    """Capture a task; pending pulls (in flight or not yet issued) are
    recorded so recovery re-requests them.

    The pull set is the **union** of ``pulls_in_flight`` (the P(t) of
    the parked iteration) and ``pending_pulls()`` (pulls requested but
    not yet taken by the engine): a task can hold both at once, and
    restoring only one silently drops the other's vertices.
    """
    return TaskSnapshot(
        adjacency=dict(task.g.adjacency()),
        labels={v: task.g.label(v) for v in task.g.vertices() if task.g.label(v)},
        context=task.context,
        pulls=task.all_pending_pulls(),
    )


def restore_task(snap: TaskSnapshot) -> Task:
    task = Task(context=snap.context)
    for v, adj in snap.adjacency.items():
        task.g.add_vertex(v, adj, label=snap.labels.get(v, 0))
    for v in snap.pulls:
        task.pull(v)
    return task


@dataclass
class WorkerSnapshot:
    spawn_cursor: int
    tasks: List[TaskSnapshot] = field(default_factory=list)
    outputs: List[Any] = field(default_factory=list)
    #: The worker's aggregator partial at the barrier (folded into
    #: :attr:`JobCheckpoint.aggregator_global` by the master, which
    #: clears it; never re-applied on restore).
    partial: Any = None
    #: The worker's monotone transport counters at the barrier.
    #: Globally ``sum(sent) == sum(received)`` (the barrier drains the
    #: wire first), so restoring them keeps the next barrier's
    #: ``sent == received`` settle test sound after recovery.
    sent: int = 0
    received: int = 0


@dataclass
class JobCheckpoint:
    worker_snapshots: List[WorkerSnapshot]
    aggregator_global: Any
    num_workers: int
    compers_per_worker: int
    #: Which sync-barrier checkpoint this is (1-based; monotone per
    #: job).  Lets tooling and recovery logs tell shards apart, and
    #: output dedup reason about which epoch a restored output list
    #: belongs to.
    epoch: int = 0

    def save(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as f:
                pickle.dump(self, f, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)
        except (OSError, pickle.PicklingError) as exc:
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc

    @classmethod
    def load(cls, path) -> "JobCheckpoint":
        try:
            with open(path, "rb") as f:
                ckpt = pickle.load(f)
        except (OSError, pickle.UnpicklingError) as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        if not isinstance(ckpt, cls):
            raise CheckpointError(f"{path} does not contain a JobCheckpoint")
        return ckpt


def snapshot_worker(worker) -> WorkerSnapshot:
    """Capture one (quiescent) worker's tasks, cursor and outputs.

    Tasks are collected from every container: ``Q_task`` (peeked),
    ``B_task`` (a non-destructive ``get_batch``/``put`` round-trip that
    preserves order), ``T_task`` (entries keep their pull sets so they
    re-request on restore), and the spilled batch files of ``L_file``
    (read without consuming).  Members a bundling app still buffers
    sit behind the spawn cursor and in no task, so each app is flushed
    first: its partial bundle becomes a (smaller) queued task the
    snapshot owns.
    """
    tasks: List[TaskSnapshot] = []
    for engine in worker.engines:
        engine.app.spawn_flush()
        for t in list(engine.q_task._q):
            tasks.append(snapshot_task(t))
        # B_task and T_task entries: saved with pulls so they re-pull.
        for t in engine.b_task.get_batch(limit=10**9):
            tasks.append(snapshot_task(t))
            engine.b_task.put(t)  # non-destructive round-trip
        with engine.t_task._lock:
            for entry in engine.t_task._entries.values():
                tasks.append(snapshot_task(entry.task))
    for file_tasks in _peek_files(worker.l_file):
        tasks.extend(snapshot_task(t) for t in file_tasks)
    return WorkerSnapshot(
        spawn_cursor=worker.spawn_cursor(),
        tasks=tasks,
        outputs=worker.outputs(),
    )


def restore_worker(worker, snap: WorkerSnapshot) -> None:
    """Seed a freshly built worker from its snapshot.

    The cache restarts cold and every restored task re-requests its
    pulls (they were snapshotted as pull sets); outputs are replaced —
    not appended — so re-emission after a rollback cannot duplicate
    records from an earlier epoch.
    """
    worker.set_spawn_cursor(snap.spawn_cursor)
    worker.set_outputs(list(snap.outputs))
    for i, tsnap in enumerate(snap.tasks):
        engine = worker.engines[i % len(worker.engines)]
        engine.add_task(restore_task(tsnap))


def _peek_files(l_file) -> List[List[Task]]:
    """Read every spilled batch without consuming it."""
    from .containers import deserialize_tasks

    out: List[List[Task]] = []
    with l_file._lock:
        paths = [p for p, _c in l_file._files]
    for p in paths:
        with open(p, "rb") as f:
            out.append(deserialize_tasks(f.read()))
    return out
