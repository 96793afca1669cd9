"""Fault tolerance via checkpointing (paper §V-B, "Fault Tolerance").

A checkpoint captures, per worker: the task-spawning cursor over
``T_local``, every task — in memory and spilled — as ``GTTASK1``
batches, the image spills and steals use (tasks in ``T_task`` and
``B_task`` keep their pull sets so they re-request vertices after
recovery — the cache restarts cold, exactly as the paper describes),
the outputs emitted so far, and the global aggregator value.

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
from typing import Any, List

from .api import Task
from .containers import deserialize_tasks, snapshot_tasks
from .errors import CheckpointError

__all__ = [
    "WorkerSnapshot",
    "JobCheckpoint",
    "snapshot_worker",
    "restore_worker",
]


@dataclass
class WorkerSnapshot:
    spawn_cursor: int
    #: The worker's tasks as ``GTTASK1`` payloads: the in-memory tasks
    #: first, then each spilled ``L_file`` batch as its file's bytes.
    tasks: List[bytes] = field(default_factory=list)
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
        except Exception as exc:
            # Besides OSError, unpickling raises whatever type matches
            # where the bytes go wrong: EOFError on an empty or cut
            # shard, AttributeError for a class that no longer exists
            # (a shard from before task images were GTTASK1), ...
            raise CheckpointError(
                f"cannot read checkpoint {path}: {exc!r}"
            ) from exc
        if not isinstance(ckpt, cls):
            raise CheckpointError(f"{path} does not contain a JobCheckpoint")
        return ckpt


def snapshot_worker(worker) -> WorkerSnapshot:
    """Capture one (quiescent) worker's tasks, cursor and outputs.

    The in-memory tasks become one ``GTTASK1`` payload, per comper in
    container order: ``Q_task`` (peeked), ``B_task`` (a non-destructive
    ``get_batch``/``put`` round-trip that preserves order) and
    ``T_task`` (pulls in flight are kept, so the task re-requests them
    on restore).  The spilled batch files of ``L_file`` are already
    ``GTTASK1`` payloads and are copied as bytes, without consuming
    them.  Members a bundling app still buffers sit behind the spawn
    cursor and in no task, so each app is flushed first: its partial
    bundle becomes a (smaller) queued task the snapshot owns.
    """
    tasks: List[Task] = []
    for engine in worker.engines:
        engine.app.spawn_flush()
        tasks.extend(engine.q_task._q)
        ready = engine.b_task.get_batch(limit=10**9)
        for t in ready:
            engine.b_task.put(t)  # non-destructive round-trip
        tasks.extend(ready)
        with engine.t_task._lock:
            tasks.extend(e.task for e in engine.t_task._entries.values())
    with worker.l_file._lock:
        paths = [p for p, _count in worker.l_file._files]
    return WorkerSnapshot(
        spawn_cursor=worker.spawn_cursor(),
        tasks=[snapshot_tasks(tasks)] + [Path(p).read_bytes() for p in paths],
        outputs=worker.outputs(),
    )


def restore_worker(worker, snap: WorkerSnapshot) -> None:
    """Seed a freshly built worker from its snapshot.

    The cache restarts cold and every restored task re-requests its
    pulls; outputs are replaced — not appended — so re-emission after a
    rollback cannot duplicate records from an earlier epoch.  Tasks are
    dealt round-robin over the compers in snapshot order.
    """
    worker.set_spawn_cursor(snap.spawn_cursor)
    worker.set_outputs(list(snap.outputs))
    engines = worker.engines
    i = 0
    for payload in snap.tasks:
        for task in deserialize_tasks(payload):
            engines[i % len(engines)].add_task(task)
            i += 1
