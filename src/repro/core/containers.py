"""Task containers (paper §V-B, Fig. 7).

Each comper owns three in-memory containers:

* :class:`TaskQueue` (``Q_task``) — a deque touched only by its comper.
  Refill is triggered at ``|Q| <= C`` and tops the queue back up to
  ``2C``; capacity is ``3C``; overflow spills the *last* ``C`` tasks as
  one batch file (sequential IO).
* :class:`ReadyBuffer` (``B_task``) — a concurrent queue that the
  response-receiving path appends ready tasks to (the comper alone may
  touch ``Q_task``, so readiness notifications go through this buffer).
* :class:`PendingTable` (``T_task``) — pending tasks keyed by 64-bit
  task id (16-bit comper id ‖ 48-bit sequence number), each with
  ``(met, req)`` counters of arrived vs requested vertices.

Workers additionally share:

* :class:`TaskFileList` (``L_file``) — a concurrent list of spilled task
  batch files, shared by all compers of a machine; stolen task batches
  also land here.  Its directory (and, for an in-process job, the
  job's :class:`SpillRoot`) is made on the first spill, so a job that
  never spills never touches the filesystem.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import uuid
from collections import deque
from pathlib import Path
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..net import wire
from .api import Task, VertexView
from .metrics import MetricsRegistry

__all__ = [
    "make_task_id",
    "comper_of_task_id",
    "TaskQueue",
    "ReadyBuffer",
    "PendingTable",
    "PendingEntry",
    "SpillRoot",
    "TaskFileList",
    "snapshot_tasks",
    "serialize_tasks",
    "deserialize_tasks",
]

_SEQ_BITS = 48
_SEQ_MASK = (1 << _SEQ_BITS) - 1


def make_task_id(comper_id: int, seq: int) -> int:
    """Compose the paper's 64-bit task id: 16-bit comper ‖ 48-bit seq."""
    if not 0 <= comper_id < (1 << 16):
        raise ValueError(f"comper_id out of 16-bit range: {comper_id}")
    return (comper_id << _SEQ_BITS) | (seq & _SEQ_MASK)


def comper_of_task_id(task_id: int) -> int:
    """Recover the owning comper from a task id (used by the receiver)."""
    return task_id >> _SEQ_BITS


_TASK_MAGIC = b"GTTASK1\x00"

_CTX_NONE = 0
_CTX_INT = 1
_CTX_INT_TUPLE = 2
# Kind 3 held a pickled context and kind 4 a list of (id, row) members
# (a task's rows live in ``task.g``); both are retired, not reused.


def _encode_context(ctx: Any, chunks: List[bytes]) -> None:
    ints = wire.ints
    if ctx is None:
        chunks.append(ints(_CTX_NONE))
    elif type(ctx) is int:
        chunks.append(ints(_CTX_INT, ctx))
    elif type(ctx) is tuple and all(type(x) is int for x in ctx):
        chunks.append(ints(_CTX_INT_TUPLE, len(ctx)))
        chunks.append(np.asarray(ctx, dtype="<i8").tobytes())
    else:
        raise TypeError(
            f"a task context of type {type(ctx).__name__!r} has no "
            f"GTTASK1 image: a context is None, an int or a tuple of ints "
            f"(rows belong in task.g)"
        )


def _encode_task(task: Task, chunks: List[bytes]) -> None:
    pulls = task.all_pending_pulls()
    chunks.append(wire.ints(len(pulls)))
    chunks.append(np.asarray(pulls, dtype="<i8").tobytes())
    adj = task.g.adjacency()
    vids = sorted(adj)
    rows = [adj[v] for v in vids]
    wire.pack_rows(chunks, vids, [task.g.label(v) for v in vids],
                   list(map(len, rows)), np.concatenate(rows) if rows else rows)
    _encode_context(task.context, chunks)


def snapshot_tasks(tasks: Sequence[Task]) -> bytes:
    """Encode tasks as one ``GTTASK1`` payload, leaving them untouched.

    The checkpoint image: the tasks resume after the barrier, so their
    ids and remote lists stay.  A task's pulls are the union of its
    in-flight and requested ones (:meth:`Task.all_pending_pulls`), so a
    restored task re-requests every vertex it was waiting for.
    """
    chunks: List[bytes] = [_TASK_MAGIC, wire.ints(len(tasks))]
    for t in tasks:
        _encode_task(t, chunks)
    return b"".join(chunks)


def serialize_tasks(tasks: Sequence[Task]) -> bytes:
    """Encode a task batch for spilling or stealing.

    Task ids are invalidated first: an id encodes the comper that minted
    it, and a serialized batch may be refilled by *any* comper of this
    machine (shared ``L_file``) or shipped to another worker entirely
    (work stealing).  Were a stale id to survive, the next park would
    insert the task into the new owner's ``T_task`` while the response
    receiver routes the arrival by ``comper_of_task_id`` to the original
    engine.  Every park on a new owner must mint a fresh local id.
    The per-iteration remote list is dropped for the same reason: it is
    relative to the worker that parked the task.

    The encoding is the flat int64 frame format (``GTTASK1`` magic): a
    task's pending pulls are packed as a raw array, its subgraph as one
    rows block (:func:`repro.net.wire.pack_rows`), and the context as
    one of the kinds docs/API.md lists ("The task context"); any other
    context is a ``TypeError``.  A task with
    in-flight pulls raises ``ValueError``: the engine clears
    ``pulls_in_flight`` before a task re-enters ``Q_task``, so nothing
    that reaches a spill file or a steal batch carries any.
    """
    tasks = list(tasks)
    for t in tasks:
        t.task_id = -1
        t.remote_in_flight = ()
    if any(t.pulls_in_flight for t in tasks):
        raise ValueError("cannot serialize a task with in-flight pulls")
    return snapshot_tasks(tasks)


def _decode_context(cur: wire.Cursor) -> Any:
    kind = cur.read_int("task context kind")
    if kind == _CTX_NONE:
        return None
    if kind == _CTX_INT:
        return cur.read_int("int context")
    if kind == _CTX_INT_TUPLE:
        return tuple(cur.read_ints(cur.read_count("context tuple length"),
                                   "context tuple").tolist())
    raise wire.WireDecodeError(f"unknown task context kind {kind}")


def deserialize_tasks(payload: bytes) -> List[Task]:
    """Decode a ``GTTASK1`` payload; anything else is a ``WireDecodeError``.

    The payload comes off a spill file, out of a steal frame or out of
    a checkpoint, so every read goes through the bounds-checked
    :class:`repro.net.wire.Cursor`: a truncated or corrupt payload
    raises :class:`WireDecodeError`, never a raw numpy error or a
    silently short array.  A task's rows are read-only int64 slices of
    the one rows block it carries (:func:`repro.net.wire.read_rows`).
    """
    if payload[:8] != _TASK_MAGIC:
        raise wire.WireDecodeError(
            f"task payload does not start with the GTTASK1 magic "
            f"(got {payload[:8]!r})"
        )
    cur = wire.Cursor(payload, 8)
    tasks: List[Task] = []
    for _ in range(cur.read_count("task count")):
        task = Task()
        pulls = cur.read_ints(cur.read_count("pull count"), "pulls").tolist()
        task._pulls = pulls
        task._pull_set = set(pulls)
        vids, labels, rows, offsets = wire.read_rows(cur, "subgraph")
        bounds = offsets.tolist()
        for i, (v, label) in enumerate(zip(vids.tolist(), labels.tolist())):
            task.g.add_vertex(v, rows[bounds[i]:bounds[i + 1]], label)
        task.context = _decode_context(cur)
        tasks.append(task)
    return tasks


class TaskQueue:
    """``Q_task``: a bounded deque owned by exactly one comper.

    Only the owning comper mutates it, so no lock is needed (the paper
    makes the same single-writer argument).  ``append`` returns a spill
    batch when the queue is full; the comper writes it to ``L_file``.
    """

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.capacity = 3 * batch_size
        self._q: Deque[Task] = deque()
        # Owned-side memory gauge: maintained by the owning comper at
        # every mutation so other threads (the master's memory gauge)
        # never have to iterate the deque.  Queued tasks are not mutated,
        # so add-at-append / subtract-at-pop stays drift-free.
        self._mem_bytes = 0

    def __len__(self) -> int:
        return len(self._q)

    def memory_estimate(self) -> int:
        """Modeled bytes of the queued tasks (safe to read cross-thread)."""
        return max(0, self._mem_bytes)

    def needs_refill(self) -> bool:
        """Paper rule: refill when ``|Q_task| <= C``."""
        return len(self._q) <= self.batch_size

    def refill_room(self) -> int:
        """How many tasks a refill may add (to reach ``2C``)."""
        return max(0, 2 * self.batch_size - len(self._q))

    def append(self, task: Task) -> Optional[List[Task]]:
        """Append at the tail; if full, return the last ``C`` tasks to spill.

        After a spill the queue holds ``2C`` tasks and the new task is
        appended, giving ``2C + 1`` — exactly the paper's bookkeeping.
        """
        spill: Optional[List[Task]] = None
        if len(self._q) >= self.capacity:
            spill = [self._q.pop() for _ in range(self.batch_size)]
            spill.reverse()  # preserve original order inside the batch
            self._mem_bytes -= sum(t.memory_estimate_bytes() for t in spill)
        self._q.append(task)
        self._mem_bytes += task.memory_estimate_bytes()
        return spill

    def prepend(self, tasks: Sequence[Task]) -> None:
        """Refill at the head (refilled tasks run before queued ones)."""
        for t in reversed(tasks):
            self._q.appendleft(t)
            self._mem_bytes += t.memory_estimate_bytes()

    def pop(self) -> Optional[Task]:
        """Fetch the next task from the head."""
        if self._q:
            task = self._q.popleft()
            self._mem_bytes -= task.memory_estimate_bytes()
            return task
        return None


class ReadyBuffer:
    """``B_task``: concurrent FIFO of tasks whose pulls all arrived."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._q: Deque[Task] = deque()

    def put(self, task: Task) -> None:
        with self._lock:
            self._q.append(task)

    def get(self) -> Optional[Task]:
        with self._lock:
            if self._q:
                return self._q.popleft()
            return None

    def get_batch(self, limit: int) -> List[Task]:
        out: List[Task] = []
        with self._lock:
            while self._q and len(out) < limit:
                out.append(self._q.popleft())
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._q)


class PendingEntry:
    """``T_task`` value: the parked task plus its ``(met, req)`` counters."""

    __slots__ = ("task", "met", "req")

    def __init__(self, task: Task, req: int) -> None:
        self.task = task
        self.req = req
        self.met = 0


class PendingTable:
    """``T_task``: pending tasks of one comper, updated by the receiver.

    The response-receiving path (a different thread in threaded mode)
    increments ``met`` and removes ready entries, so this table is
    locked.  Contention is low: one comper's entries are touched by one
    comper plus the receiving path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[int, PendingEntry] = {}

    def insert(self, task_id: int, task: Task, req: int) -> None:
        with self._lock:
            if task_id in self._entries:
                raise KeyError(f"duplicate pending task id {task_id:#x}")
            task.views_in_flight = {}
            self._entries[task_id] = PendingEntry(task, req=req)

    def notify_arrival(self, task_id: int,
                       views: Dict[int, VertexView]) -> Optional[Task]:
        """Hand a parked task the locked views of ``len(views)`` arrived
        pulls (a parking comper hands over all its cache hits in one
        call, the receiver one call per task and response batch); they
        join ``task.views_in_flight``.  If ``met == req`` remove and
        return the task."""
        with self._lock:
            entry = self._entries.get(task_id)
            if entry is None:
                raise KeyError(f"arrival for unknown pending task {task_id:#x}")
            entry.met += len(views)
            if entry.met > entry.req:
                raise ValueError(
                    f"task {task_id:#x} met {entry.met} > req {entry.req}"
                )
            entry.task.views_in_flight.update(views)
            if entry.met == entry.req:
                del self._entries[task_id]
                return entry.task
            return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class SpillRoot:
    """The directory a job's workers spill under, made on first use.

    With no ``path`` the first :meth:`path` call makes a private
    ``mkdtemp`` directory and :meth:`remove` deletes it; a caller's
    ``path`` is never removed.  ``root / name`` is the zero-argument
    callable :class:`TaskFileList` resolves on its first spill.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = Path(path) if path else None
        self._owned = path is None
        self._lock = threading.Lock()

    def path(self) -> Path:
        with self._lock:
            if self._path is None:
                self._path = Path(tempfile.mkdtemp(prefix="gthinker-spill-"))
            return self._path

    def __truediv__(self, name: str) -> Callable[[], Path]:
        return lambda: self.path() / name

    def remove(self) -> None:
        """Delete the directory iff this root made it."""
        with self._lock:
            path = self._path if self._owned else None
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)


class TaskFileList:
    """``L_file``: the machine-wide concurrent list of spilled batch files.

    Files are appended at the tail (spills, stolen batches) and consumed
    from the head (refills prioritize the earliest spilled work, the
    paper's rule for keeping disk-resident task volume minimal).
    ``spill_dir`` is a path or a zero-argument callable returning one;
    either way the directory is made when the first file is written.
    """

    def __init__(self, spill_dir: Union[Path, Callable[[], Path]],
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._spill_dir = spill_dir
        self._dir: Optional[Path] = None
        self._lock = threading.Lock()
        self._files: Deque[Tuple[Path, int]] = deque()  # (path, num_tasks)
        self._metrics = metrics or MetricsRegistry()
        # Optional hook charging modeled disk time per IO (set by the
        # DES runtime): called with the number of bytes read/written.
        self.on_io = None

    def _new_file(self, kind: str) -> Path:
        with self._lock:
            if self._dir is None:
                spill_dir = self._spill_dir
                self._dir = Path(spill_dir() if callable(spill_dir) else spill_dir)
                self._dir.mkdir(parents=True, exist_ok=True)
            return self._dir / f"{kind}-{uuid.uuid4().hex}.tasks"

    def spill(self, tasks: Sequence[Task]) -> Path:
        """Write a task batch to a new file and register it."""
        payload = serialize_tasks(tasks)
        path = self._new_file("batch")
        with open(path, "wb") as f:
            f.write(payload)
        with self._lock:
            self._files.append((path, len(tasks)))
        self._metrics.add("tasks:spilled", len(tasks))
        self._metrics.add("tasks:spill_bytes", len(payload))
        if self.on_io is not None:
            self.on_io(len(payload))
        return path

    def add_payload(self, payload: bytes, num_tasks: int) -> Path:
        """Register an already-serialized batch (stolen tasks)."""
        path = self._new_file("stolen")
        with open(path, "wb") as f:
            f.write(payload)
        with self._lock:
            self._files.append((path, num_tasks))
        self._metrics.add("tasks:stolen_in", num_tasks)
        if self.on_io is not None:
            self.on_io(len(payload))
        return path

    def take_file(self) -> Optional[List[Task]]:
        """Pop the head file, load and delete it; None when empty."""
        with self._lock:
            if not self._files:
                return None
            path, _count = self._files.popleft()
        with open(path, "rb") as f:
            payload = f.read()
        tasks = deserialize_tasks(payload)
        os.unlink(path)
        self._metrics.add("tasks:refilled_from_disk", len(tasks))
        if self.on_io is not None:
            self.on_io(len(payload))
        return tasks

    def take_payload(self) -> Optional[Tuple[bytes, int]]:
        """Pop the head file as raw bytes (work-stealing source path)."""
        with self._lock:
            if not self._files:
                return None
            path, count = self._files.popleft()
        with open(path, "rb") as f:
            payload = f.read()
        os.unlink(path)
        self._metrics.add("tasks:stolen_out", count)
        return payload, count

    def __len__(self) -> int:
        with self._lock:
            return len(self._files)

    def num_tasks_on_disk(self) -> int:
        with self._lock:
            return sum(count for _p, count in self._files)

    def cleanup(self) -> None:
        """Delete any remaining files (job teardown)."""
        with self._lock:
            while self._files:
                path, _ = self._files.popleft()
                try:
                    os.unlink(path)
                except OSError:
                    pass
