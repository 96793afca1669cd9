"""The task-lifecycle state machine.

Every task on a worker moves through::

    spawned ──► queued ──► computing ──► finished
                  ▲          │   ▲ │
     (refill/    │           │   │ └──► parked ──► ready ─┐
      adopt)     │           ▼   └────────────────────────┘
    spilled ◄────┴──────── yielded

The checker validates every transition and every ownership handoff:

* a task is owned by exactly one comper at a time; only the owner may
  start, park or finish it;
* a task id is minted by the *parking* comper (so arrivals route back to
  the engine holding the pending entry) and must be invalidated (-1)
  at yield and before any serialization — a task entering ``Q_task``,
  a spill batch, or an adopted (refilled/stolen) batch with a live id
  is exactly the misrouting bug class this checker exists to catch;
* spill and adoption are the only ownership handoffs, and they only
  happen from/into the ``queued`` state.

Violations raise :class:`~repro.core.errors.ProtocolViolation`
immediately, aborting the job with the offending task attached.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

from ..core.api import Task
from ..core.containers import comper_of_task_id
from ..core.errors import ProtocolViolation

__all__ = ["TaskState", "TaskLifecycleChecker"]


class TaskState:
    """Lifecycle states (spawned/finished/spilled are untracked ends)."""

    QUEUED = "queued"
    COMPUTING = "computing"
    PARKED = "parked"
    READY = "ready"
    YIELDED = "yielded"


class _Entry:
    __slots__ = ("task", "state", "owner")

    def __init__(self, task: Task, state: str, owner: int) -> None:
        self.task = task  # strong ref: keeps id(task) stable while tracked
        self.state = state
        self.owner = owner


class TaskLifecycleChecker:
    """Validates task transitions and ownership on one worker.

    Thread-safe: hooks are called from comper threads and from the
    comm/GC service thread (``on_ready`` via the arrival path).
    """

    def __init__(self, worker_id: int, compers_per_worker: int) -> None:
        self.worker_id = worker_id
        self._comper_lo = worker_id * compers_per_worker
        self._comper_hi = self._comper_lo + compers_per_worker
        self._lock = threading.Lock()
        self._entries: Dict[int, _Entry] = {}
        self._transitions = 0

    # -- internals ---------------------------------------------------------

    def _fail(self, message: str, task: Optional[Task] = None) -> None:
        task_id = task.task_id if task is not None else -1
        raise ProtocolViolation("task-lifecycle", message, task_id=task_id)

    def _expect(self, task: Task, hook: str, allowed: Sequence[str]) -> _Entry:
        """Fetch the entry for ``task`` and assert its current state."""
        entry = self._entries.get(id(task))
        state = entry.state if entry is not None else None
        if state not in allowed:
            self._fail(
                f"{hook}: task in state {state!r}, expected one of {list(allowed)}",
                task,
            )
        return entry

    def _own_comper(self, comper_id: int, hook: str) -> None:
        if not self._comper_lo <= comper_id < self._comper_hi:
            self._fail(
                f"{hook}: comper {comper_id} does not belong to "
                f"worker {self.worker_id}"
            )

    # -- hooks (called by ComperEngine) -------------------------------------

    def on_queued(self, task: Task, comper_id: int) -> None:
        """A task enters ``Q_task``: a fresh spawn or a yielded re-queue."""
        self._own_comper(comper_id, "on_queued")
        with self._lock:
            entry = self._entries.get(id(task))
            if entry is not None and entry.state != TaskState.YIELDED:
                self._fail(
                    f"on_queued: task re-queued from state {entry.state!r} "
                    f"(only yielded tasks may re-enter Q_task)",
                    task,
                )
            if entry is not None and entry.owner != comper_id:
                self._fail(
                    f"on_queued: yielded task owned by comper {entry.owner} "
                    f"re-queued by comper {comper_id}",
                    task,
                )
            if task.task_id != -1:
                self._fail(
                    "on_queued: task entered Q_task with a live task id — "
                    "ids must be invalidated at yield so a spill/steal "
                    "cannot carry them to a different owner",
                    task,
                )
            self._entries[id(task)] = _Entry(task, TaskState.QUEUED, comper_id)
            self._transitions += 1

    def on_spilled(self, batch: Sequence[Task], comper_id: int) -> None:
        """A ``Q_task`` overflow batch leaves memory for ``L_file``."""
        with self._lock:
            for task in batch:
                entry = self._expect(task, "on_spilled", (TaskState.QUEUED,))
                if entry.owner != comper_id:
                    self._fail(
                        f"on_spilled: comper {comper_id} spilled a task "
                        f"owned by comper {entry.owner}",
                        task,
                    )
                if task.task_id != -1:
                    self._fail(
                        "on_spilled: task spilled with a live task id — the "
                        "refilling comper (possibly on another worker) would "
                        "park it under an id that routes to this comper",
                        task,
                    )
                del self._entries[id(task)]
                self._transitions += 1

    def on_adopted(self, tasks: Sequence[Task], comper_id: int) -> None:
        """A batch from ``L_file`` (spilled or stolen) enters a queue."""
        self._own_comper(comper_id, "on_adopted")
        with self._lock:
            for task in tasks:
                if id(task) in self._entries:
                    self._fail(
                        "on_adopted: refilled task is already tracked "
                        "(same object adopted twice?)",
                        task,
                    )
                if task.task_id != -1:
                    self._fail(
                        "on_adopted: task arrived from L_file with a live "
                        "task id — serialize_tasks must strip ids so the "
                        "new owner mints a fresh one",
                        task,
                    )
                self._entries[id(task)] = _Entry(task, TaskState.QUEUED, comper_id)
                self._transitions += 1

    def on_started(self, task: Task, comper_id: int) -> None:
        """The owning comper popped the task from ``Q_task``."""
        with self._lock:
            entry = self._expect(task, "on_started", (TaskState.QUEUED,))
            if entry.owner != comper_id:
                self._fail(
                    f"on_started: comper {comper_id} popped a task owned "
                    f"by comper {entry.owner}",
                    task,
                )
            entry.state = TaskState.COMPUTING
            self._transitions += 1

    def on_parked(self, task: Task, comper_id: int) -> None:
        """The task enters ``T_task`` to wait for remote vertices."""
        with self._lock:
            entry = self._expect(task, "on_parked", (TaskState.COMPUTING,))
            if entry.owner != comper_id:
                self._fail(
                    f"on_parked: comper {comper_id} parked a task owned "
                    f"by comper {entry.owner}",
                    task,
                )
            if task.task_id == -1:
                self._fail("on_parked: task parked without a task id", task)
            minted_by = comper_of_task_id(task.task_id)
            if minted_by != comper_id:
                self._fail(
                    f"on_parked: task id minted by comper {minted_by} but "
                    f"parked on comper {comper_id} — arrivals will be "
                    f"routed to the wrong engine",
                    task,
                )
            entry.state = TaskState.PARKED
            self._transitions += 1

    def on_ready(self, task: Task) -> None:
        """All requested vertices arrived; the task moves to ``B_task``."""
        with self._lock:
            entry = self._expect(task, "on_ready", (TaskState.PARKED,))
            entry.state = TaskState.READY
            self._transitions += 1

    def on_resumed(self, task: Task, comper_id: int) -> None:
        """The owner took the ready task out of ``B_task`` to compute."""
        with self._lock:
            entry = self._expect(task, "on_resumed", (TaskState.READY,))
            if entry.owner != comper_id:
                self._fail(
                    f"on_resumed: comper {comper_id} resumed a task owned "
                    f"by comper {entry.owner}",
                    task,
                )
            entry.state = TaskState.COMPUTING
            self._transitions += 1

    def on_yielded(self, task: Task, comper_id: int) -> None:
        """The task hit the inline-iteration limit and leaves the comper."""
        with self._lock:
            entry = self._expect(task, "on_yielded", (TaskState.COMPUTING,))
            if entry.owner != comper_id:
                self._fail(
                    f"on_yielded: comper {comper_id} yielded a task owned "
                    f"by comper {entry.owner}",
                    task,
                )
            if task.task_id != -1:
                self._fail(
                    "on_yielded: task id not invalidated at yield — a stale "
                    "id survives re-queue/spill/steal and misroutes the "
                    "next arrival",
                    task,
                )
            if (task.pulls_in_flight or task.remote_in_flight
                    or task.views_in_flight):
                self._fail(
                    "on_yielded: task yielded with pulls still in flight "
                    "(cache locks would leak, and the remote list is only "
                    "valid on the worker that parked the task)",
                    task,
                )
            entry.state = TaskState.YIELDED
            self._transitions += 1

    def on_finished(self, task: Task, comper_id: int) -> None:
        with self._lock:
            entry = self._expect(task, "on_finished", (TaskState.COMPUTING,))
            if entry.owner != comper_id:
                self._fail(
                    f"on_finished: comper {comper_id} finished a task owned "
                    f"by comper {entry.owner}",
                    task,
                )
            del self._entries[id(task)]
            self._transitions += 1

    # -- end-of-job ---------------------------------------------------------

    @property
    def transitions(self) -> int:
        with self._lock:
            return self._transitions

    def live_tasks(self) -> int:
        with self._lock:
            return len(self._entries)

    def assert_quiescent(self) -> None:
        """At job termination no task may remain in any tracked state."""
        with self._lock:
            if self._entries:
                states = sorted(
                    f"{e.state}@comper{e.owner}" for e in self._entries.values()
                )
                raise ProtocolViolation(
                    "task-lifecycle",
                    f"worker {self.worker_id} terminated with "
                    f"{len(self._entries)} unfinished tracked tasks: {states}",
                )
