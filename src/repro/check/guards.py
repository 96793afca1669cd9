"""Single-writer / lock-order assertion layer.

The paper's argument for leaving ``Q_task`` and the GC cursor unlocked
is *single-writer discipline*: exactly one thread may ever mutate them.
These guards turn that argument into a checked invariant — a second
thread caught inside a guarded section while another is still there is a
concrete race witness, not a heuristic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ..core.containers import TaskQueue
from ..core.errors import ProtocolViolation

__all__ = ["SingleWriterGuard", "CheckedTaskQueue"]


class SingleWriterGuard:
    """Detects overlapping entries into a nominally single-writer section.

    Re-entrant for the owning thread (a comper's ``append`` during a
    spill re-enters through no guard, but apps may nest add_task calls).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._owner: int = 0  # thread ident currently inside, 0 = none
        self._depth = 0

    @contextmanager
    def entered(self):
        me = threading.get_ident()
        with self._lock:
            if self._owner not in (0, me):
                raise ProtocolViolation(
                    "single-writer",
                    f"concurrent mutation of {self.name}: thread {me} "
                    f"entered while thread {self._owner} is still inside",
                )
            self._owner = me
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    self._owner = 0


class CheckedTaskQueue(TaskQueue):
    """``Q_task`` with every mutation wrapped in a single-writer guard.

    Reads (``__len__``, ``memory_estimate``) stay unguarded: the memory
    gauge and the master legitimately sample them cross-thread.
    """

    def __init__(self, batch_size: int, name: str = "Q_task") -> None:
        super().__init__(batch_size)
        self.guard = SingleWriterGuard(name)

    def append(self, task):
        with self.guard.entered():
            return super().append(task)

    def prepend(self, tasks):
        with self.guard.entered():
            return super().prepend(tasks)

    def pop(self):
        with self.guard.entered():
            return super().pop()
