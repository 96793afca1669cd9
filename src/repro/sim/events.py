"""Deterministically-ordered event queue for the discrete-event runtime."""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

__all__ = ["EventQueue"]


class EventQueue:
    """A min-heap of ``(time, tiebreak_seq, payload)`` events.

    The monotone sequence number makes pops total-ordered even when two
    events share a timestamp, so a simulation's *schedule* is a pure
    function of the costs fed into it.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0
        self._popped = 0

    def push(self, time: float, payload: Any) -> None:
        if time < 0:
            raise ValueError(f"event time must be >= 0, got {time}")
        heapq.heappush(self._heap, (time, self._seq, payload))
        self._seq += 1

    def pop(self) -> Tuple[float, Any]:
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        time, _seq, payload = heapq.heappop(self._heap)
        self._popped += 1
        return time, payload

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        return self._popped
