"""Worker-side aggregation service (paper §IV, Aggregator).

Each worker holds a *local partial*; at every sweep the master sends
each worker the global value folded so far and takes its partial back
(the paper's aggregator threads synchronizing at a fixed frequency), so
a worker sees the other workers' partials of sweep *k* from sweep
*k + 1* on.  Tasks read :meth:`AggregatorService.view` — the last synced
global with the worker's own partials folded in — which for monotone
aggregates (current maximum clique) is the freshest available pruning
bound, and never drops back when a partial is taken.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from .api import Aggregator

__all__ = ["AggregatorService", "GlobalAggregator"]


class AggregatorService:
    """One per worker; thread-safe."""

    def __init__(self, aggregator: Optional[Aggregator]) -> None:
        self._agg = aggregator
        self._lock = threading.Lock()
        self._local = aggregator.identity() if aggregator else None
        self._global = aggregator.identity() if aggregator else None

    def aggregate(self, value: Any) -> None:
        if self._agg is None:
            raise RuntimeError(
                "aggregate() called but the app's make_aggregator() returned None"
            )
        with self._lock:
            self._local = self._agg.combine(self._local, value)

    def take_partial(self) -> Any:
        """Master hook: swap the local partial out (reset to identity);
        it stays in :meth:`view` through the worker's copy of the global."""
        if self._agg is None:
            return None
        with self._lock:
            partial, self._local = self._local, self._agg.identity()
            self._global = self._agg.combine(self._global, partial)
            return partial

    def publish_global(self, value: Any) -> None:
        if self._agg is None:
            return
        with self._lock:
            self._global = value

    def view(self) -> Any:
        """Global-so-far combined with the local residue."""
        if self._agg is None:
            return None
        with self._lock:
            return self._agg.combine(self._global, self._local)


class GlobalAggregator:
    """Master-side fold of worker partials."""

    def __init__(self, aggregator: Optional[Aggregator]) -> None:
        self._agg = aggregator
        self._value = aggregator.identity() if aggregator else None

    def fold(self, partial: Any) -> None:
        if self._agg is not None:
            self._value = self._agg.combine(self._value, partial)

    @property
    def value(self) -> Any:
        return self._value

    def set_value(self, value: Any) -> None:
        """Checkpoint-restore hook."""
        self._value = value

    def reset(self) -> None:
        """Back to the identity: a cold start, or a rollback to no barrier."""
        self._value = self._agg.identity() if self._agg is not None else None
