"""Instrumentation counters.

Every component increments a shared :class:`MetricsRegistry` so that the
benchmarks can report the paper's quantities: messages and bytes on the
wire, cache hits / misses / evictions / duplicate-request suppressions,
task spills and refills, steal batches, per-comper busy vs idle rounds,
and estimated peak memory per worker (modeled C++-footprint bytes, to
mirror the paper's "GB per machine" columns).
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

__all__ = [
    "MetricsRegistry",
    "WorkerMemoryModel",
    "CacheStats",
    "ControlPlaneStats",
    "WorkerMetrics",
    "MetricsAccessors",
]


class MetricsRegistry:
    """A thread-safe bag of named counters and gauges."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = defaultdict(float)
        self._maxima: Dict[str, float] = defaultdict(float)

    # -- counters -------------------------------------------------------

    def add(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counters[name] += amount

    def get(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    # -- high-water marks ------------------------------------------------

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            if value > self._maxima[name]:
                self._maxima[name] = value

    def get_max(self, name: str) -> float:
        with self._lock:
            return self._maxima.get(name, 0.0)

    # -- export -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            out = dict(self._counters)
            out.update({f"max:{k}": v for k, v in self._maxima.items()})
            return out

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, float]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict.

        Registries hold a lock, so they cannot cross process boundaries;
        worker processes ship their snapshot and the parent reconstructs
        a registry here to feed :meth:`merge_from`.
        """
        reg = cls()
        for k, v in snapshot.items():
            if k.startswith("max:"):
                reg._maxima[k[len("max:"):]] = v
            else:
                reg._counters[k] = v
        return reg

    def merge_from(self, other: "MetricsRegistry") -> None:
        snap = other.snapshot()
        with self._lock:
            for k, v in snap.items():
                if k.startswith("max:"):
                    key = k[len("max:"):]
                    if v > self._maxima[key]:
                        self._maxima[key] = v
                else:
                    self._counters[k] += v


@dataclass(frozen=True)
class CacheStats:
    """Typed view of the vertex-cache counters in a metrics snapshot."""

    hits: int
    misses_first: int
    misses_duplicate: int
    responses: int
    evictions: int


@dataclass(frozen=True)
class ControlPlaneStats:
    """Typed view of the control-plane counters in a metrics snapshot.

    ``master_sweep_s`` is the master's time inside sync sweeps;
    ``control_idle_s`` its time blocked waiting for a wake between
    sweeps.  ``steal_plan_skipped`` counts the memoized steal-plan
    rounds skipped because no workload estimate changed.
    """

    steal_plan_skipped: int
    master_sweep_s: float
    control_idle_s: float


@dataclass(frozen=True)
class WorkerMetrics:
    """Typed view of one worker's slice of a metrics snapshot."""

    worker_id: int
    peak_memory_bytes: float
    #: Every metric keyed to this worker, with the worker prefix removed.
    raw: Dict[str, float]


class MetricsAccessors:
    """Typed accessors over a ``metrics`` snapshot dict.

    Mixed into :class:`~repro.core.job.JobResult` and
    :class:`~repro.sim.SimJobResult` so benchmarks read
    ``result.cache_stats.evictions`` or
    ``result.worker_metrics(0).peak_memory_bytes`` instead of
    string-poking ``"max:worker0:peak_memory_bytes"`` keys.
    """

    metrics: Dict[str, float]

    @property
    def cache_stats(self) -> CacheStats:
        m = self.metrics
        return CacheStats(
            hits=int(m.get("cache:hits", 0)),
            misses_first=int(m.get("cache:miss_first", 0)),
            misses_duplicate=int(m.get("cache:miss_duplicate", 0)),
            responses=int(m.get("cache:responses", 0)),
            evictions=int(m.get("cache:evictions", 0)),
        )

    @property
    def control_plane_stats(self) -> ControlPlaneStats:
        m = self.metrics
        return ControlPlaneStats(
            steal_plan_skipped=int(m.get("control:steal_plan_skipped", 0)),
            master_sweep_s=float(m.get("time:master_sweep_s", 0.0)),
            control_idle_s=float(m.get("time:control_idle_s", 0.0)),
        )

    def worker_metrics(self, worker_id: int) -> WorkerMetrics:
        prefix = f"worker{worker_id}:"
        raw: Dict[str, float] = {}
        for key, value in self.metrics.items():
            base = key[len("max:"):] if key.startswith("max:") else key
            if base.startswith(prefix):
                raw[base[len(prefix):]] = value
        return WorkerMetrics(
            worker_id=worker_id,
            peak_memory_bytes=self.metrics.get(
                f"max:{prefix}peak_memory_bytes", 0.0
            ),
            raw=raw,
        )


class WorkerMemoryModel:
    """Models a worker's resident memory the way the paper reports it.

    The paper's memory column is per-machine peak RSS of a C++ process.
    We track the modeled footprint of the pieces the paper discusses:
    local vertex table, remote vertex cache, and in-memory tasks
    (subgraphs).  Numbers are *modeled bytes* (8 B per adjacency entry
    plus per-object overheads), not Python ``sys.getsizeof`` — Python
    object overheads would drown the signal the experiments look for.
    """

    # Modeled per-process baseline.  The real system idles around tens
    # of MB, but at our down-scaled graph sizes that constant would
    # swamp the differences the experiments measure; 256 KB keeps the
    # relative shape (cache size, task pool, local table) visible.
    BASELINE_BYTES = 256 << 10

    def __init__(self, metrics: MetricsRegistry, worker_id: int) -> None:
        self._metrics = metrics
        self._worker_id = worker_id
        self._lock = threading.Lock()
        self._local_table = 0
        self._cache = 0
        self._tasks = 0

    def set_local_table(self, num_bytes: int) -> None:
        with self._lock:
            self._local_table = num_bytes
        self._commit()

    def add_local_table(self, num_bytes: int) -> None:
        """Lazy-loading path (``Worker.load_shared``): charge one faulted
        row at its trimmed size."""
        with self._lock:
            self._local_table += num_bytes
        self._commit()

    def add_cache(self, num_bytes: int) -> None:
        with self._lock:
            self._cache += num_bytes
        self._commit()

    def add_tasks(self, num_bytes: int) -> None:
        with self._lock:
            self._tasks += num_bytes
        self._commit()

    def current(self) -> int:
        with self._lock:
            return (
                self.BASELINE_BYTES + self._local_table + self._cache + self._tasks
            )

    def _commit(self) -> None:
        with self._lock:
            local = self._local_table
            current = self.BASELINE_BYTES + local + self._cache + self._tasks
        # local_table_bytes is a runtime-equivalence invariant: once every
        # owned row is resident it must agree across eager (load_rows)
        # and lazy (load_shared) loading for the same app and graph.
        self._metrics.record_max(
            f"worker{self._worker_id}:local_table_bytes", local
        )
        self._metrics.record_max(
            f"worker{self._worker_id}:peak_memory_bytes", current
        )
        self._metrics.record_max("peak_memory_bytes", current)
