"""The worker: one simulated machine (paper Fig. 3, left side).

A worker owns:

* the local vertex table ``T_local`` (its hash partition of the graph,
  trimmed at load time if the app provides a Trimmer) — an immutable
  :class:`LocalTable` that a Session's later jobs attach again;
* the shared remote-vertex cache ``T_cache``;
* the spilled-task file list ``L_file`` and its spill directory;
* one :class:`~repro.core.comper.ComperEngine` per mining thread;
* the :class:`~repro.core.comm.CommService` and the GC step;
* the worker-side aggregator service and the output sink.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..graph import kernels
from ..graph.partition import hash_partition, hash_partition_array
from .aggregator import AggregatorService
from .api import Comper, Task, Trimmer, VertexView
from .comm import CommService
from .comper import ComperEngine
from .config import GThinkerConfig
from .containers import SpillRoot, TaskFileList, serialize_tasks
from .metrics import MetricsRegistry, WorkerMemoryModel
from .vertex_cache import VertexCache

__all__ = [
    "Worker", "ENGINE_BURST_STEPS", "LocalTable",
    "LocalTableMemo", "build_local_table",
]

#: Engine rounds a worker runs between two comm steps (and, on a node,
#: between control-plane polls).  Bounds the extra latency of answering
#: a sync or serving a pull at one burst (the burst ends early when no
#: engine has work); big enough that the per-round flush/poll overhead
#: is noise next to the mining work.
ENGINE_BURST_STEPS = 32


@dataclass(frozen=True, eq=False)
class LocalTable:
    """One worker's ``T_local``, immutable once built.

    ``views`` maps each owned vertex id to its :class:`VertexView`
    (trimmed, read-only int64 adjacency), ``spawn_order`` is the owned
    ids ascending (the spawn cursor walks it) and ``nbytes`` the
    modeled footprint the memory gauge charges.  Nothing writes to a
    table after :func:`build_local_table` returns, so any number of
    workers — of one job or of concurrent jobs — may attach the same one.
    """

    views: Dict[int, VertexView]
    spawn_order: Tuple[int, ...]
    nbytes: int


def build_local_table(rows, trimmer: Optional[Trimmer]) -> LocalTable:
    """Build a :class:`LocalTable` from ``(v, label, adj)`` rows."""
    make_view = VertexView._make  # tuple.__new__: no per-row python frame
    views: Dict[int, VertexView] = {}
    for v, label, adj in rows:
        arr = kernels.as_ids_array(adj)
        if trimmer is not None:
            arr = kernels.as_ids_array(trimmer.trim(v, label, arr))
        if arr.flags.writeable:
            arr.flags.writeable = False
        v = int(v)
        views[v] = make_view((v, int(label), arr))
    return LocalTable(
        views=views,
        spawn_order=tuple(sorted(views)),
        nbytes=sum(24 + view.adj.nbytes for view in views.values()),
    )


class LocalTableMemo:
    """A Session's resident local tables: one per-worker list per key.

    The key is ``(num_workers, trimmer class)`` and exists only when the
    trimmer is None or its class declares :attr:`Trimmer.stateless`, so
    the keys are bounded by the worker counts and trimmer classes jobs
    use.  Entries are filled under the lock, the first write winning
    when two jobs built the same one; :meth:`close` drops them all and
    stops storing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: Optional[Dict[Hashable, List[LocalTable]]] = {}

    @staticmethod
    def key(trimmer: Optional[Trimmer], num_workers: int) -> Optional[Hashable]:
        """The memo key for these tables, or None if they must not be shared."""
        if trimmer is not None and not getattr(type(trimmer), "stateless", False):
            return None
        return (num_workers, type(trimmer))

    def get(self, key: Hashable) -> Optional[List[LocalTable]]:
        with self._lock:
            return None if self._tables is None else self._tables.get(key)

    def put(self, key: Hashable, tables: List[LocalTable]) -> None:
        with self._lock:
            if self._tables is not None:
                self._tables.setdefault(key, tables)

    def close(self) -> None:
        with self._lock:
            self._tables = None


class CostMeter:
    """Accumulates modeled extra costs (disk IO seconds) during a step.

    The DES runtime drains it after each entity step and adds the value
    to the entity's virtual duration; the real runtimes never read it.
    """

    __slots__ = ("_lock", "_seconds")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds = 0.0

    def add(self, seconds: float) -> None:
        with self._lock:
            self._seconds += seconds

    def drain(self) -> float:
        with self._lock:
            out, self._seconds = self._seconds, 0.0
            return out


class _CollectorEngine:
    """An engine stand-in that collects spawned tasks into a list.

    Used by work stealing: the victim spawns a batch of fresh tasks to
    ship away, so ``add_task`` must not land in any local ``Q_task``.
    """

    def __init__(self, worker: "Worker") -> None:
        self.worker = worker
        self.collected: List[Task] = []

    @property
    def config(self) -> GThinkerConfig:
        return self.worker.config

    def add_task(self, task: Task) -> None:
        self.worker.born_for_steals += 1  # before the payload ships
        self.collected.append(task)

    def aggregate(self, value) -> None:
        self.worker.aggregator.aggregate(value)

    def aggregator_view(self):
        return self.worker.aggregator.view()

    def output(self, record) -> None:
        self.worker.add_output(record)


class Worker:
    """One machine of the cluster."""

    def __init__(
        self,
        worker_id: int,
        num_workers: int,
        config: GThinkerConfig,
        app_factory: Callable[[], Comper],
        transport,
        metrics: MetricsRegistry,
        spill_dir: Union[Path, SpillRoot],
    ) -> None:
        self.worker_id = worker_id
        self.num_workers = num_workers
        self.config = config
        self.transport = transport
        self.metrics = metrics
        self.memory = WorkerMemoryModel(metrics, worker_id)

        #: The attached :class:`LocalTable` (None on the shared-CSR path).
        self.table: Optional[LocalTable] = None
        #: ``T_local``: vertex id -> its :class:`VertexView` (id, label,
        #: sorted read-only int64 adj ndarray), stored ready-made so a
        #: local frontier is a plain lookup per pull.  After
        #: :meth:`attach_table` it is the table's (read-only) dict; on
        #: the shared-CSR path a per-worker dict of rows faulted in as
        #: zero-copy views into the shared ``indices`` block.
        self._local: Dict[int, VertexView] = {}
        #: Shared-memory graph backing (process runtime): rows are
        #: materialized lazily from here into ``_local`` on first touch.
        self._shared = None
        #: Owned vertex id -> SharedCSR row position (lazy-fault index).
        self._shared_pos: Dict[int, int] = {}
        #: The table whose keys are exactly the vertex ids this worker
        #: owns: ``_local`` after :meth:`attach_table`, ``_shared_pos``
        #: after :meth:`load_shared`.  Ownership is membership here; the
        #: hash is evaluated only to route a cache miss (``CommService``).
        self._owned: Dict[int, Any] = self._local
        #: Bytes of lazily-faulted rows not yet folded into the memory
        #: model; committed by :meth:`update_memory_gauge`.
        self._lazy_local_bytes = 0
        self._spawn_order: Sequence[int] = ()
        self._spawn_next = 0
        self._spawn_lock = threading.Lock()

        # Protocol checking (repro.check) is opt-in; when off, checker
        # stays None and the plain cache/containers are used, so the hot
        # path pays nothing.  Imported lazily to keep core free of the
        # check package unless enabled.
        self.checker = None
        cache_cls = VertexCache
        if config.check_enabled:
            from ..check import CheckedVertexCache, TaskLifecycleChecker

            self.checker = TaskLifecycleChecker(
                worker_id=worker_id,
                compers_per_worker=config.compers_per_worker,
            )
            cache_cls = CheckedVertexCache
        self.cache = cache_cls(
            num_buckets=config.cache_buckets,
            capacity=config.cache_capacity,
            overflow_alpha=config.cache_overflow_alpha,
            count_delta=config.cache_count_delta,
            metrics=metrics,
            memory_model=self.memory,
        )
        self.l_file = TaskFileList(spill_dir / f"worker-{worker_id}", metrics=metrics)
        self.comm = CommService(self)

        prototype = app_factory()
        self.aggregator = AggregatorService(prototype.make_aggregator())
        self.trimmer = prototype.make_trimmer()

        self.engines: List[ComperEngine] = []
        base = worker_id * config.compers_per_worker
        for i in range(config.compers_per_worker):
            app = app_factory()
            self.engines.append(ComperEngine(base + i, self, app))
        self._steal_app = app_factory()

        self._outputs: List[Any] = []
        self._outputs_lock = threading.Lock()
        #: Tasks the steal collector created; the control thread writes it.
        self.born_for_steals = 0
        #: Counter totals last published as metrics.
        self._published: Dict[str, int] = {}
        self.cost_meter = CostMeter()
        #: Task-pool bytes last folded into the memory model.
        self._last_task_bytes = 0

    # -- graph loading ------------------------------------------------------

    def load_rows(self, rows) -> None:
        """Build ``T_local`` from ``(v, label, adj)`` rows (trimmed) and
        attach it."""
        self.attach_table(build_local_table(rows, self.trimmer))

    def attach_table(self, table: LocalTable) -> None:
        """Use ``table`` as ``T_local``; it is read, never written."""
        self.table = table
        self._local = self._owned = table.views
        self._spawn_order = table.spawn_order
        self.memory.set_local_table(table.nbytes)

    def load_shared(self, csr) -> None:
        """Attach a :class:`~repro.graph.csr.SharedCSR` as ``T_local``.

        The process runtime's zero-copy load path: the adjacency arrays
        stay in the parent's shared-memory segments; this worker only
        records which vertex ids hash to it.  Rows are converted to the
        ``(label, adj)`` tuple format (and trimmed) lazily on first
        access, memoized in ``_local`` — so over a job the worker touches
        at most its own partition, never the whole graph.  Untrimmed rows
        stay zero-copy views into the shared ``indices`` array.

        The local-table memory gauge is charged lazily as rows fault in
        (at their *trimmed* size, in :meth:`_entry`) so it reports the
        same bytes :meth:`load_rows` charges eagerly — charging untrimmed
        CSR degrees here made ``peak_memory_bytes`` disagree between the
        process and serial/threaded runtimes for any app with a Trimmer.
        """
        owners = hash_partition_array(csr.vertex_ids, self.num_workers)
        mask = owners == self.worker_id
        owned = csr.vertex_ids[mask].tolist()
        self._shared = csr
        # Owned id -> CSR row position, precomputed in one vectorized
        # pass: faulting a row then costs a dict lookup instead of a
        # searchsorted per vertex.
        self._shared_pos = dict(zip(owned, np.nonzero(mask)[0].tolist()))
        self.table = None
        self._local = {}  # this worker's own: _entry faults rows into it
        self._owned = self._shared_pos
        self._spawn_order = owned  # vertex_ids are sorted ascending
        self.memory.set_local_table(0)

    # -- vertex access ----------------------------------------------------------

    def owner_of(self, v: int) -> int:
        """The worker ``v`` hashes to (miss routing; not the pull path)."""
        return hash_partition(v, self.num_workers)

    def owns_vertex(self, v: int) -> bool:
        return v in self._owned

    def remote_of(self, pulls: Sequence[int]) -> List[int]:
        """The pulls this worker does not own, in pull order.

        One membership probe per pull — no hash.  An id absent from the
        whole graph counts as remote here and fails when its miss is
        routed (or, on one worker, when the frontier is built).
        """
        if self.num_workers == 1:
            return []
        owned = self._owned
        return [v for v in pulls if v not in owned]

    def _entry(self, v: int) -> Optional[VertexView]:
        """``T_local`` row for ``v``, faulting from the shared CSR.

        The faulted adjacency is the SharedCSR row *view* (or a slice of
        it after Γ_>-style trimming) — still sharing the shm buffer.
        """
        entry = self._local.get(v)
        if entry is None:
            pos = self._shared_pos.get(v)
            if pos is None:
                return None
            label, adj = self._shared.entry_at(pos)
            if self.trimmer is not None:
                adj = kernels.as_ids_array(self.trimmer.trim(v, label, adj))
            entry = VertexView(v, label, adj)
            self._local[v] = entry
            # Gauge bytes accumulate locally and fold into the memory
            # model at the next sync (update_memory_gauge): the model
            # takes a lock and refreshes three high-water marks per
            # commit, far too heavy to pay per faulted row.
            self._lazy_local_bytes += 24 + adj.nbytes
        return entry

    def unknown_vertex_error(self, v: int) -> KeyError:
        return KeyError(
            f"vertex {v} hashes to worker {self.worker_id} but is not "
            f"in the local table (bad vertex id in a pull?)"
        )

    def local_view(self, v: int) -> Optional[VertexView]:
        """A view of a locally stored vertex, or None if not local."""
        view = self._entry(v)
        if view is None and self.owner_of(v) == self.worker_id:
            raise self.unknown_vertex_error(v)
        return view

    def local_views(self, pulls: Sequence[int]) -> List[VertexView]:
        """The frontier of an all-local iteration, in pull order.

        One lookup per pull in ``T_local``; a row not faulted in from
        the shared CSR yet (or an id that is in no table) takes the
        per-vertex path, which faults it or raises the contextual error.
        """
        local = self._local
        try:
            return [local[v] for v in pulls]
        except KeyError:
            return [self.local_view(v) for v in pulls]

    def local_entry(self, v: int) -> Tuple[int, np.ndarray]:
        """Serve a remote pull from ``T_local`` (raises on unknown ids)."""
        view = self._entry(v)
        if view is None:
            raise KeyError(
                f"worker {self.worker_id} asked to serve vertex {v} it does not own"
            )
        return view[1:]  # (label, adj)

    @property
    def num_local_vertices(self) -> int:
        return len(self._spawn_order)

    # -- task spawning --------------------------------------------------------------

    def spawn_into(self, engine: ComperEngine, room: int) -> int:
        """Spawn fresh tasks into ``engine``'s queue by advancing the
        shared "next" pointer over ``T_local`` (paper Fig. 7)."""
        spawned_from = 0
        exhausted = False
        while engine.q_task.refill_room() > 0 and spawned_from < 4 * room:
            with self._spawn_lock:
                if self._spawn_next >= len(self._spawn_order):
                    exhausted = True
                    break
                v = self._spawn_order[self._spawn_next]
                # Cleared before the cursor moves: a status that reads
                # the cursor exhausted then reads this flag after it.
                engine.spawn_flushed = False
                self._spawn_next += 1
            engine.app.task_spawn(self._entry(v))
            spawned_from += 1
        if exhausted and not engine.spawn_flushed:
            # Let bundling apps emit their final partial bundle, once per
            # comper that took from the cursor; flagged once it returned.
            engine.app.spawn_flush()
            engine.spawn_flushed = True
        return spawned_from

    def spawn_batch_payload(self, max_tasks: int) -> Optional[Tuple[bytes, int]]:
        """Produce a serialized batch of fresh tasks for work stealing."""
        collector = _CollectorEngine(self)
        self._steal_app.bind_engine(collector)
        while len(collector.collected) < max_tasks:
            with self._spawn_lock:
                if self._spawn_next >= len(self._spawn_order):
                    break
                v = self._spawn_order[self._spawn_next]
                self._spawn_next += 1
            self._steal_app.task_spawn(self._entry(v))
        # Bundling apps: the cursor is already past the members of the
        # partial bundle and no later payload is promised, so it ships
        # with this one (the batch may run one task over ``max_tasks``).
        self._steal_app.spawn_flush()
        if not collector.collected:
            return None
        return serialize_tasks(collector.collected), len(collector.collected)

    def unspawned_count(self) -> int:
        with self._spawn_lock:
            return len(self._spawn_order) - self._spawn_next

    def spawn_cursor(self) -> int:
        with self._spawn_lock:
            return self._spawn_next

    def set_spawn_cursor(self, value: int) -> None:
        """Checkpoint-restore hook."""
        with self._spawn_lock:
            self._spawn_next = value

    # -- outputs ------------------------------------------------------------------------

    def add_output(self, record: Any) -> None:
        with self._outputs_lock:
            self._outputs.append(record)

    def outputs(self) -> List[Any]:
        with self._outputs_lock:
            return list(self._outputs)

    def set_outputs(self, records: Sequence[Any]) -> None:
        with self._outputs_lock:
            self._outputs = list(records)

    # -- status ------------------------------------------------------------------------------

    def task_counts(self) -> Tuple[int, int]:
        """``(born, retired)`` over this worker's compers and steal
        collector: monotone, so any read order is sound for termination
        (DESIGN.md §13).  Every retired count is read before any born
        count: a task is born before it retires, so even while compers
        run ``retired <= born`` holds, and the master can treat the
        opposite as a counting bug."""
        engines = self.engines
        retired = sum(e.finished + e.yields for e in engines)
        return (self.born_for_steals + sum(e.born for e in engines), retired)

    def closed(self) -> bool:
        """The spawn cursor is exhausted and every comper that took from
        it has flushed: each vertex of this partition is in a born task
        or was pruned.  The cursor is read first, and once it is
        exhausted no comper takes again, so a flag read after it stays
        set: ``closed`` never goes back to False."""
        return (self.unspawned_count() == 0
                and all(e.spawn_flushed for e in self.engines))

    def engine_by_global_id(self, global_comper_id: int) -> ComperEngine:
        base = self.worker_id * self.config.compers_per_worker
        idx = global_comper_id - base
        if not 0 <= idx < len(self.engines):
            raise KeyError(
                f"comper {global_comper_id} does not belong to worker {self.worker_id}"
            )
        return self.engines[idx]

    def tasks_in_memory(self) -> int:
        return sum(len(e.q_task) + len(e.b_task) + len(e.t_task)
                   for e in self.engines)

    def drained(self) -> bool:
        """No task in memory or on disk, nothing unspawned, no pull queued."""
        return (
            self.tasks_in_memory() == 0
            and len(self.l_file) == 0
            and self.unspawned_count() == 0
            and self.comm.pending_outgoing() == 0
        )

    def gc_step(self) -> bool:
        """The GC thread's body: lazy eviction on overflow (paper §V-A)."""
        if self.cache.overflowed():
            evicted = self.cache.evict()
            return evicted > 0
        return False

    def step_round(
        self,
        max_engine_rounds: int = ENGINE_BURST_STEPS,
        on_engine_round: Optional[Callable[["Worker"], None]] = None,
    ) -> Tuple[bool, int]:
        """One scheduling round: a comm step, then a burst of engine rounds.

        An engine round steps every comper once and then the GC; the
        burst runs at most ``max_engine_rounds`` of them and ends on the
        first that makes no progress, so pull latency only grows while
        there is local work to overlap it with.  Bursting amortises the
        fixed cost of a flush and an inbox poll over many cheap task
        iterations and lets parked tasks' requests accumulate into
        fewer, larger batches (desirability 5).  With a budget of 0
        only the comm service steps: pulls keep being served and
        responses delivered, but no new work starts.

        ``on_engine_round(worker)`` runs after every engine round — GC
        and the failure injector keep per-round (not per-burst)
        granularity, because spill pressure must be relieved as it
        builds and injection triggers observe transient conditions
        (mid-spawn cursor, fresh spill) that can appear and clear
        within one burst.

        Returns ``(worked, engine_rounds_run)``.
        """
        worked = self.comm.step()
        rounds = 0
        while rounds < max_engine_rounds:
            stepped = False
            for engine in self.engines:
                stepped = engine.step() or stepped
            stepped = self.gc_step() or stepped
            rounds += 1
            if on_engine_round is not None:
                on_engine_round(self)
            if not stepped:
                break
            worked = True
        return worked, rounds

    def update_memory_gauge(self) -> None:
        """Refresh the modeled task-pool footprint (called at sync points)."""
        if self._lazy_local_bytes:
            self.memory.add_local_table(self._lazy_local_bytes)
            self._lazy_local_bytes = 0
        # Q_task maintains its own byte gauge on the owning comper's
        # side, so this cross-thread read never iterates the deque (a
        # concurrent mutation would make deque iteration raise).
        task_bytes = sum(e.q_task.memory_estimate() for e in self.engines)
        # B_task / T_task tasks are counted coarsely by count to avoid
        # locking every container for long; their subgraphs dominate via
        # the cache bytes anyway.
        pending = sum(e.pending_load() for e in self.engines)
        task_bytes += 128 * pending
        self.memory.add_tasks(task_bytes - self._last_task_bytes)
        self._last_task_bytes = task_bytes

    def remaining_workload_estimate(self) -> int:
        """Steal-planning signal: batches on disk + unspawned vertices."""
        return self.l_file.num_tasks_on_disk() + self.unspawned_count()

    def flush_for_status(self) -> None:
        """Make node-local counters exact before a status report.

        Called from the control-plane serve loop (the only
        cache-mutating thread) before every status/final report, so
        ``s_cache``, the cache, task and comm counter metrics, and the
        memory gauge are current whenever the master reads them.
        """
        self.cache.flush_local_counter()
        self.cache.commit_lock_metrics()
        self.commit_counters()
        self.update_memory_gauge()

    def commit_counters(self) -> None:
        """Publish the engines' task counters and the comm service's
        queued pulls, watermarked like the cache's, so each metric
        equals its total at job end (``tasks:created`` counts yields and
        restores, not steals)."""
        published, engines = self._published, self.engines
        for metric, total in (
                ("tasks:created", sum(e.born for e in engines)),
                ("tasks:finished", sum(e.finished for e in engines)),
                ("tasks:iterations", sum(e.iterations for e in engines)),
                ("comper:inline_yields", sum(e.yields for e in engines)),
                ("comm:requests_queued", self.comm.requests_queued)):
            delta = total - published.get(metric, 0)
            if delta:
                self.metrics.add(metric, delta)
                published[metric] = total

    def cleanup(self) -> None:
        """Job teardown: delete spill files and unhook the components.

        Engines, the comm service and the apps all point back at their
        worker; left in place those cycles keep a finished job's whole
        heap (cache, task pools, T_local views) alive until the next
        full garbage collection.  Outputs, the aggregator and the
        metrics stay readable.
        """
        self.l_file.cleanup()
        for engine in self.engines:
            engine.app.bind_engine(None)
            engine.worker = None
        self._steal_app.bind_engine(None)
        self.comm.worker = None
