"""Discrete-event simulated runtime: the cluster the paper ran on, in virtual time.

Why this exists (DESIGN.md §2): the paper's headline results are about
*parallel wall-clock* on a 16-node × 16-core cluster.  CPython's GIL
makes real thread-parallel speedup unobservable, so the scaling
experiments run here instead: every comper, communication service, GC
and the master become *entities* on a virtual timeline.

* A comper entity executes its real ``engine.step()`` (actual mining on
  the actual graph); the step's **measured CPU time** becomes its
  virtual duration (scaled by ``MachineModel.cpu_speed``), plus any
  modeled disk time its spills/refills charged to the worker's cost
  meter.  Compers of the same worker are independent timelines — truly
  parallel cores, which is exactly what the GIL denies us natively.
* The transport runs in *timed* mode: a message is deliverable
  ``latency + bytes/bandwidth`` after it is sent, FIFO per destination
  link (``NetworkModel``, GigE-like defaults).
* Comm/GC entities wake periodically (and comm also at the next message
  arrival); the master entity syncs every
  ``config.aggregator_sync_period_s`` of virtual time.

The result is a :class:`SimJobResult` whose ``virtual_time_s`` is the
modeled job makespan — the quantity the paper's Tables III–V report —
while answers (clique, counts, outputs) are exact, because the real
algorithms really ran.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..core.config import DiskModel, GThinkerConfig
from ..core.errors import GThinkerError
from ..core.job import GraphSource, JobResult, _teardown, build_cluster
from ..core.metrics import MetricsAccessors
from ..core.runtime import Cluster
from .events import EventQueue

__all__ = ["SimJobResult", "SimulatedRuntime", "run_simulated_job"]

#: Scheduling granularity floors (virtual seconds).
_MIN_STEP = 2e-6
_IDLE_BACKOFF_START = 100e-6
_IDLE_BACKOFF_CAP = 5e-3
_COMM_PERIOD = 200e-6
_GC_PERIOD = 1e-3


@dataclass
class SimJobResult(MetricsAccessors):
    """A finished simulated job."""

    aggregate: Any
    outputs: List[Any]
    metrics: Dict[str, float]
    virtual_time_s: float
    wall_time_s: float
    events: int
    num_workers: int
    compers_per_worker: int
    #: Mean fraction of the makespan each simulated core spent computing
    #: (the paper's CPU-bound claim, measured).
    cpu_utilization: float = 0.0

    @property
    def peak_memory_bytes(self) -> float:
        return self.metrics.get("max:peak_memory_bytes", 0.0)

    @property
    def network_bytes(self) -> float:
        return self.metrics.get("net:bytes", 0.0)


class _Entity:
    """Base event-loop participant.

    Each entity has exactly one *canonical* pending event at any time
    (``_scheduled_for``).  Scheduling an earlier wake supersedes the
    later one — the stale heap entry is recognized and skipped on pop —
    so external wake-ups (message deliveries, ready tasks) never spawn
    parallel self-rescheduling chains.
    """

    __slots__ = ("runtime", "backoff", "_scheduled_for", "_busy_until")

    def __init__(self, runtime: "SimulatedRuntime") -> None:
        self.runtime = runtime
        self.backoff = _IDLE_BACKOFF_START
        self._scheduled_for = float("inf")
        # While an entity "occupies its core" until this time, external
        # wake-ups must not pull its next event earlier — otherwise a
        # simulated core could do more than one second of work per
        # virtual second.
        self._busy_until = 0.0

    def on_event(self, now: float) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _reschedule_busy(self, now: float, cost: float) -> None:
        self.backoff = _IDLE_BACKOFF_START
        self._busy_until = now + max(cost, _MIN_STEP)
        self.runtime.schedule(self._busy_until, self)

    def _reschedule_idle(self, now: float, hint: Optional[float] = None) -> None:
        wake = now + self.backoff
        self.backoff = min(self.backoff * 2, _IDLE_BACKOFF_CAP)
        if hint is not None:
            wake = min(wake, max(hint, now + _MIN_STEP))
        self.runtime.schedule(wake, self)


class _ComperEntity(_Entity):
    __slots__ = ("worker", "engine", "busy_virtual_s")

    def __init__(self, runtime, worker, engine) -> None:
        super().__init__(runtime)
        self.worker = worker
        self.engine = engine
        self.busy_virtual_s = 0.0

    def on_event(self, now: float) -> None:
        t0 = time.perf_counter()
        worked = self.engine.step()
        measured = time.perf_counter() - t0
        extra = self.worker.cost_meter.drain()
        if worked:
            cost = measured * self.runtime.cpu_speed + extra
            self.busy_virtual_s += max(cost, _MIN_STEP)
            self._reschedule_busy(now, cost)
        else:
            self._reschedule_idle(now)


class _CommEntity(_Entity):
    __slots__ = ("worker",)

    def __init__(self, runtime, worker) -> None:
        super().__init__(runtime)
        self.worker = worker

    def on_event(self, now: float) -> None:
        t0 = time.perf_counter()
        worked = self.worker.comm.step(now=now)
        measured = time.perf_counter() - t0
        extra = self.worker.cost_meter.drain()
        if worked:
            cost = measured * self.runtime.cpu_speed + extra
            self.backoff = _IDLE_BACKOFF_START
            self._busy_until = now + max(cost, _MIN_STEP)
            self.runtime.schedule(now + max(cost, _COMM_PERIOD), self)
            # Responses or stolen task batches may have unblocked tasks;
            # wake this worker's compers (no earlier than their own busy
            # horizons — schedule() clamps).
            for ce in self.runtime._comper_entities[self.worker.worker_id]:
                self.runtime.schedule(now + max(cost, _MIN_STEP), ce)
        else:
            hint = self.runtime.cluster.transport.next_delivery_time(
                self.worker.worker_id
            )
            self._reschedule_idle(now, hint=hint)


class _GcEntity(_Entity):
    __slots__ = ("worker",)

    def __init__(self, runtime, worker) -> None:
        super().__init__(runtime)
        self.worker = worker

    def on_event(self, now: float) -> None:
        t0 = time.perf_counter()
        worked = self.worker.gc_step()
        measured = time.perf_counter() - t0
        if worked:
            self._reschedule_busy(now, measured * self.runtime.cpu_speed)
        else:
            self.runtime.schedule(now + _GC_PERIOD, self)


class _MasterEntity(_Entity):
    __slots__ = ("period",)

    def __init__(self, runtime, period: float) -> None:
        super().__init__(runtime)
        self.period = max(period, 10 * _MIN_STEP)

    def on_event(self, now: float) -> None:
        if self.runtime.cluster.master.sync(now=now):
            self.runtime.finished_at = now
            return
        self.runtime.schedule(now + self.period, self)


class SimulatedRuntime:
    """Drives a cluster on a virtual clock."""

    def __init__(
        self,
        max_events: int = 50_000_000,
        max_virtual_time_s: float = 1e7,
    ) -> None:
        self.max_events = max_events
        self.max_virtual_time_s = max_virtual_time_s
        self.queue = EventQueue()
        self.cluster: Optional[Cluster] = None
        self.cpu_speed = 1.0
        self.finished_at: Optional[float] = None

    def schedule(self, when: float, entity: _Entity) -> None:
        """Schedule (or pull forward) an entity's canonical wake-up.

        Never earlier than the entity's busy horizon: a wake can shorten
        idle backoff, not compress modeled compute time.
        """
        when = max(when, entity._busy_until)
        if when >= entity._scheduled_for:
            return  # an earlier or equal wake is already pending
        entity._scheduled_for = when
        self.queue.push(when, entity)

    def run(self, cluster: Cluster) -> float:
        """Run to completion; returns the virtual makespan in seconds."""
        self.cluster = cluster
        cfg = cluster.config
        self.cpu_speed = cfg.machine.cpu_speed
        disk = DiskModel()

        self._comm_entities = {}
        self._comper_entities = {}
        for w in cluster.workers:
            # Charge modeled disk time for task spills/refills/steals.
            meter = w.cost_meter
            w.l_file.on_io = lambda nbytes, meter=meter: meter.add(disk.io_time(nbytes))
            comm = _CommEntity(self, w)
            self._comm_entities[w.worker_id] = comm
            self._comper_entities[w.worker_id] = [
                _ComperEntity(self, w, engine) for engine in w.engines
            ]
            self.schedule(0.0, comm)
            self.schedule(0.0, _GcEntity(self, w))
            for ce in self._comper_entities[w.worker_id]:
                self.schedule(0.0, ce)
        cluster.transport.deliver_hook = (
            lambda dst, available_at: self.schedule(
                available_at, self._comm_entities[dst]
            )
        )
        self.schedule(0.0, _MasterEntity(self, cfg.aggregator_sync_period_s))

        while self.finished_at is None:
            if len(self.queue) == 0:
                raise GThinkerError("DES event queue drained before job completion")
            now, entity = self.queue.pop()
            if now != entity._scheduled_for:
                continue  # superseded by an earlier wake; stale entry
            entity._scheduled_for = float("inf")
            if now > self.max_virtual_time_s:
                raise GThinkerError(
                    f"simulation exceeded {self.max_virtual_time_s} virtual seconds"
                )
            if self.queue.events_processed > self.max_events:
                raise GThinkerError(f"simulation exceeded {self.max_events} events")
            entity.on_event(now)
        return self.finished_at


def run_simulated_job(
    app_factory: Callable,
    graph: GraphSource,
    config: Optional[GThinkerConfig] = None,
) -> SimJobResult:
    """Run a G-thinker job on the simulated cluster.

    Same contract as :func:`repro.core.job.run_job` but time is virtual:
    ``num_workers`` machines with ``compers_per_worker`` cores each,
    connected by ``config.network`` and backed by a :class:`DiskModel`.
    """
    config = config or GThinkerConfig()
    cluster = build_cluster(app_factory, graph, config, timed_transport=True)
    sim = SimulatedRuntime()
    # Virtual durations come from measured step walls; collect garbage
    # first so a previous job's heap doesn't tax this one's measurements.
    gc.collect()
    wall0 = time.perf_counter()
    virtual = sim.run(cluster)
    wall = time.perf_counter() - wall0
    _teardown(cluster)
    comper_entities = [
        ce for group in sim._comper_entities.values() for ce in group
    ]
    utilization = 0.0
    if virtual > 0 and comper_entities:
        utilization = min(1.0, sum(ce.busy_virtual_s for ce in comper_entities)
                          / (virtual * len(comper_entities)))
    return SimJobResult(
        aggregate=cluster.master.global_aggregator.value,
        outputs=[rec for w in cluster.workers for rec in w.outputs()],
        metrics=cluster.metrics.snapshot(),
        virtual_time_s=virtual,
        wall_time_s=wall,
        events=sim.queue.events_processed,
        num_workers=config.num_workers,
        compers_per_worker=config.compers_per_worker,
        cpu_utilization=utilization,
    )
