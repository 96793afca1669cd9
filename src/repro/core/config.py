"""System configuration.

All of the paper's tunables live here with their paper defaults noted.
Sizes that assumed 64 GB Azure nodes are scaled down but keep the same
*ratios* (the quantities the paper's Table V sensitivity study varies).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

__all__ = [
    "GThinkerConfig",
    "FailurePlanConfig",
    "NetworkModel",
    "DiskModel",
    "MachineModel",
    "parse_host_port",
]


def parse_host_port(spec: str) -> Tuple[str, int]:
    """Parse a ``"host:port"`` string; raises ``ValueError`` with the
    offending value on malformed entries (shared by the config validator,
    the CLI and the TCP transport)."""
    if not isinstance(spec, str) or ":" not in spec:
        raise ValueError(f"expected 'host:port', got {spec!r}")
    host, _, port_s = spec.rpartition(":")
    if not host:
        raise ValueError(f"expected 'host:port', got {spec!r}")
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"non-numeric port in {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {spec!r}")
    return host, port


@dataclass(frozen=True)
class NetworkModel:
    """Simulated interconnect (used by the DES runtime only).

    Defaults approximate the paper's GigE testbed: ~100 microsecond
    round-trip latency, ~110 MB/s effective bandwidth per link.
    """

    latency_s: float = 100e-6
    bandwidth_bytes_per_s: float = 110e6

    def transfer_time(self, num_bytes: int) -> float:
        return self.latency_s + num_bytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class DiskModel:
    """Simulated local managed disk (sequential IO for task spills)."""

    seek_s: float = 2e-3
    bandwidth_bytes_per_s: float = 150e6

    def io_time(self, num_bytes: int) -> float:
        return self.seek_s + num_bytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class MachineModel:
    """A simulated machine (paper: Azure D16S_V3 — 16 cores, 64 GB)."""

    num_cores: int = 16
    memory_bytes: int = 64 << 30
    cpu_speed: float = 1.0  # virtual-seconds per measured-second of compute


#: Events a :class:`FailurePlanConfig` can trigger on.
FAILURE_EVENTS = ("sync", "spawn", "spill", "steal", "random")


@dataclass(frozen=True)
class FailurePlanConfig:
    """Deterministic worker-kill schedule for ``runtime="process"``.

    Drives the §V-B fault-tolerance machinery from tests, the CI
    kill-worker matrix and the ``repro check`` fuzzer: the selected
    worker process exits hard (``os._exit``, no error report — exactly
    what a machine loss looks like to the parent) when its trigger
    fires.  Triggers:

    * ``when="sync"`` — on receiving the ``at_count``-th sync command
      (mid-protocol: the master is left waiting for the status reply);
    * ``when="spawn"`` — mid-spawn: the ``at_count``-th scheduler round
      observing a partially advanced spawn cursor;
    * ``when="spill"`` — post-spill: the ``at_count``-th round observing
      at least one spilled batch file in ``L_file``;
    * ``when="steal"`` — on receiving the ``at_count``-th steal command
      (a task batch may be mid-flight to the thief);
    * ``when="random"`` — seeded coin flip at every sync on every
      worker (``kill_worker=None`` means any worker may die).

    A plan is armed only in the job's first incarnation: once a worker
    set has been respawned after a failure the plan stays quiet, so one
    plan produces exactly one injected loss (set ``rearm=True`` to keep
    killing after recoveries, e.g. to exercise retry exhaustion).
    """

    kill_worker: Optional[int] = None
    when: str = "sync"
    at_count: int = 1
    probability: float = 1.0
    seed: int = 0
    rearm: bool = False
    exit_code: int = 43

    def __post_init__(self) -> None:
        if self.when not in FAILURE_EVENTS:
            raise ValueError(
                f"unknown failure event {self.when!r}; pick one of {FAILURE_EVENTS}"
            )
        if self.when != "random" and self.kill_worker is None:
            raise ValueError(
                f"FailurePlanConfig(when={self.when!r}) needs an explicit kill_worker"
            )
        if self.kill_worker is not None and self.kill_worker < 0:
            raise ValueError("kill_worker must be a worker id (>= 0)")
        if self.at_count < 1:
            raise ValueError("at_count must be >= 1")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")


@dataclass(frozen=True)
class GThinkerConfig:
    """Runtime parameters of a G-thinker job.

    Attributes
    ----------
    num_workers:
        Number of worker "machines".
    compers_per_worker:
        Mining threads per worker (paper: up to 16).
    task_batch_size:
        The paper's ``C``: refill trigger is ``|Q_task| <= C``, refill
        target ``2C``, queue capacity ``3C``, spill unit ``C``.
        Paper default 150.
    pending_threshold:
        The paper's ``D``: a comper stops popping new tasks when the
        number of tasks in ``T_task`` + ``B_task`` exceeds this.
        Paper default ``8C``.
    cache_capacity:
        The paper's ``c_cache``: target number of vertices in the remote
        vertex cache (Γ-tables + R-tables).  Paper default 2M on 64 GB
        machines; our default is sized for laptop-scale graphs.
    cache_overflow_alpha:
        The paper's ``α``: GC only acts (and compers only stop fetching
        new tasks) when ``s_cache > (1 + α) · c_cache``.  Paper default
        0.2.
    cache_buckets:
        The paper's ``k``: number of mutex-protected buckets in the
        vertex cache.  Paper default 10,000.
    cache_count_delta:
        The paper's ``δ``: per-thread local counter committed to the
        approximate cache size ``s_cache`` when it reaches ±δ.
        Paper default 10.
    decompose_threshold:
        The paper's ``τ``: a task whose subgraph exceeds this many
        vertices is decomposed into child tasks instead of mined
        serially.  Paper default 40,000; ours is sized to our graphs.
    aggregator_sync_period_s:
        How often worker aggregators synchronize (paper default 1 s);
        the serial runtime interprets this as "every N scheduler rounds".
    steal_enabled / steal_batches:
        Master-coordinated work stealing: when the gap between the most-
        and least-loaded workers exceeds one batch, move up to
        ``steal_batches`` task batches per sync.  The per-pair transfer
        is workload-proportional (about a quarter of the victim/thief
        gap, at least one batch) with hysteresis: a pair that just moved
        work in one direction is not reversed on the next sweep, so
        near-balanced workers stop ping-ponging batches.
    idle_sleep_s / idle_backoff_max_s:
        Adaptive idle polling, shared by every runtime that polls: an
        idle comper/service/worker loop starts sleeping
        ``idle_sleep_s`` and doubles up to ``idle_backoff_max_s`` until
        work (or an explicit wake) arrives, then resets.  The threaded
        and process masters use the same backoff between sweeps instead
        of a fixed ``aggregator_sync_period_s`` sleep.
    response_chunk:
        Cap on vertices per :class:`~repro.net.message.ResponseBatch`
        so one huge request batch does not produce one giant message
        (MTU-ish chunking; default 4096).
    checkpoint_every_syncs:
        If > 0, write a checkpoint every this many progress syncs.  On
        ``runtime="process"`` each checkpoint is a sync-barrier protocol
        (quiesce, drain the wire, snapshot every worker, resume) and the
        resulting in-memory checkpoint doubles as the rollback point for
        worker-loss recovery even when no ``checkpoint_path`` is given.
    failure_plan:
        ``runtime="process"`` only: a :class:`FailurePlanConfig`
        describing a deterministic injected worker kill (worker *i* at
        sync *k*, or seeded random kills) for fault-tolerance tests and
        the CI kill matrix.
    max_worker_restarts:
        ``runtime="process"`` only: how many times the parent may
        respawn the worker set from the last checkpoint after losing a
        worker process before giving up with
        :class:`~repro.core.errors.WorkerProcessError` (0 = any worker
        loss is fatal, the pre-fault-tolerance behaviour).
    worker_restart_backoff_s:
        Base delay before a recovery respawn; doubles per consecutive
        restart (exponential backoff on the control plane).
    control_reply_timeout_s:
        How long the parent waits for a single control-plane reply from
        a worker process before treating it as hung (and, if restarts
        remain, recovering it).
    inline_iteration_limit:
        A task whose pulls keep resolving locally yields its comper after
        this many consecutive inline iterations (``None`` = the engine
        default, :attr:`~repro.core.comper.ComperEngine.INLINE_ITERATION_LIMIT`).
        Tests and the interleaving fuzzer lower it to force the
        yield/re-queue path.
    check_protocols:
        Enable the concurrency protocol checkers (``repro.check``): the
        task-lifecycle state machine, the cache-protocol wrapper and the
        single-writer guards.  Off by default (zero hot-path cost); the
        ``REPRO_CHECK=1`` environment variable enables it globally.
    kernel_backend:
        Which :mod:`repro.graph.kernels` implementation the mining inner
        loops run on: ``'numpy'`` (always available, the oracle),
        ``'numba'`` (compiled ``@njit`` kernels — requires numba, fails
        loudly if missing), or ``'auto'`` (numba when importable, else
        numpy, silently).  Selected once per job, in every worker
        process; the ``REPRO_KERNEL_BACKEND`` environment variable
        overrides this field, and the backend that actually ran is
        recorded under the ``kernels:backend:<name>`` metric.
    process_start_method:
        ``multiprocessing`` start method for ``runtime="process"``
        (``"fork"``, ``"spawn"`` or ``"forkserver"``); ``None`` picks
        ``fork`` where available (cheap worker startup), else ``spawn``.
    ipc_batch_max_messages:
        ``runtime="process"`` only: how many outgoing messages a
        worker's :class:`~repro.net.transport.ProcessTransport` buffers
        per destination before forcing a queue put (the IPC analogue of
        the paper's batched sending; buffers also drain every comm-service
        step).
    cluster_hosts:
        ``runtime="cluster"`` only: one ``"host:port"`` data-plane
        address per node (= per worker).  ``None`` (the default) selects
        single-command localhost mode — the executor spawns every node
        process itself on ephemeral loopback ports.  When given, the
        executor *attaches*: each node must already be running
        ``python -m repro node --node-id K --master ...`` and bind its
        listed address.
    cluster_bind:
        ``runtime="cluster"`` only: ``"host:port"`` the master's control
        channel listens on (port 0 = ephemeral, fine for localhost mode;
        attached multi-host runs need a concrete port the nodes can
        reach).
    cluster_connect_timeout_s:
        ``runtime="cluster"`` only: how long a node retries a data-plane
        connect to a peer before declaring the peer lost.
    checkpoint_dir / spill_dir:
        Filesystem locations (spill_dir defaults to a temp dir per job).
    seed:
        Seed for any tie-breaking randomness (kept for reproducibility;
        the engine itself is deterministic in the serial runtime).
    """

    num_workers: int = 2
    compers_per_worker: int = 2
    task_batch_size: int = 32
    pending_threshold: Optional[int] = None  # defaults to 8 * C
    cache_capacity: int = 50_000
    cache_overflow_alpha: float = 0.2
    cache_buckets: int = 256
    cache_count_delta: int = 10
    decompose_threshold: int = 64
    aggregator_sync_period_s: float = 0.05
    sync_every_rounds: int = 64
    steal_enabled: bool = True
    steal_batches: int = 4
    idle_sleep_s: float = 0.0005
    idle_backoff_max_s: float = 0.02
    response_chunk: int = 4096
    checkpoint_every_syncs: int = 0
    checkpoint_dir: Optional[str] = None
    failure_plan: Optional[FailurePlanConfig] = None
    max_worker_restarts: int = 3
    worker_restart_backoff_s: float = 0.05
    control_reply_timeout_s: float = 60.0
    spill_dir: Optional[str] = None
    inline_iteration_limit: Optional[int] = None
    check_protocols: bool = False
    kernel_backend: str = "auto"
    process_start_method: Optional[str] = None
    ipc_batch_max_messages: int = 64
    cluster_hosts: Optional[Tuple[str, ...]] = None
    cluster_bind: str = "127.0.0.1:0"
    cluster_connect_timeout_s: float = 10.0
    seed: int = 0

    network: NetworkModel = field(default_factory=NetworkModel)
    disk: DiskModel = field(default_factory=DiskModel)
    machine: MachineModel = field(default_factory=MachineModel)

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.compers_per_worker < 1:
            raise ValueError("compers_per_worker must be >= 1")
        if self.task_batch_size < 1:
            raise ValueError("task_batch_size must be >= 1")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.cache_overflow_alpha < 0:
            raise ValueError("cache_overflow_alpha must be >= 0")
        if self.cache_buckets < 1:
            raise ValueError("cache_buckets must be >= 1")
        if self.cache_count_delta < 1:
            raise ValueError("cache_count_delta must be >= 1")
        if self.decompose_threshold < 2:
            raise ValueError("decompose_threshold must be >= 2")
        if self.sync_every_rounds < 1:
            # 0 would divide (serial sync cadence is `rounds % N`) and a
            # negative value would never trigger a sync at all.
            raise ValueError("sync_every_rounds must be >= 1")
        if self.steal_enabled and self.steal_batches < 1:
            raise ValueError(
                "steal_batches must be >= 1 when steal_enabled is True"
            )
        if self.aggregator_sync_period_s <= 0:
            raise ValueError("aggregator_sync_period_s must be > 0")
        if self.pending_threshold is not None and self.pending_threshold < 0:
            # 0 is meaningful (a comper with any pending task may not pop
            # more); negative thresholds would gate every pop forever.
            raise ValueError("pending_threshold must be >= 0 when given")
        if self.inline_iteration_limit is not None and self.inline_iteration_limit < 1:
            raise ValueError("inline_iteration_limit must be >= 1")
        if self.ipc_batch_max_messages < 1:
            raise ValueError("ipc_batch_max_messages must be >= 1")
        if self.idle_sleep_s <= 0:
            raise ValueError("idle_sleep_s must be > 0")
        if self.idle_backoff_max_s < self.idle_sleep_s:
            raise ValueError(
                f"idle_backoff_max_s ({self.idle_backoff_max_s}) must be >= "
                f"idle_sleep_s ({self.idle_sleep_s})"
            )
        if self.response_chunk < 1:
            raise ValueError("response_chunk must be >= 1")
        if self.kernel_backend not in ("auto", "numpy", "numba"):
            raise ValueError(
                f"kernel_backend must be 'auto', 'numpy' or 'numba', "
                f"got {self.kernel_backend!r}"
            )
        if self.process_start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                f"unknown process_start_method {self.process_start_method!r}"
            )
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
        if self.worker_restart_backoff_s < 0:
            raise ValueError("worker_restart_backoff_s must be >= 0")
        if self.control_reply_timeout_s <= 0:
            raise ValueError("control_reply_timeout_s must be > 0")
        if self.cluster_hosts is not None:
            if not isinstance(self.cluster_hosts, tuple):
                object.__setattr__(self, "cluster_hosts",
                                   tuple(self.cluster_hosts))
            if len(self.cluster_hosts) != self.num_workers:
                raise ValueError(
                    f"cluster_hosts lists {len(self.cluster_hosts)} nodes "
                    f"but num_workers is {self.num_workers} (one host per "
                    f"worker)"
                )
            for spec in self.cluster_hosts:
                try:
                    parse_host_port(spec)
                except ValueError as exc:
                    raise ValueError(f"cluster_hosts: {exc}") from None
        try:
            parse_host_port(self.cluster_bind)
        except ValueError as exc:
            raise ValueError(f"cluster_bind: {exc}") from None
        if self.cluster_connect_timeout_s <= 0:
            raise ValueError("cluster_connect_timeout_s must be > 0")
        if self.failure_plan is not None and self.failure_plan.kill_worker is not None:
            if self.failure_plan.kill_worker >= self.num_workers:
                raise ValueError(
                    f"failure_plan.kill_worker {self.failure_plan.kill_worker} "
                    f"out of range for {self.num_workers} workers"
                )

    @property
    def check_enabled(self) -> bool:
        """Protocol checking, via config flag or ``REPRO_CHECK=1``."""
        if self.check_protocols:
            return True
        return os.environ.get("REPRO_CHECK", "") not in ("", "0")

    @property
    def effective_kernel_backend(self) -> str:
        """Kernel backend after the ``REPRO_KERNEL_BACKEND`` override."""
        env = os.environ.get("REPRO_KERNEL_BACKEND", "")
        return env if env else self.kernel_backend

    @property
    def effective_pending_threshold(self) -> int:
        """The paper's ``D`` (defaults to ``8C``)."""
        if self.pending_threshold is not None:
            return self.pending_threshold
        return 8 * self.task_batch_size

    @property
    def queue_capacity(self) -> int:
        """``Q_task`` holds at most ``3C`` tasks."""
        return 3 * self.task_batch_size

    @property
    def refill_target(self) -> int:
        """Refills aim to bring ``|Q_task|`` back to ``2C``."""
        return 2 * self.task_batch_size

    def with_updates(self, **kwargs) -> "GThinkerConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
