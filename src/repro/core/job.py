"""Job assembly and the public ``run_job`` entry point.

Typical use::

    from repro import run_job, GThinkerConfig
    from repro.apps import TriangleCountComper

    result = run_job(TriangleCountComper, graph, GThinkerConfig(num_workers=4))
    print(result.aggregate)   # the triangle count

``graph`` may be an in-memory :class:`repro.graph.Graph` (partitioned by
vertex-id hashing at load, the paper's Pregel-style placement) or a
:class:`repro.graph.ShardedGraphStore` (each worker parses its own shard,
the HDFS-loading contract).

Runtime selection goes through the fixed :data:`RUNTIMES` table:
``run_job`` and ``resume_job`` share one dispatch path, validate the
requested features (checkpointing, failure injection, resume) against
the runtime's declared capabilities, and both raise
:class:`~repro.core.errors.UnsupportedRuntimeFeature` for any
unsupported combination.  The five runtimes are ``serial``,
``threaded``, ``checked``, ``process`` and ``cluster``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..graph.graph import Graph
from ..graph.io import ShardedGraphStore
from ..graph.partition import hash_partition, hash_partition_array
from ..net.transport import Transport
from .api import Comper
from .checkpoint import JobCheckpoint
from .config import GThinkerConfig
from .containers import SpillRoot
from .errors import UnknownRuntimeError, UnsupportedRuntimeFeature
from .master import Master
from .metrics import MetricsAccessors, MetricsRegistry
from .runtime import (
    Cluster,
    JobRequest,
    RuntimeCapabilities,
    RuntimeSpec,
    SerialRuntime,
    ThreadedRuntime,
)
from .worker import LocalTableMemo, Worker

__all__ = [
    "JobResult", "build_cluster", "run_job", "resume_job", "resolve_resume",
    "RUNTIMES", "get_runtime", "available_runtimes", "capability_matrix",
]

GraphSource = Union[Graph, ShardedGraphStore]


@dataclass
class JobResult(MetricsAccessors):
    """What a finished job returns.

    Besides the raw ``metrics`` snapshot, typed accessors are available:
    ``result.cache_stats`` (hits/misses/evictions) and
    ``result.worker_metrics(i)`` (per-worker peaks) — prefer them over
    poking ``"max:worker0:peak_memory_bytes"``-style string keys.
    """

    aggregate: Any
    outputs: List[Any]
    metrics: Dict[str, float]
    elapsed_s: float
    num_workers: int
    compers_per_worker: int

    @property
    def peak_memory_bytes(self) -> float:
        return self.metrics.get("max:peak_memory_bytes", 0.0)

    @property
    def network_bytes(self) -> float:
        return self.metrics.get("net:bytes", 0.0)


def _partition_rows(graph: Graph, num_workers: int):
    """Split an in-memory graph into per-worker ``(v, label, adj)`` row
    lists, ids ascending; each ``adj`` is a read-only view into the
    graph's CSR ``indices``."""
    vertex_ids, indptr, indices, labels = graph.csr_arrays()
    owners = hash_partition_array(vertex_ids, num_workers).tolist()
    bounds = indptr.tolist()
    rows: List[List] = [[] for _ in range(num_workers)]
    for v, label, start, stop, owner in zip(
            vertex_ids.tolist(), labels.tolist(), bounds, bounds[1:], owners):
        rows[owner].append((v, label, indices[start:stop]))
    return rows


def build_cluster(
    app_factory: Callable[[], Comper],
    graph: GraphSource,
    config: GThinkerConfig,
    timed_transport: bool = False,
    local_tables: Optional[LocalTableMemo] = None,
) -> Cluster:
    """Construct workers, load the graph, and wire the master.

    ``local_tables`` is the owning Session's memo: shareable tables of
    an in-memory graph are attached from it, or built and stored there.
    """
    metrics = MetricsRegistry()
    transport = Transport(
        config.num_workers,
        metrics=metrics,
        network=config.network,
        timed=timed_transport,
    )
    spill_root = SpillRoot(config.spill_dir)
    workers = [
        Worker(
            worker_id=i,
            num_workers=config.num_workers,
            config=config,
            app_factory=app_factory,
            transport=transport,
            metrics=metrics,
            spill_dir=spill_root,
        )
        for i in range(config.num_workers)
    ]
    _load_graph(workers, graph, config, local_tables)
    master = Master(workers, transport, config, metrics)
    return Cluster(
        workers=workers, master=master, transport=transport,
        metrics=metrics, config=config, spill_root=spill_root,
    )


def _load_graph(workers: List[Worker], graph: GraphSource,
                config: GThinkerConfig,
                local_tables: Optional[LocalTableMemo] = None) -> None:
    if isinstance(graph, Graph):
        key = None
        if local_tables is not None:
            key = LocalTableMemo.key(workers[0].trimmer, config.num_workers)
        tables = local_tables.get(key) if key is not None else None
        if tables is not None:
            for w, table in zip(workers, tables):
                w.attach_table(table)
            return
        for w, rows in zip(workers, _partition_rows(graph, config.num_workers)):
            w.load_rows(rows)
        if key is not None:
            local_tables.put(key, [w.table for w in workers])
        return
    if isinstance(graph, ShardedGraphStore):
        if graph.num_shards == config.num_workers:
            for w in workers:
                w.load_rows(graph.read_shard(w.worker_id))
        else:
            # Shard count mismatch: re-hash every row to its worker.
            rows: List[List] = [[] for _ in workers]
            for shard in range(graph.num_shards):
                for v, label, adj in graph.read_shard(shard):
                    rows[hash_partition(v, config.num_workers)].append((v, label, adj))
            for w, r in zip(workers, rows):
                w.load_rows(r)
        return
    raise TypeError(f"unsupported graph source {type(graph)!r}")


def _teardown(cluster: Cluster) -> None:
    """Release worker resources; remove the spill root iff we made it."""
    cluster.master.shutdown()
    for w in cluster.workers:
        w.cleanup()
    if cluster.spill_root is not None:
        cluster.spill_root.remove()


def _finish(cluster: Cluster, started: float) -> JobResult:
    _teardown(cluster)
    return JobResult(
        aggregate=cluster.master.global_aggregator.value,
        outputs=[rec for w in cluster.workers for rec in w.outputs()],
        metrics=cluster.metrics.snapshot(),
        elapsed_s=time.perf_counter() - started,
        num_workers=cluster.config.num_workers,
        compers_per_worker=cluster.config.compers_per_worker,
    )


# ---------------------------------------------------------------------------
# Built-in runtime executors
# ---------------------------------------------------------------------------


class ClusterRuntimeExecutor:
    """Shared shape of the in-process runtimes (serial/threaded/checked).

    Builds a cluster, resumes its master from the request's checkpoint
    if any, drives it, and — success or failure — tears the workers
    down so the ``gthinker-spill-*`` tempdir never leaks.  Subclasses
    override :meth:`prepare_config` and :meth:`drive`.
    """

    def prepare_config(self, config: GThinkerConfig) -> GThinkerConfig:
        return config

    def drive(self, cluster: Cluster, request: JobRequest) -> None:
        raise NotImplementedError

    def execute(self, request: JobRequest) -> JobResult:
        config = self.prepare_config(request.config)
        if config.failure_plan is not None:
            # The serial runtime's failure injection is abort_after_rounds;
            # worker-kill plans need real worker processes to kill.
            raise UnsupportedRuntimeFeature(
                "config.failure_plan (worker-kill injection) requires "
                "runtime='process' or runtime='cluster'"
            )
        cluster = build_cluster(request.app_factory, request.graph, config,
                                local_tables=request.local_tables)
        master = cluster.master
        master.abort = request.abort
        master.checkpoint_path = request.checkpoint_path
        if request.checkpoint is not None:
            master.start(request.checkpoint)
        started = time.perf_counter()
        try:
            self.drive(cluster, request)
        except BaseException:
            _teardown(cluster)
            raise
        return _finish(cluster, started)


class SerialExecutor(ClusterRuntimeExecutor):
    def drive(self, cluster: Cluster, request: JobRequest) -> None:
        SerialRuntime().run(
            cluster, abort_after_rounds=request.abort_after_rounds
        )


class ThreadedExecutor(ClusterRuntimeExecutor):
    def drive(self, cluster: Cluster, request: JobRequest) -> None:
        ThreadedRuntime().run(cluster)


class CheckedExecutor(ClusterRuntimeExecutor):
    def prepare_config(self, config: GThinkerConfig) -> GThinkerConfig:
        if not config.check_protocols:
            config = config.with_updates(check_protocols=True)
        return config

    def drive(self, cluster: Cluster, request: JobRequest) -> None:
        from ..check import CheckedRuntime

        CheckedRuntime(seed=cluster.config.seed).run(cluster)


def _process_executor():
    # Imported lazily: the process backend pulls in multiprocessing and
    # shared_memory, which serial test runs never need.
    from .procruntime import ProcessExecutor

    return ProcessExecutor()


def _cluster_executor():
    # Imported lazily: the cluster backend pulls in sockets/selectors.
    from .clusterruntime import ClusterExecutor

    return ClusterExecutor()


_FULL = RuntimeCapabilities(checkpointing=True, failure_injection=True)
_IN_MEMORY = RuntimeCapabilities()

#: The runtimes ``run_job``/``resume_job``/``Session`` accept by name.
#: ``cluster`` has honest full capabilities: checkpointing, injected
#: node kills with global-rollback recovery, and shard resume all work
#: (recovery by respawn only in localhost spawn mode — attach mode
#: raises with resume guidance).  Every runtime runs the protocol
#: checkers, resumes and cancels, so none of those is a capability:
#: on ``cluster`` the sweep raises on cancel, shutdown closes every
#: control channel, and attached nodes see the close and exit.
RUNTIMES: Dict[str, RuntimeSpec] = {
    spec.name: spec for spec in (
        RuntimeSpec("serial", SerialExecutor, _FULL),
        RuntimeSpec("threaded", ThreadedExecutor, _IN_MEMORY),
        RuntimeSpec("checked", CheckedExecutor, _IN_MEMORY),
        RuntimeSpec("process", _process_executor, _FULL),
        RuntimeSpec("cluster", _cluster_executor, _FULL),
    )
}


def get_runtime(name: str) -> RuntimeSpec:
    """Resolve a runtime name; raises :class:`UnknownRuntimeError`."""
    spec = RUNTIMES.get(name)
    if spec is None:
        raise UnknownRuntimeError(
            f"unknown runtime {name!r}; runtimes: {sorted(RUNTIMES)}"
        )
    return spec


def available_runtimes() -> Tuple[str, ...]:
    """Sorted names of every runtime."""
    return tuple(sorted(RUNTIMES))


def capability_matrix() -> Dict[str, Dict[str, bool]]:
    """``{runtime: {feature: supported}}`` for docs and error messages."""
    return {
        name: {
            f: getattr(spec.capabilities, f)
            for f in spec.capabilities.feature_names()
        }
        for name, spec in sorted(RUNTIMES.items())
    }


def resolve_resume(
    checkpoint_path: str,
    config: Optional[GThinkerConfig],
    runtime: str,
) -> Tuple[JobCheckpoint, GThinkerConfig]:
    """Load a checkpoint shard and reconcile it with a caller config.

    The single resume path behind ``run_job(resume_from=...)``,
    ``Session.submit(resume_from=...)`` and ``resume_job``: validates
    the runtime name *before* touching the file, loads the shard, and
    either adopts its worker layout (``config=None``) or checks a
    caller-supplied config against it.  A ``num_workers`` mismatch
    raises ``ValueError`` here — early and uniformly, before any graph
    is loaded or worker process spawned (the process executor used to
    surface this late, as a :class:`~repro.core.errors.CheckpointError`
    after validation had already let the job through).
    """
    get_runtime(runtime)  # validate the name before touching the file
    ckpt = JobCheckpoint.load(checkpoint_path)
    if config is None:
        config = GThinkerConfig(
            num_workers=ckpt.num_workers,
            compers_per_worker=ckpt.compers_per_worker,
        )
    elif config.num_workers != ckpt.num_workers:
        raise ValueError(
            f"config.num_workers={config.num_workers} does not match the "
            f"checkpoint shard {checkpoint_path!r}, which was taken with "
            f"{ckpt.num_workers} workers; resume with num_workers="
            f"{ckpt.num_workers} or pass config=None to adopt the shard's "
            f"layout"
        )
    return ckpt, config


def run_job(
    app_factory: Callable[[], Comper],
    graph: GraphSource,
    config: Optional[GThinkerConfig] = None,
    runtime: str = "serial",
    checkpoint_path: Optional[str] = None,
    abort_after_rounds: Optional[int] = None,
    resume_from: Optional[str] = None,
) -> JobResult:
    """Run a G-thinker job to completion and return its result.

    A thin wrapper over a one-shot :class:`~repro.core.session.Session`:
    the graph is made resident, the job submitted, and its handle's
    ``result()`` returned — identical signature and behavior to the
    pre-Session entry point.  Use a Session directly to run several
    jobs against one resident graph.

    Parameters
    ----------
    app_factory:
        A zero-argument callable producing the user's
        :class:`~repro.core.api.Comper` (one instance per mining thread).
        The ``"process"`` runtime additionally requires it to be
        picklable (a class or :func:`functools.partial`, not a lambda).
    runtime:
        Any name in :func:`available_runtimes`.
        Built-ins: ``"serial"`` (deterministic single thread; supports
        checkpointing and failure injection), ``"threaded"`` (real
        threads, paper-shaped concurrency, GIL-serialized), ``"checked"``
        (the seeded interleaving fuzzer from :mod:`repro.check`; forces
        protocol checkers on and perturbs step order from
        ``config.seed``), and ``"process"`` (worker processes with the
        graph in shared memory — real CPU parallelism).
    checkpoint_path:
        Where periodic checkpoints go when
        ``config.checkpoint_every_syncs > 0``.  Requires a runtime with
        the ``checkpointing`` capability (built-ins: serial, process and
        cluster; all three take the master's sync-barrier checkpoint).
    abort_after_rounds:
        Failure injection for fault-tolerance tests: abort after that
        many scheduler rounds (serial) or master sync sweeps (process).
        Requires the ``failure_injection`` capability (built-ins: serial
        and process); ``config.failure_plan`` — deterministic worker
        kills — additionally requires ``runtime="process"``.
    resume_from:
        Path of a checkpoint shard to seed the job from — recovery as a
        parameter rather than a separate entry point (``resume_job``
        delegates here).  ``config=None`` adopts the shard's worker
        layout; a caller config whose ``num_workers`` disagrees with
        the shard raises ``ValueError`` before anything is built.

    Raises
    ------
    UnknownRuntimeError
        ``runtime`` names no registered runtime.
    UnsupportedRuntimeFeature
        The runtime exists but does not support a requested feature.
    """
    from .session import Session

    with Session(graph, config=config, runtime=runtime) as session:
        handle = session.submit(
            app_factory,
            checkpoint_path=checkpoint_path,
            abort_after_rounds=abort_after_rounds,
            resume_from=resume_from,
        )
        return handle.result()


def resume_job(
    app_factory: Callable[[], Comper],
    graph: GraphSource,
    checkpoint_path: str,
    config: Optional[GThinkerConfig] = None,
    runtime: str = "serial",
) -> JobResult:
    """Recover from a checkpoint and run the remainder of the job.

    Shares :func:`run_job`'s registry dispatch: any runtime with the
    ``resume`` capability works (built-ins: serial, threaded, checked,
    process), and unsupported combinations raise the same
    :class:`~repro.core.errors.UnsupportedRuntimeFeature` run_job raises.
    Shards are runtime-portable: a shard written by a killed
    ``runtime="process"`` job resumes on the serial runtime and vice
    versa.  When ``config.checkpoint_every_syncs > 0`` the resumed job
    keeps checkpointing to the same ``checkpoint_path``.

    Delegates to ``run_job(resume_from=checkpoint_path)`` — the two
    spellings share one checkpoint-load/config-default path
    (:func:`resolve_resume`) and produce identical results.
    """
    return run_job(
        app_factory, graph, config=config, runtime=runtime,
        resume_from=checkpoint_path,
    )
