"""Measurement: one workload, one process, every layer seen from outside.

:func:`measure_end_to_end` is the untraced run (what a user of the
system sees); :func:`measure_layers` is the separate traced run plus
direct probes that fill the per-layer budget.  Both check every answer
against the bare serial miner on the same graph.

Noise hygiene (a shared 2-core box varies +-5-10 % rep to rep): every
reported timing is a median over the repetitions that fit in the run,
``gc.collect()`` runs before each repetition, set-up is timed on three
cold starts over fresh ``Graph`` objects, and a percentile is reported
only when at least ten samples lie beyond it.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.apps import TriangleCountComper
from repro.core import Comper, GThinkerConfig, Session, VertexView
from repro.core.containers import deserialize_tasks, serialize_tasks
from repro.graph import Graph, graph_digest
from repro.graph.partition import hash_partition_array
from repro.net.message import ResponseBatch
from repro.net.wire import decode_batch, encode_batch
from repro.service import GraphService, ServiceClient

from tracing import ROOT_SPAN, Tracer
from workloads import (
    CLIENTS,
    SEGMENT_JOBS_PER_CLIENT,
    Workload,
    build_graph,
    make_edges,
    service_answer,
    service_oracles,
    service_plan,
    spec_key,
)

__all__ = ["measure_end_to_end", "measure_layers", "Outcome"]

JOB_TIMEOUT_S = 120.0
COLD_STARTS = 3
RESULT_CACHE_SIZE = 32
HALF_SEGMENT = SEGMENT_JOBS_PER_CLIENT // 2
clock = time.perf_counter


class Outcome(NamedTuple):
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Facts about the generated input (not metrics): reported to stderr
    #: and used by the self-check.
    inputs: Dict[str, int]


def cpu_seconds() -> float:
    """user + sys of this process and of every child it has reaped."""
    # getrusage, not os.times(): the latter ticks in 10 ms steps.
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kib + child_kib) / 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def windowed_rate(walls: List[float], window: int = 4) -> float:
    """Jobs per second as the median over windows of ``window``
    consecutive jobs, so one stalled job costs one window, not the mean."""
    rates = [window / sum(walls[i:i + window])
             for i in range(0, len(walls) - window + 1, window)]
    return statistics.median(rates) if rates else len(walls) / sum(walls)


def p95_or_zero(values: List[float]) -> float:
    """p95 only when >= 10 samples lie beyond it (never alias the median)."""
    if len(values) < 200:
        return 0.0
    return sorted(values)[int(0.95 * len(values))]


# ---------------------------------------------------------------------------
# Resident benches: one per workload kind, same three verbs
# ---------------------------------------------------------------------------


class BatchBench:
    """A resident ``Session`` over the workload graph."""

    def __init__(self, w: Workload, graph: Graph, runtime: Optional[str] = None):
        self.w = w
        self.graph = graph
        self.config = w.config(graph.num_vertices)
        self.session = Session(self.graph, self.config,
                               runtime=runtime or w.runtime)

    def job(self, factory: Optional[Callable] = None):
        """One client-observed job: ``(wall, cpu, JobResult)``."""
        c0, t0 = cpu_seconds(), clock()
        result = self.session.submit(
            factory or self.w.app_factory()).result(timeout=JOB_TIMEOUT_S)
        return clock() - t0, cpu_seconds() - c0, result

    def close(self) -> None:
        self.session.close()


class JobRow(NamedTuple):
    app: str
    params: dict
    wall: float
    cached: bool
    result: object  # JobResult, or None when the job failed
    error: str = ""


class ServiceBench:
    """A resident ``GraphService`` on a loopback socket and its closed
    loop: ``CLIENTS`` threads, one connection each, every caller waits
    for ``result()`` before submitting its next job."""

    def __init__(self, w: Workload, graph: Graph):
        self.graph = graph
        self.sequences, _distinct = service_plan()
        self.service = GraphService(
            graph, config=w.config(graph.num_vertices), runtime=w.runtime,
            result_cache_size=RESULT_CACHE_SIZE,
        ).start()
        self.clients = [ServiceClient(self.service.address)
                        for _ in range(CLIENTS)]

    def segment(self, start: int = 0, stop: int = SEGMENT_JOBS_PER_CLIENT):
        """Positions ``start:stop`` of every client's fixed sequence,
        clients concurrent: ``(wall, cpu, rows)``."""
        rows: List[List[JobRow]] = [[] for _ in self.clients]

        def client_loop(c: int) -> None:
            client = self.clients[c]
            for app, params in self.sequences[c][start:stop]:
                t0 = clock()
                try:
                    handle = client.submit(app, params, tenant=f"client{c}")
                    result = handle.result(timeout=JOB_TIMEOUT_S)
                    rows[c].append(JobRow(app, params, clock() - t0,
                                          handle.record["cached"], result))
                except Exception as exc:  # a failed job, counted by the caller
                    rows[c].append(JobRow(app, params, clock() - t0, False,
                                          None, repr(exc)))

        threads = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(len(self.clients))]
        c0, t0 = cpu_seconds(), clock()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return clock() - t0, cpu_seconds() - c0, [r for rs in rows for r in rs]

    def close(self) -> None:
        for client in self.clients:
            client.close()
        self.service.close()


class Tally:
    """Jobs attempted and failed: exception, rejection, time-out or
    wrong answer.  A failed job contributes no latency sample."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        log(f"{self.name}: {message}")


def checked_job(bench: BatchBench, want: int, tally: Tally):
    """``bench.job()`` with its answer checked; None when it failed."""
    tally.attempted += 1
    try:
        wall, cpu, result = bench.job()
    except Exception as exc:
        tally.fail(f"job failed: {exc!r}")
        return None
    if bench.w.answer(result) != want:
        tally.fail(f"wrong answer {bench.w.answer(result)}, want {want}")
        return None
    return wall, cpu, result


def checked_segment(bench: ServiceBench, oracles: Dict[str, int], tally: Tally,
                    start: int = 0):
    """``bench.segment(start)`` with every answer checked: ``(wall, cpu,
    rows that answered correctly)``."""
    wall, cpu, rows = bench.segment(start)
    tally.attempted += len(rows)
    good = []
    for r in rows:
        want = oracles[spec_key(r.app, r.params)]
        if r.result is None:
            tally.fail(f"{r.app} {r.params}: {r.error}")
        elif service_answer(r.app, r.result) != want:
            tally.fail(f"{r.app} {r.params}: got "
                       f"{service_answer(r.app, r.result)}, want {want}")
        else:
            good.append(r)
    return wall, cpu, good


# ---------------------------------------------------------------------------
# The untraced run
# ---------------------------------------------------------------------------


def _cold_starts(bench_cls, w: Workload, edges, n: int, first_answer):
    """``COLD_STARTS`` x (edges in hand -> fresh graph -> first answer);
    returns the last bench, still open, and the samples."""
    samples, bench = [], None
    for _ in range(COLD_STARTS):
        if bench is not None:
            bench.close()
            bench = None
        gc.collect()
        t0 = clock()
        bench = bench_cls(w, build_graph(edges, n))
        first_answer(bench)
        samples.append(clock() - t0)
    return bench, samples


def measure_end_to_end(w: Workload, seed: int, seconds: float,
                       smoke: bool) -> Outcome:
    edges, n = make_edges(w, seed, smoke)
    inputs = {"vertices": n, "edges": len(edges)}
    tally = Tally(w.name)
    measure = _service_end_to_end if w.kind == "service" else _batch_end_to_end
    metrics = measure(w, edges, n, seconds, tally)
    if metrics:
        metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(metrics, tally.attempted, tally.failed, inputs)


def _batch_end_to_end(w, edges, n, seconds, tally) -> Dict[str, float]:
    want = w.bare_kernel(build_graph(edges, n))
    # The cold first jobs belong to setup_s only.
    bench, setups = _cold_starts(BatchBench, w, edges, n,
                                 lambda b: checked_job(b, want, tally))
    jobs = []
    try:
        started = clock()
        while clock() - started < seconds:
            gc.collect()
            jobs.append(checked_job(bench, want, tally))
    finally:
        bench.close()
    walls = [j[0] for j in jobs if j is not None]
    if not walls:
        return {}
    return {
        "job_wall_s": statistics.median(walls),
        "jobs_per_s": windowed_rate(walls),
        "cpu_s_per_job": statistics.median(j[1] for j in jobs if j is not None),
        "setup_s": statistics.median(setups),
    }


def _service_end_to_end(w, edges, n, seconds, tally) -> Dict[str, float]:
    oracles, _bare = service_oracles(build_graph(edges, n), service_plan()[1])
    # The warm-up is the *second* half of the segment, so the measured
    # segments (which start at position 0) never find a cold spec still
    # resident from it.
    bench, setups = _cold_starts(
        ServiceBench, w, edges, n,
        lambda b: checked_segment(b, oracles, tally, HALF_SEGMENT))
    rates, cpus, rows = [], [], []
    try:
        before = bench.service.stats()["deduped"]
        started = clock()
        while clock() - started < seconds:
            gc.collect()
            wall, cpu, good = checked_segment(bench, oracles, tally)
            rates.append(len(good) / wall)
            cpus.append(cpu / (CLIENTS * SEGMENT_JOBS_PER_CLIENT))
            rows += good
        deduped = bench.service.stats()["deduped"] - before
    finally:
        bench.close()
    if not rows:
        return {}
    hit_rate = sum(r.cached for r in rows) / len(rows)
    if deduped or not 0.20 <= hit_rate <= 0.30:
        tally.fail(f"mix drifted: deduped={deduped} hit_rate={hit_rate:.3f}")
    return {
        "job_wall_s": statistics.median(r.wall for r in rows),
        "jobs_per_s": statistics.median(rates),
        "cpu_s_per_job": statistics.median(cpus),
        "setup_s": statistics.median(setups),
    }


# ---------------------------------------------------------------------------
# The traced run and the direct probes
# ---------------------------------------------------------------------------


class NoopComper(Comper):
    """Spawns nothing: a job of pure boot, graph distribution,
    termination proof and teardown (``control.noop_job_s``)."""

    def task_spawn(self, v: VertexView) -> None:
        pass

    def compute(self, task, frontier) -> bool:
        return False


class _TaskCollector:
    """Stands in for the engine while an app's ``task_spawn`` runs."""

    def __init__(self, config: GThinkerConfig) -> None:
        self.config = config
        self.tasks: list = []

    def add_task(self, task) -> None:
        self.tasks.append(task)

    def aggregate(self, value) -> None:
        pass

    def aggregator_view(self):
        return None

    def output(self, record) -> None:
        pass


_CALIB_SORTED = np.arange(0, 2_000_000, 2, dtype=np.int64)
_CALIB_KEYS = (np.arange(200_000, dtype=np.int64) * 7919) % 2_000_000


def machine_calibration() -> float:
    """A fixed Python + numpy loop: tells machine drift from program change."""
    t0 = clock()
    acc = 0
    for i in range(100_000):
        acc += i & 7
    np.searchsorted(_CALIB_SORTED, _CALIB_KEYS)
    return clock() - t0


def _per_call_us(fn: Callable[[], object], iterations: int = 50) -> float:
    fn()
    t0 = clock()
    for _ in range(iterations):
        fn()
    return (clock() - t0) / iterations * 1e6


def wire_probes(graph: Graph, config: GThinkerConfig, factory, seed: int
                ) -> Dict[str, float]:
    rng = np.random.default_rng(seed)
    vertex_ids, indptr, indices, labels = graph.csr_arrays()
    pos = np.sort(rng.choice(len(vertex_ids), min(4096, len(vertex_ids)),
                             replace=False))
    degrees = indptr[pos + 1] - indptr[pos]
    batch = ResponseBatch.from_soa(
        0, 1, vertex_ids[pos], labels[pos],
        np.concatenate([indices[indptr[p]:indptr[p + 1]] for p in pos]),
        np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64),
    )
    frame = encode_batch([batch])

    app = factory()
    collector = _TaskCollector(config)
    app.bind_engine(collector)
    trimmer = app.make_trimmer()
    for p in pos[:1024]:
        v, label = int(vertex_ids[p]), int(labels[p])
        adj = indices[indptr[p]:indptr[p + 1]]
        if trimmer is not None:
            adj = trimmer.trim(v, label, adj)
        app.task_spawn(VertexView(v, label, adj))
    tasks = collector.tasks
    payload = serialize_tasks(tasks)
    per_task = max(1, len(tasks))
    return {
        "wire.encode_us_per_vertex":
            _per_call_us(lambda: encode_batch([batch])) / len(pos),
        "wire.decode_us_per_vertex":
            _per_call_us(lambda: decode_batch(frame)) / len(pos),
        "wire.bytes_per_vertex": len(frame) / len(pos),
        "wire.task_encode_us_per_task":
            _per_call_us(lambda: serialize_tasks(tasks)) / per_task,
        "wire.task_decode_us_per_task":
            _per_call_us(lambda: deserialize_tasks(payload)) / per_task,
    }


def _setup_breakdown(bench_cls, w: Workload, edges, n: int, first_answer):
    """One cold start with a clock between the steps."""
    gc.collect()
    t0 = clock()
    graph = build_graph(edges, n)
    t1 = clock()
    ids = graph.csr_arrays()[0]
    t2 = clock()
    graph_digest(graph)
    t3 = clock()
    bench = bench_cls(w, graph)
    t4 = clock()
    first_answer(bench)
    t5 = clock()
    return bench, {
        "setup.graph_build_s": t1 - t0,
        "setup.csr_flatten_s": t2 - t1,
        "setup.digest_s": t3 - t2,
        "setup.open_s": t4 - t3,
        "setup.cold_job_s": t5 - t4,
        "setup.partition_us_per_vertex":
            _per_call_us(lambda: hash_partition_array(ids, 2)) / len(ids),
    }


#: program counter -> per-layer metric, taken from ``JobResult.metrics``.
_COUNTERS = {
    "engine.tasks_created": "tasks:created",
    "engine.tasks_finished": "tasks:finished",
    "engine.iterations": "tasks:iterations",
    "engine.inline_yields": "comper:inline_yields",
    "engine.pop_blocked_cache": "comper:pop_blocked_cache",
    "engine.pop_blocked_pending": "comper:pop_blocked_pending",
    "engine.tasks_spilled": "tasks:spilled",
    "engine.tasks_refilled": "tasks:refilled_from_disk",
    "engine.spill_bytes": "tasks:spill_bytes",
    "cache.hits": "cache:hits",
    "cache.miss_first": "cache:miss_first",
    "cache.miss_duplicate": "cache:miss_duplicate",
    "cache.evictions": "cache:evictions",
    "cache.bucket_lock_acquisitions": "cache:bucket_lock_acquisitions",
    "comm.requests_queued": "comm:requests_queued",
    "comm.requests_deduped": "comm:requests_deduped",
    "comm.requests_served": "comm:requests_served",
    "comm.responses_received": "comm:responses_received",
    "comm.flush_s": "time:comm_flush_s",
    "comm.serve_s": "time:comm_serve_s",
    "comm.land_s": "time:comm_land_s",
    "transport.messages": "net:messages",
    "transport.bytes": "net:bytes",
    "transport.ipc_batches": "ipc:batches",
    "transport.ipc_payload_bytes": "ipc:payload_bytes",
    "transport.tcp_frames": "tcp:frames",
    "transport.tcp_payload_bytes": "tcp:payload_bytes",
    "control.master_sweep_s": "time:master_sweep_s",
    "control.idle_s": "time:control_idle_s",
    "control.status_pushes": "control:status_pushes",
    "control.steal_batches": "steal:batches",
    "control.steal_tasks": "steal:tasks",
    "control.direct_steal_batches": "steal:direct_batches",
    "control.steal_plan_skipped": "control:steal_plan_skipped",
}

#: span name -> per-layer metric (self seconds per traced repetition).
_SPAN_METRICS = {
    "apps.spawn": "apps.spawn_self_s",
    "apps.compute": "apps.compute_self_s",
    "engine.build": "engine.build_self_s",
    "engine.run_loop": "engine.run_loop_self_s",
    "engine.step": "engine.step_self_s",
    "engine.spawn": "engine.spawn_s",
    "engine.load_rows": "engine.load_rows_s",
    "engine.spill": "engine.spill_s",
    "cache.request": "cache.request_s",
    "cache.get": "cache.get_s",
    "cache.insert": "cache.insert_s",
    "cache.release": "cache.release_s",
    "cache.evict": "cache.evict_s",
    "comm.step": "comm.step_self_s",
    "control.sync": "control.sync_self_s",
}

_SERVICE_METRICS = (
    "service.submitted", "service.executed", "service.cache_hits",
    "service.deduped", "service.rejected", "service.failed",
    "service.cache_hit_rate", "service.hit_latency_p50_s",
    "service.miss_latency_p50_s", "service.job_wall_p95_s",
    "service.rtt_us", "service.admission_us_per_job",
)


def _counter_metrics(results: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over repetitions of each program counter (per repetition)."""
    out = {name: statistics.median(m.get(key, 0.0) for m in results)
           for name, key in _COUNTERS.items()}
    requests = out["cache.hits"] + out["cache.miss_first"] + out["cache.miss_duplicate"]
    out["cache.hit_rate"] = out["cache.hits"] / requests if requests else 0.0
    batches = out["transport.ipc_batches"] + out["transport.tcp_frames"]
    out["transport.msgs_per_batch"] = (
        out["transport.messages"] / batches if batches else 0.0)
    return out


def _trace_metrics(tracer: Tracer, reps: int, untraced_wall: float,
                   counters: Dict[str, float], jobs_per_rep: int = 1
                   ) -> Dict[str, float]:
    """Reduce the spans of ``reps`` traced repetitions to per-repetition
    layer self times and the reconciliation figures."""
    selfs = tracer.self_times()
    out = {metric: selfs.get(span, (0, 0.0))[1] / reps
           for span, metric in _SPAN_METRICS.items()}
    kernel = [(c, s) for name, (c, s) in selfs.items()
              if name.startswith("kernels.")]
    out["kernels.calls"] = sum(c for c, _ in kernel) / reps
    out["kernels.self_s"] = sum(s for _, s in kernel) / reps
    out["kernels.elements"] = tracer.kernel_elements / reps
    wall = tracer.root_wall() / reps
    finished = counters["engine.tasks_finished"]
    out["engine.us_per_task"] = (
        (wall - out["kernels.self_s"]) / finished * 1e6 if finished else 0.0)
    cache_s = sum(out[f"cache.{op}_s"]
                  for op in ("request", "get", "insert", "release", "evict"))
    requests = (counters["cache.hits"] + counters["cache.miss_first"]
                + counters["cache.miss_duplicate"])
    out["cache.us_per_op"] = cache_s / requests * 1e6 if requests else 0.0
    out["trace.spans"] = len(tracer.spans) / reps
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = wall / untraced_wall - 1.0 if untraced_wall else 0.0
    out["trace.unaccounted_frac"] = (
        selfs.get(ROOT_SPAN, (0, 0.0))[1] / reps / wall if wall else 0.0)
    service_s = sum(s for name, (_c, s) in selfs.items()
                    if name.startswith("service."))
    out["service.admission_us_per_job"] = service_s / (reps * jobs_per_rep) * 1e6
    return out


def noop_job_s(session: Session, reps: int) -> float:
    walls = []
    for _ in range(reps):
        t0 = clock()
        session.submit(NoopComper).result(timeout=JOB_TIMEOUT_S)
        walls.append(clock() - t0)
    return statistics.median(walls)


def measure_layers(w: Workload, seed: int, smoke: bool,
                   trace_path: Optional[Path] = None) -> Outcome:
    """The ``--trace 1`` run: program counters and client-side costs from
    untraced repetitions on the real runtime, direct probes, then the
    same work traced (batch workloads on ``runtime='serial'``, the
    in-process twin of the process / cluster cells) for the layer self
    times."""
    edges, n = make_edges(w, seed, smoke)
    inputs = {"vertices": n, "edges": len(edges)}
    tally = Tally(w.name)
    tracer = Tracer()
    measure = _service_layers if w.kind == "service" else _batch_layers
    metrics = measure(w, edges, n, seed, 2 if smoke else 3, tally, tracer)
    if trace_path is not None:
        tracer.write_chrome_trace(trace_path)
    return Outcome(metrics, tally.attempted, tally.failed, inputs)


def _batch_layers(w, edges, n, seed, reps, tally, tracer) -> Dict[str, float]:
    calib = [machine_calibration()]
    graph = build_graph(edges, n)
    bare = []
    for _ in range(reps):
        t0 = clock()
        want = w.bare_kernel(graph)
        bare.append(clock() - t0)
    del graph

    bench, metrics = _setup_breakdown(
        BatchBench, w, edges, n, lambda b: checked_job(b, want, tally))
    try:
        runs = []
        for _ in range(reps):
            gc.collect()
            runs.append(checked_job(bench, want, tally))
            calib.append(machine_calibration())
        noop = noop_job_s(bench.session, reps + 2)
        metrics.update(wire_probes(bench.graph, bench.config,
                                   w.app_factory(), seed))
    finally:
        bench.close()
    runs = [r for r in runs if r is not None]
    if not runs:
        return {}
    wall = statistics.median(r[0] for r in runs)
    cpu = statistics.median(r[1] for r in runs)
    counters = _counter_metrics([r[2].metrics for r in runs])
    metrics.update(counters)
    metrics.update({
        "kernels.bare_s": statistics.median(bare),
        "kernels.overhead_ratio": cpu / statistics.median(bare),
        "control.cpu_over_wall": cpu / wall,
        "control.noop_job_s": noop,
        "session.submit_overhead_s": statistics.median(
            r[0] - r[2].elapsed_s for r in runs),
    })

    # The traced twin, interleaved with untraced repetitions of the
    # same serial configuration so the overhead is like for like.
    twin = BatchBench(w, build_graph(edges, n), runtime="serial")
    try:
        untraced = []
        for _ in range(reps):
            gc.collect()
            job = checked_job(twin, want, tally)
            untraced.append(job[0] if job else 0.0)
            gc.collect()
            tracer.install()
            try:
                checked_job(twin, want, tally)
            finally:
                tracer.uninstall()
            calib.append(machine_calibration())
    finally:
        twin.close()
    metrics.update(_trace_metrics(tracer, reps, statistics.median(untraced),
                                  counters))
    metrics["machine.calib_s"] = statistics.median(calib)
    metrics.update({name: 0.0 for name in _SERVICE_METRICS
                    if name not in metrics})
    return metrics


def _service_layers(w, edges, n, seed, reps, tally, tracer) -> Dict[str, float]:
    calib = [machine_calibration()]
    oracles, bare_by_spec = service_oracles(build_graph(edges, n),
                                            service_plan()[1])
    bench, metrics = _setup_breakdown(
        ServiceBench, w, edges, n,
        lambda b: checked_segment(b, oracles, tally, HALF_SEGMENT))
    try:
        before = bench.service.stats()
        segments = []
        for _ in range(reps):
            gc.collect()
            segments.append(checked_segment(bench, oracles, tally))
            calib.append(machine_calibration())
        after = bench.service.stats()
        rtt = _per_call_us(bench.clients[0].server_info, 100 * reps)
        noop_session = Session(bench.graph, w.config(n), runtime=w.runtime)
        try:
            noop = noop_job_s(noop_session, reps + 2)
        finally:
            noop_session.close()
        metrics.update(wire_probes(bench.graph, w.config(n),
                                   TriangleCountComper, seed))
        gc.collect()
        tracer.install()
        try:
            traced_wall = checked_segment(bench, oracles, tally)[0]
        finally:
            tracer.uninstall()
    finally:
        bench.close()

    rows = [r for _wall, _cpu, good in segments for r in good]
    hits = [r.wall for r in rows if r.cached]
    mined = [r for r in rows if not r.cached]
    if not hits or not mined:
        return {}
    seg_wall = statistics.median(s[0] for s in segments)
    seg_cpu = statistics.median(s[1] for s in segments)
    # Program counters of one segment: the sum over its mined jobs.
    summed: Counter = Counter()
    for r in mined:
        summed.update(r.result.metrics)
    counters = _counter_metrics([{k: v / reps for k, v in summed.items()}])
    mined_bare = sum(bare_by_spec[spec_key(r.app, r.params)] for r in mined) / reps
    metrics.update(counters)
    metrics.update(_trace_metrics(tracer, 1, seg_wall, counters,
                                  jobs_per_rep=CLIENTS * SEGMENT_JOBS_PER_CLIENT))
    metrics.update({
        f"service.{k}": (after[k] - before[k]) / reps for k in
        ("submitted", "executed", "cache_hits", "deduped", "rejected", "failed")})
    metrics.update({
        # The root spans are the mined jobs of two concurrent clients:
        # their sum is not the segment wall, so the overhead is taken
        # segment to segment instead.
        "trace.overhead_frac": traced_wall / seg_wall - 1.0,
        "service.cache_hit_rate": len(hits) / len(rows),
        "service.hit_latency_p50_s": statistics.median(hits),
        "service.miss_latency_p50_s": statistics.median(r.wall for r in mined),
        "service.job_wall_p95_s": p95_or_zero([r.wall for r in rows]),
        "service.rtt_us": rtt,
        "kernels.bare_s": mined_bare,
        "kernels.overhead_ratio": seg_cpu / mined_bare,
        "control.cpu_over_wall": seg_cpu / seg_wall,
        "control.noop_job_s": noop,
        "session.submit_overhead_s": statistics.median(
            r.wall - r.result.elapsed_s for r in mined),
        "machine.calib_s": statistics.median(calib),
    })
    return metrics
