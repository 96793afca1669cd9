"""A G-Miner-style engine: the paper's closest competitor, with the two
design decisions the paper blames reproduced faithfully.

G-Miner [6] adopted the task model of the old G-thinker prototype and
added multithreading, but:

* **All tasks are generated up front** into a *disk-resident priority
  queue* keyed by locality-sensitive hashing (LSH) over each task's
  requested vertex set ``P(t)``, to maximize cache reuse between nearby
  tasks.  Because tasks run in LSH order rather than generation order,
  a partially-computed task that must wait for data is *reinserted* into
  the disk queue — and reinsertion IO becomes the dominant cost on big
  graphs (paper §II).  We implement the queue with real pickling and
  modeled disk charges, reinsert once per pull round, and process tasks
  in signature order.
* **The shared RCV cache is one list under one lock**, so cache probes
  from all threads of a machine serialize; we charge that component as
  serial CPU (it does not shrink with more threads).
* **No task decomposition**: a dense hub's task is mined whole by one
  thread — the reason "G-Miner failed to finish any application on BTC
  within 24 hours".  The makespan is therefore lower-bounded by the
  single largest task, which we account explicitly.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.cliques import max_clique
from ..algorithms.matching import QueryGraph, count_matches
from ..graph import kernels
from ..graph.graph import Graph
from ..graph.partition import hash_partition
from .base import BaselineResult, CostModel

__all__ = [
    "gminer_triangle_count",
    "gminer_max_clique",
    "gminer_subgraph_match",
    "lsh_signature",
]

#: Modeled cost of one RCV-cache probe under the global lock (seconds).
_CACHE_PROBE_S = 0.15e-6
_TIME_BUDGET_S = 24 * 3600.0


def lsh_signature(pulled: Sequence[int]) -> Tuple[int, ...]:
    """A min-hash-flavored signature of a task's requested vertex set.

    Four bands, one hash each.  Tasks with overlapping pulls get nearby
    signatures, so sorting by signature clusters them — G-Miner's
    data-reuse ordering.  The hash is evaluated vectorized over the
    whole id array per band (uint64 multiplies wrap mod 2^64, matching
    the python-int `& mask` version).
    """
    arr = kernels.as_ids_array(pulled)
    if arr.size == 0:
        return (0,) * 4
    unsigned = arr.astype(np.uint64)
    sig = []
    for b in range(4):
        mult = np.uint64(
            (0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        )
        sig.append(int(((unsigned * mult) >> np.uint64(40)).min()))
    return tuple(sig)


class _DiskQueue:
    """The disk-resident task priority queue (modeled IO, real ordering)."""

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self._items: List[Tuple[Tuple[int, ...], int, object]] = []
        self._seq = 0
        self.inserts = 0
        self.bytes_written = 0.0

    #: Inserts are buffered and flushed in groups (the real system uses
    #: a B-tree-ish on-disk structure); one seek per this many tasks.
    INSERTS_PER_SEEK = 64

    def insert(self, signature: Tuple[int, ...], task) -> None:
        payload_bytes = len(pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL))
        # Priority-queue maintenance on disk: write the task once, and
        # read it back when dequeued (charged at pop).
        ios = 1 if self.inserts % self.INSERTS_PER_SEEK == 0 else 0
        self.cost.charge_disk(payload_bytes, ios=ios)
        self.bytes_written += payload_bytes
        self._items.append((signature, self._seq, task))
        self._seq += 1
        self.inserts += 1

    def pop_all_in_order(self):
        self._items.sort()
        for _sig, _seq, task in self._items:
            yield task
        self._items = []


def _distribute(vertices, machines: int) -> Dict[int, List[int]]:
    per: Dict[int, List[int]] = {m: [] for m in range(machines)}
    for v in vertices:
        per[hash_partition(v, machines)].append(v)
    return per


def gminer_triangle_count(
    graph: Graph, machines: int = 1, threads: int = 1, **cost_kwargs
) -> BaselineResult:
    """TC on the G-Miner engine: one task per vertex, generated up front."""
    cost = CostModel(machines=machines, threads=threads, **cost_kwargs)
    gt = {v: graph.neighbors_gt_array(v) for v in graph.vertices()}
    total = 0
    longest_task_s = 0.0
    busiest_machine_s = 0.0
    per_machine = _distribute(graph.vertices(), machines)
    for m, vertices in per_machine.items():
        queue = _DiskQueue(cost)
        for v in vertices:
            mine = gt[v]
            if len(mine) >= 2:
                queue.insert(lsh_signature(mine), (v, mine))
        # Every task waits for its pulled vertices once => one reinsert
        # (write + later read of the partially-computed task).
        reinserted_bytes = 2 * queue.bytes_written
        cost.charge_disk(
            reinserted_bytes, ios=max(1, queue.inserts // _DiskQueue.INSERTS_PER_SEEK)
        )
        machine_s = 0.0
        for (v, mine) in queue.pop_all_in_order():
            t0 = time.perf_counter()
            count = 0
            for u in mine:
                count += kernels.intersect_count(mine, gt[int(u)])
                cost.charge_serial_cpu(_CACHE_PROBE_S)  # RCV-cache probe
            total += count
            dt = time.perf_counter() - t0
            cost.charge_parallel_cpu(dt)
            machine_s += dt
            longest_task_s = max(longest_task_s, dt)
        busiest_machine_s = max(busiest_machine_s, machine_s)
    # The makespan cannot beat the busiest machine's own task stream
    # spread over its threads (hash placement is not perfectly even).
    longest_task_s = max(longest_task_s, busiest_machine_s / threads)
    cost.observe_memory(graph.memory_estimate_bytes() / machines + (4 << 20))
    elapsed = max(cost.total_time_s(), longest_task_s * cost.machine.cpu_speed)
    failed = "exceeded 24 hr" if elapsed > _TIME_BUDGET_S else None
    return BaselineResult(
        system="gminer",
        app="tc",
        answer=None if failed else total,
        virtual_time_s=elapsed,
        peak_memory_bytes=cost.peak_memory_bytes,
        failed=failed,
        detail=cost.detail(),
    )


def gminer_max_clique(
    graph: Graph, machines: int = 1, threads: int = 1, **cost_kwargs
) -> BaselineResult:
    """MCF on the G-Miner engine.

    Each vertex's task mines the whole subgraph induced by ``Γ_>(v)`` —
    no decomposition — and the incumbent bound is shared only within a
    machine (G-Miner has no global aggregator), so pruning is weaker
    than G-thinker's.
    """
    cost = CostModel(machines=machines, threads=threads, **cost_kwargs)
    gt = {v: graph.neighbors_gt_array(v) for v in graph.vertices()}
    adj = {v: graph.neighbors(v) for v in graph.vertices()}
    best: Tuple[int, ...] = ()
    longest_task_s = 0.0
    per_machine = _distribute(graph.vertices(), machines)
    for m, vertices in per_machine.items():
        queue = _DiskQueue(cost)
        for v in vertices:
            if gt[v].size:
                queue.insert(lsh_signature(gt[v]), v)
        reinserted_bytes = 2 * queue.bytes_written
        cost.charge_disk(
            reinserted_bytes, ios=max(1, queue.inserts // _DiskQueue.INSERTS_PER_SEEK)
        )
        machine_best: Tuple[int, ...] = ()
        machine_s = 0.0
        for v in queue.pop_all_in_order():
            t0 = time.perf_counter()
            cands = set(gt[v].tolist())
            cost.charge_serial_cpu(_CACHE_PROBE_S * max(1, len(cands)))
            if 1 + len(cands) > len(machine_best):
                sub = {
                    u: tuple(w for w in adj[u] if w in cands)
                    for u in cands
                }
                clique = max_clique(sub, lower_bound=max(0, len(machine_best) - 1))
                found = tuple(sorted({v} | set(clique)))
                if len(found) > len(machine_best):
                    machine_best = found
            dt = time.perf_counter() - t0
            cost.charge_parallel_cpu(dt)
            machine_s += dt
            longest_task_s = max(longest_task_s, dt)
        if len(machine_best) > len(best):
            best = machine_best
        longest_task_s = max(longest_task_s, machine_s / threads)
    cost.observe_memory(graph.memory_estimate_bytes() / machines + (4 << 20))
    elapsed = max(cost.total_time_s(), longest_task_s * cost.machine.cpu_speed)
    failed = "exceeded 24 hr" if elapsed > _TIME_BUDGET_S else None
    return BaselineResult(
        system="gminer",
        app="mcf",
        answer=None if failed else best,
        virtual_time_s=elapsed,
        peak_memory_bytes=cost.peak_memory_bytes,
        failed=failed,
        detail=cost.detail(),
    )


def gminer_subgraph_match(
    graph: Graph,
    query: QueryGraph,
    machines: int = 1,
    threads: int = 1,
    **cost_kwargs,
) -> BaselineResult:
    """GM on the G-Miner engine: one anchored task per candidate vertex.

    Each task materializes its anchor's r-hop neighborhood; every hop is
    one more pull round, hence one more disk-queue reinsertion of the
    task (with its partially built subgraph serialized each time — the
    reinsertion blow-up the paper identifies as G-Miner's dominant cost).
    """
    from ..apps.match import query_radius

    cost = CostModel(machines=machines, threads=threads, **cost_kwargs)
    radius = query_radius(query)
    q0 = query.order[0]
    q0_label = query.labels[q0]
    total = 0
    longest_task_s = 0.0
    per_machine = _distribute(graph.vertices(), machines)
    for m, vertices in per_machine.items():
        queue = _DiskQueue(cost)
        anchors = [v for v in vertices if graph.label(v) == q0_label]
        for v in anchors:
            queue.insert(lsh_signature(graph.neighbors(v)), v)
        machine_s = 0.0
        for v in queue.pop_all_in_order():
            t0 = time.perf_counter()
            # Materialize the r-hop ego network hop by hop; each hop is
            # one wait -> one reinsertion of the (growing) task.
            ego = {v}
            frontier = [v]
            sub_bytes = 64
            for _hop in range(radius):
                nxt = []
                for u in frontier:
                    cost.charge_serial_cpu(_CACHE_PROBE_S)
                    for w in graph.neighbors(u):
                        if w not in ego:
                            ego.add(w)
                            nxt.append(w)
                            sub_bytes += 16 + 8 * len(graph.neighbors(w))
                frontier = nxt
                cost.charge_disk(sub_bytes, ios=1)  # reinsertion round-trip
                if not frontier:
                    break
            data = Graph(
                {u: [w for w in graph.neighbors(u) if w in ego] for u in ego},
                labels={u: graph.label(u) for u in ego if graph.label(u)},
            )
            total += count_matches(data, query, anchor=(q0, v))
            dt = time.perf_counter() - t0
            cost.charge_parallel_cpu(dt)
            machine_s += dt
            longest_task_s = max(longest_task_s, dt)
        longest_task_s = max(longest_task_s, machine_s / threads)
    cost.observe_memory(graph.memory_estimate_bytes() / machines + (4 << 20))
    elapsed = max(cost.total_time_s(), longest_task_s * cost.machine.cpu_speed)
    failed = "exceeded 24 hr" if elapsed > _TIME_BUDGET_S else None
    return BaselineResult(
        system="gminer",
        app="gm",
        answer=None if failed else total,
        virtual_time_s=elapsed,
        peak_memory_bytes=cost.peak_memory_bytes,
        failed=failed,
        detail=cost.detail(),
    )
