"""A Pregel-style vertex-centric engine (the Giraph baseline).

The paper compares against Giraph on MCF and TC "to verify that the
vertex-centric model does not scale for subgraph mining".  This module
is a faithful miniature of that model: think-like-a-vertex programs run
in synchronized supersteps, communicate *only* by messages along edges,
and every superstep's messages are fully materialized at the receivers
before the next superstep starts.

That last property is the one the experiments expose: both vertex-centric
subgraph algorithms ship adjacency lists to neighbors, so message volume
is :math:`\\sum_v deg(v)^2` — quadratic in the skewed degrees — which is
simultaneously the network cost (IO-bound time) and the receiver-side
memory blowup (Table III's huge Giraph memory column).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..algorithms.cliques import max_clique
from ..graph import kernels
from ..graph.graph import Graph
from ..graph.partition import hash_partition
from .base import BaselineResult, CostModel

__all__ = ["PregelEngine", "giraph_triangle_count", "giraph_max_clique"]

_MSG_OVERHEAD_BYTES = 16


class PregelContext:
    """Passed to vertex programs each superstep."""

    def __init__(self, engine: "PregelEngine", superstep: int) -> None:
        self._engine = engine
        self.superstep = superstep

    def send(self, dst: int, payload: Any, size_bytes: int) -> None:
        self._engine._send(dst, payload, size_bytes)

    def aggregate(self, value: Any) -> None:
        self._engine._aggregate(value)


class PregelEngine:
    """Superstep-synchronous message passing over hash-partitioned vertices."""

    def __init__(
        self,
        graph: Graph,
        cost: CostModel,
        combine: Optional[Callable[[Any, Any], Any]] = None,
    ) -> None:
        self.graph = graph
        self.cost = cost
        self._combine = combine
        self._aggregated: Any = None
        self._inbox: Dict[int, List[Any]] = {}
        self._outbox: Dict[int, List[Any]] = {}
        self._outbox_bytes = 0.0
        self._remote_bytes = 0.0
        self._current_vertex: Optional[int] = None
        self.supersteps_run = 0

    # -- program-facing ----------------------------------------------------

    def _send(self, dst: int, payload: Any, size_bytes: int) -> None:
        self._outbox.setdefault(dst, []).append(payload)
        total = size_bytes + _MSG_OVERHEAD_BYTES
        self._outbox_bytes += total
        src_m = hash_partition(self._current_vertex, self.cost.machines)
        dst_m = hash_partition(dst, self.cost.machines)
        if src_m != dst_m:
            self._remote_bytes += total

    def _aggregate(self, value: Any) -> None:
        if self._combine is None:
            raise RuntimeError("no combiner configured")
        self._aggregated = (
            value if self._aggregated is None else self._combine(self._aggregated, value)
        )

    # -- driver --------------------------------------------------------------

    def run(self, program, max_supersteps: int) -> Any:
        """``program(vertex_id, adj, messages, ctx)``; halts when no vertex
        sends a message (or after ``max_supersteps``)."""
        graph_bytes = self.graph.memory_estimate_bytes()
        for step in range(max_supersteps):
            ctx = PregelContext(self, step)
            self._outbox = {}
            self._outbox_bytes = 0.0
            self._remote_bytes = 0.0
            t0 = time.perf_counter()
            for v in self.graph.sorted_vertices():
                self._current_vertex = v
                program(v, self.graph.neighbors(v), self._inbox.get(v, ()), ctx)
            self.cost.charge_parallel_cpu(time.perf_counter() - t0)
            # Barrier: every superstep is one network round; messages
            # crossing machines pay bandwidth.
            self.cost.charge_network(self._remote_bytes, rounds=1)
            # Receiver-side materialization: the whole superstep's
            # message volume is resident at once, spread over machines.
            per_machine = (graph_bytes + self._outbox_bytes) / self.cost.machines
            self.cost.observe_memory(per_machine)
            self._inbox = self._outbox
            self.supersteps_run = step + 1
            if not self._inbox:
                break
        return self._aggregated


def giraph_triangle_count(
    graph: Graph, machines: int = 1, threads: int = 1, **cost_kwargs
) -> BaselineResult:
    """TC the vertex-centric way [5]: each vertex ships ``Γ_>(v)`` to every
    larger neighbor, which intersects it with its own ``Γ_>``."""
    cost = CostModel(machines=machines, threads=threads, **cost_kwargs)
    gt = {v: graph.neighbors_gt_array(v) for v in graph.vertices()}
    engine = PregelEngine(graph, cost, combine=lambda a, b: a + b)

    def program(v, adj, messages, ctx):
        if ctx.superstep == 0:
            mine = gt[v]
            if len(mine) >= 2:
                for u in mine.tolist():
                    ctx.send(u, mine, size_bytes=8 * len(mine))
        else:
            total = 0
            mine = gt[v]
            for payload in messages:
                total += kernels.intersect_count(mine, payload)
            if total:
                ctx.aggregate(total)

    answer = engine.run(program, max_supersteps=2)
    result = BaselineResult(
        system="giraph",
        app="tc",
        answer=answer or 0,
        virtual_time_s=cost.total_time_s(),
        peak_memory_bytes=cost.peak_memory_bytes,
        detail=cost.detail(),
    )
    if cost.memory_exceeded():
        result.failed = "out of memory"
        result.answer = None
    return result


def giraph_max_clique(
    graph: Graph, machines: int = 1, threads: int = 1, **cost_kwargs
) -> BaselineResult:
    """MCF the vertex-centric way [24]: each vertex assembles the subgraph
    induced by ``Γ_>(v)`` from neighbor messages, then mines it locally.

    The assembly superstep materializes every vertex's candidate
    subgraph simultaneously — the memory behaviour the paper's Table III
    shows for Giraph.
    """
    cost = CostModel(machines=machines, threads=threads, **cost_kwargs)
    gt = {v: graph.neighbors_gt(v) for v in graph.vertices()}
    best: List[Tuple[int, ...]] = [()]

    def combine(a, b):
        return a if len(a) >= len(b) else b

    engine = PregelEngine(graph, cost, combine=combine)

    def program(v, adj, messages, ctx):
        if ctx.superstep == 0:
            mine = gt[v]
            # Send my upward adjacency to every *smaller* neighbor, so
            # each vertex can induce the subgraph on its Γ_>.
            for u in adj:
                if u < v:
                    ctx.send(u, (v, mine), size_bytes=8 * (1 + len(mine)))
        else:
            cands = set(gt[v])
            if 1 + len(cands) <= len(best[0]):
                return
            sub = {}
            for (u, u_gt) in messages:
                if u in cands:
                    sub[u] = [w for w in u_gt if w in cands]
            # Symmetrize the upward rows for the serial miner.
            full = {u: set() for u in sub}
            for u, row in sub.items():
                for w in row:
                    if w in full:
                        full[u].add(w)
                        full[w].add(u)
            clique = max_clique(
                {u: tuple(sorted(r)) for u, r in full.items()},
                lower_bound=max(0, len(best[0]) - 1),
            )
            found = tuple(sorted({v} | set(clique)))
            if len(found) > len(best[0]):
                best[0] = found
                ctx.aggregate(found)

    answer = engine.run(program, max_supersteps=2)
    result = BaselineResult(
        system="giraph",
        app="mcf",
        answer=answer if answer else best[0],
        virtual_time_s=cost.total_time_s(),
        peak_memory_bytes=cost.peak_memory_bytes,
        detail=cost.detail(),
    )
    if cost.memory_exceeded():
        result.failed = "out of memory"
        result.answer = None
    return result
