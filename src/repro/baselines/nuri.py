"""A Nuri-style single-threaded prioritized miner.

Nuri [13] finds the most relevant subgraphs by *best-first* expansion:
a priority queue of partial subgraphs ordered by an optimistic score,
expanded one at a time by a single thread.  Two consequences the paper
points at, both reproduced:

* best-first order keeps an enormous frontier of buffered partial
  subgraphs alive (depth-first would keep only one path), so the pool
  overflows memory and pages to disk — charged to the disk model;
* one thread means no parallelism at all: "Nuri is implemented as a
  single-threaded Java program while G-thinker can use all CPU cores".

We instantiate it for maximum-clique search (the paper's comparison
point: Nuri takes >1000 s on Youtube's maximum clique vs. 9.4 s for
8-thread single-machine G-thinker).
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Set, Tuple

from ..graph.graph import Graph
from .base import BaselineResult, CostModel

__all__ = ["nuri_max_clique"]

#: Modeled bytes per buffered search state.
_STATE_BYTES = 96

#: States the in-memory pool holds; the rest are modeled as spilled.
_MEMORY_POOL_STATES = 100_000

#: Modeled per-state framework cost, in seconds.
_STATE_OVERHEAD_S = 50e-6


def nuri_max_clique(
    graph: Graph,
    max_states: int = 20_000_000,
    **cost_kwargs,
) -> BaselineResult:
    """Best-first maximum-clique search, single-threaded.

    States are ``(S, candidates)`` scored by the optimistic bound
    ``|S| + |candidates|``; the largest-bound state expands first.
    States beyond ``_MEMORY_POOL_STATES`` are modeled as spilled to disk
    (round-trip IO charged).  ``max_states`` is a simulation safety cap.

    ``_STATE_OVERHEAD_S`` charges Nuri's per-state *framework* cost: the
    real system materializes a generic subgraph object, scores it with
    its relevance function and round-trips it through the buffered pool
    for every expansion, which is what makes it orders of magnitude
    slower than a dedicated solver (paper: >1000 s on Youtube's maximum
    clique).  Our raw Python loop would otherwise under-represent it.
    """
    cost = CostModel(machines=1, threads=1, **cost_kwargs)
    gt = {v: graph.neighbors_gt(v) for v in graph.vertices()}
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices()}

    heap: List[Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]] = []
    seq = 0
    t0 = time.perf_counter()
    for v in graph.sorted_vertices():
        cands = gt[v]
        heapq.heappush(heap, (-(1 + len(cands)), seq, (v,), cands))
        seq += 1
    best: Tuple[int, ...] = ()
    expanded = 0
    peak_states = len(heap)
    spilled_states = 0
    while heap:
        neg_bound, _s, clique, cands = heapq.heappop(heap)
        if -neg_bound <= len(best):
            # Best-first: the top bound can't beat the incumbent,
            # so nothing else can either.
            break
        for i, u in enumerate(cands):
            nxt = tuple(w for w in cands[i + 1:] if w in adj[u])
            new_clique = clique + (u,)
            if len(new_clique) > len(best):
                best = new_clique
            bound = len(new_clique) + len(nxt)
            if nxt and bound > len(best):
                heapq.heappush(heap, (-bound, seq, new_clique, nxt))
                seq += 1
        expanded += 1
        if len(heap) > peak_states:
            peak_states = len(heap)
        if len(heap) > _MEMORY_POOL_STATES:
            # The overflow portion lives on disk; every expansion cycle
            # pages one batch out and back.
            spilled_states += len(heap) - _MEMORY_POOL_STATES
        if expanded > max_states:
            cost.charge_parallel_cpu(time.perf_counter() - t0)
            return BaselineResult(
                system="nuri",
                app="mcf",
                failed=f"exceeded {max_states} state expansions",
                virtual_time_s=cost.total_time_s(),
                peak_memory_bytes=_STATE_BYTES * peak_states,
                detail=cost.detail(),
            )
    cost.charge_serial_cpu(time.perf_counter() - t0)
    cost.charge_serial_cpu(_STATE_OVERHEAD_S * (expanded + seq))
    cost.charge_disk(2 * _STATE_BYTES * spilled_states, ios=max(1, spilled_states // 4096))
    in_memory = min(peak_states, _MEMORY_POOL_STATES)
    cost.observe_memory(
        graph.memory_estimate_bytes() + _STATE_BYTES * in_memory + (8 << 20)
    )
    return BaselineResult(
        system="nuri",
        app="mcf",
        answer=best,
        virtual_time_s=cost.total_time_s(),
        peak_memory_bytes=cost.peak_memory_bytes,
        detail=cost.detail(),
    )
