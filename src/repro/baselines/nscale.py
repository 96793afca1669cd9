"""An NScale-style two-phase engine.

NScale [23] (closed-source; Table I row only) mines k-hop neighborhood
subgraphs in two strictly separated phases:

1. **materialize** — construct the subgraph around every vertex via k
   rounds of MapReduce-style BFS ("this design requires that all
   subgraphs be constructed before any of them can begin its mining");
2. **mine** — process the materialized subgraphs in parallel.

The phase barrier is the paper's critique: during phase 1 the CPUs do
IO-shaped shuffling while the mining cores idle, and the *slowest*
subgraph construction delays every mining task (the straggler problem).
We reproduce both: phase 1 is charged as shuffle IO plus linear CPU,
phase 2 as parallel mining, and they never overlap.
"""

from __future__ import annotations

import time
from typing import Dict, List, Set, Tuple

from ..algorithms.cliques import max_clique
from ..graph.graph import Graph
from .base import BaselineResult, CostModel

__all__ = ["nscale_max_clique"]

_ROW_BYTES = 16  # shuffle record overhead per adjacency row


def _materialize_egos(
    graph: Graph, cost: CostModel, hops: int, upward_only: bool,
    phase_seconds: Dict[str, float] = None,
) -> Dict[int, Dict[int, Tuple[int, ...]]]:
    """Phase 1: build every vertex's ``hops``-hop subgraph via BFS rounds.

    Every round re-shuffles each frontier row to the subgraph owners —
    the k rounds of MapReduce the paper describes — so the same
    adjacency row crosses the network once per subgraph that wants it.
    """
    t0 = time.perf_counter()
    shuffle_bytes = 0.0
    egos: Dict[int, Set[int]] = {}
    for v in graph.vertices():
        seed = graph.neighbors_gt(v) if upward_only else graph.neighbors(v)
        egos[v] = {v, *seed}
        shuffle_bytes += _ROW_BYTES + 8 * len(seed)
    for _round in range(1, hops):
        for v, members in egos.items():
            frontier = [u for u in list(members) if u != v]
            for u in frontier:
                row = graph.neighbors_gt(u) if upward_only else graph.neighbors(u)
                before = len(members)
                members.update(row)
                shuffle_bytes += _ROW_BYTES + 8 * (len(members) - before)
    materialized = {
        v: {
            u: tuple(w for w in (
                graph.neighbors_gt(u) if upward_only else graph.neighbors(u)
            ) if w in members)
            for u in members
        }
        for v, members in egos.items()
    }
    elapsed = time.perf_counter() - t0
    cost.charge_parallel_cpu(elapsed)
    cost.charge_network(shuffle_bytes, rounds=hops)
    if phase_seconds is not None:
        phase_seconds["materialize_cpu_s"] = elapsed
        phase_seconds["materialize_net_bytes"] = shuffle_bytes
    # The whole materialized set exists before mining starts.
    total_bytes = sum(
        _ROW_BYTES + 8 * sum(len(r) for r in sub.values())
        for sub in materialized.values()
    )
    cost.observe_memory(total_bytes / cost.machines)
    return materialized


def nscale_max_clique(
    graph: Graph, machines: int = 1, threads: int = 1, **cost_kwargs
) -> BaselineResult:
    """MCF on the NScale model: all Γ_> subgraphs first, then mine each.

    No shared incumbent bound exists across the phase barrier (pruning
    cannot start until materialization finished everywhere), which is
    part of why the two-phase model wastes work.
    """
    cost = CostModel(machines=machines, threads=threads, **cost_kwargs)
    phases: Dict[str, float] = {}
    subs = _materialize_egos(graph, cost, hops=1, upward_only=True,
                             phase_seconds=phases)
    failed = "out of memory" if cost.memory_exceeded() else None
    best: Tuple[int, ...] = ()
    if not failed:
        t0 = time.perf_counter()
        for v, sub in subs.items():
            cands = set(sub) - {v}
            if 1 + len(cands) <= len(best):
                continue
            undirected: Dict[int, Set[int]] = {u: set() for u in cands}
            for u in cands:
                for w in sub.get(u, ()):
                    if w in undirected:
                        undirected[u].add(w)
                        undirected[w].add(u)
            clique = max_clique(
                {u: tuple(sorted(r)) for u, r in undirected.items()},
                lower_bound=max(0, len(best) - 1),
            )
            found = tuple(sorted({v} | set(clique)))
            if len(found) > len(best):
                best = found
        phases["mine_cpu_s"] = time.perf_counter() - t0
        cost.charge_parallel_cpu(phases["mine_cpu_s"])
    detail = cost.detail()
    detail.update(phases)
    return BaselineResult(
        system="nscale",
        app="mcf",
        answer=None if failed else best,
        virtual_time_s=cost.total_time_s(),
        peak_memory_bytes=cost.peak_memory_bytes,
        failed=failed,
        detail=detail,
    )
