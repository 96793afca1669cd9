"""k-core decomposition and degeneracy ordering.

Standard subgraph-mining preprocessing (Matula–Beck peeling, O(|E|)):

* the *core number* of ``v`` is the largest k such that v belongs to a
  subgraph of minimum degree k;
* the *degeneracy order* lists vertices as peeled; every vertex has at
  most ``degeneracy`` neighbors later in the order.

Used here the way clique miners use it: a vertex with core number
``< k - 1`` cannot belong to a k-clique, so the aggregator's incumbent
bound turns core numbers into a spawn-time pruning rule
(:class:`repro.apps.maxclique.MaxCliqueComper` with
``use_core_pruning=True``), and the greedy clique seed from the
degeneracy order gives branch-and-bound a strong initial incumbent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .graph import Graph

__all__ = ["core_numbers", "degeneracy_order", "degeneracy", "greedy_clique_seed"]


def core_numbers(g: Graph) -> Dict[int, int]:
    """Core number per vertex via bucketed peeling (O(|V| + |E|))."""
    degrees = {v: g.degree(v) for v in g.vertices()}
    if not degrees:
        return {}
    max_deg = max(degrees.values())
    buckets: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for v, d in degrees.items():
        buckets[d].append(v)
    core: Dict[int, int] = {}
    current = dict(degrees)
    removed = set()
    k = 0
    for d in range(max_deg + 1):
        stack = buckets[d]
        while stack:
            v = stack.pop()
            if v in removed or current[v] > d:
                # stale bucket entry; v was re-bucketed at a lower degree
                continue
            k = max(k, current[v])
            core[v] = k
            removed.add(v)
            for u in g.neighbors(v):
                if u not in removed and current[u] > current[v]:
                    current[u] -= 1
                    buckets[current[u]].append(u)
    return core


def degeneracy_order(g: Graph) -> List[int]:
    """Peeling order: each vertex has <= degeneracy neighbors *after* it."""
    degrees = {v: g.degree(v) for v in g.vertices()}
    order: List[int] = []
    if not degrees:
        return order
    max_deg = max(degrees.values())
    buckets: List[List[int]] = [[] for _ in range(max_deg + 1)]
    for v, d in degrees.items():
        buckets[d].append(v)
    current = dict(degrees)
    removed = set()
    pointer = 0
    while len(order) < len(degrees):
        # find the lowest non-empty bucket with a live entry
        while pointer <= max_deg:
            found = None
            while buckets[pointer]:
                cand = buckets[pointer].pop()
                if cand not in removed and current[cand] == pointer:
                    found = cand
                    break
            if found is not None:
                v = found
                break
            pointer += 1
        else:  # pragma: no cover - unreachable on consistent state
            break
        order.append(v)
        removed.add(v)
        for u in g.neighbors(v):
            if u not in removed:
                current[u] -= 1
                buckets[max(current[u], 0)].append(u)
        pointer = max(0, pointer - 1)
    return order


def degeneracy(g: Graph) -> int:
    """The graph's degeneracy (max core number)."""
    cores = core_numbers(g)
    return max(cores.values(), default=0)


def greedy_clique_seed(g: Graph) -> Tuple[int, ...]:
    """A greedy clique grown from the densest end of the degeneracy order.

    Cheap and often large on clique-bearing graphs; used to seed the
    maximum-clique aggregator so branch-and-bound pruning starts tight.
    At most the last 64 vertices of the order are tried as starts.
    """
    order = degeneracy_order(g)
    reverse = list(reversed(order))
    best: Tuple[int, ...] = ()
    for v in reverse[:64]:
        if g.degree(v) + 1 <= len(best):
            continue
        clique = [v]
        cand = set(g.neighbors(v))
        for u in reverse:
            if u in cand:
                clique.append(u)
                cand &= set(g.neighbors(u))
                if not cand:
                    break
        if len(clique) > len(best):
            best = tuple(sorted(clique))
    return best
