"""Serial gamma-quasi-clique mining (Quick-style, after [17]).

A vertex set ``S`` is a *gamma-quasi-clique* if every member is adjacent
to at least ``ceil(gamma * (|S| - 1))`` other members.  The paper uses
quasi-clique mining as its running API example: for ``gamma >= 0.5`` any
two members are within two hops, so a task spawned at vertex ``v`` can
materialize ``v``'s 2-hop ego network and mine it locally.

We implement the set-enumeration search with the two standard prunings
from Liu & Wong's Quick algorithm:

* **degree upper bound**: a candidate whose degree inside
  ``S ∪ cand`` cannot reach the threshold even if everything joins is
  dropped;
* **extensibility**: if some member of ``S`` can never reach its
  required in-set degree even with all candidates added, the whole
  branch dies.

Only *maximal* quasi-cliques of at least ``min_size`` vertices are
reported, mirroring the problem statement of [17].
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from ..graph.graph import Graph

__all__ = [
    "is_quasi_clique",
    "enumerate_quasi_cliques",
    "quasi_cliques_reference",
]


def _adj_sets(g) -> Dict[int, Set[int]]:
    if isinstance(g, Graph):
        return {v: set(g.neighbors(v)) for v in g.vertices()}
    return {v: set(a) for v, a in g.items()}


def _required_degree(gamma: float, size: int) -> int:
    return math.ceil(gamma * (size - 1))


def is_quasi_clique(g, vertices: Sequence[int], gamma: float) -> bool:
    """Check the gamma-quasi-clique condition on a vertex set."""
    adj = _adj_sets(g)
    vset = set(vertices)
    if not vset:
        return False
    need = _required_degree(gamma, len(vset))
    return all(len(adj[v] & vset) >= need for v in vset)


def enumerate_quasi_cliques(
    g,
    gamma: float,
    min_size: int = 3,
    restrict_min_vertex: int = -1,
) -> Iterator[Tuple[int, ...]]:
    """Yield maximal gamma-quasi-cliques with at least ``min_size`` vertices.

    Parameters
    ----------
    restrict_min_vertex:
        When >= 0, only report quasi-cliques whose smallest vertex equals
        this id.  This is the distributed de-duplication rule: the task
        spawned from ``v`` owns exactly the results whose minimum is
        ``v`` (same role as :math:`\\Gamma_>` in clique search).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")
    if min_size < 2:
        raise ValueError("min_size must be >= 2")
    adj = _adj_sets(g)
    qualifying: Set[FrozenSet[int]] = set()

    all_vertices = sorted(adj)

    def in_degree(v: int, members: Set[int]) -> int:
        return len(adj[v] & members)

    def qualifies(members: Set[int]) -> bool:
        need = _required_degree(gamma, len(members))
        return all(in_degree(v, members) >= need for v in members)

    def prune_candidates(members: Set[int], cand: List[int]) -> List[int]:
        # Sound drop rule: any qualifying quasi-clique Q containing a
        # candidate u satisfies Q ⊆ members ∪ cand, |Q| >= max(|members|+1,
        # min_size), and deg_Q(u) <= deg_(members ∪ cand)(u).  Since the
        # required degree ceil(gamma * (|Q| - 1)) is monotone in |Q|, u
        # can be dropped when even its best-case degree misses the
        # *smallest* possible requirement.  Iterate to a fixpoint because
        # dropping one candidate lowers others' best-case degrees.
        current = list(cand)
        while True:
            total = members | set(current)
            floor_size = max(len(members) + 1, min_size)
            need_min = _required_degree(gamma, floor_size)
            kept = [u for u in current if in_degree(u, total) >= need_min]
            if len(kept) == len(current):
                return kept
            current = kept

    def branch_alive(members: Set[int], cand: List[int]) -> bool:
        # Sound branch kill: every qualifying Q in this branch contains
        # all of `members` and at most the candidates, so a member whose
        # best-case degree cannot reach the minimum possible requirement
        # dooms the entire branch.
        if not members:
            return True
        total = members | set(cand)
        floor_size = max(len(members), min_size)
        need_min = _required_degree(gamma, floor_size)
        return all(in_degree(v, total) >= need_min for v in members)

    # Quasi-cliques are not hereditary, so maximality must be judged
    # against *all* qualifying sets, including those whose minimum vertex
    # is smaller than a reported set's minimum.  We therefore always
    # enumerate over the whole given graph and apply the min-vertex
    # ownership filter only when reporting.  (For distributed use the
    # given graph must contain the owner's full 2-hop ego network, which
    # is exactly what a quasi-clique task materializes.)
    #
    # Per root, depth-first over an explicit stack of (members,
    # candidates) branches; children are pushed in reverse so they pop in
    # candidate order.
    for i, v in enumerate(all_vertices):
        stack = [({v}, all_vertices[i + 1:])]
        while stack:
            members, cand = stack.pop()
            cand = prune_candidates(members, cand)
            if not branch_alive(members, cand):
                continue
            if len(members) >= min_size and qualifies(members):
                qualifying.add(frozenset(members))
            stack.extend((members | {u}, cand[j + 1:])
                         for j, u in reversed(list(enumerate(cand))))

    by_size: Dict[int, List[FrozenSet[int]]] = {}
    for q in qualifying:
        by_size.setdefault(len(q), []).append(q)
    sizes = sorted(by_size, reverse=True)
    for q in sorted(qualifying, key=lambda s: (len(s), sorted(s))):
        if restrict_min_vertex >= 0 and min(q) != restrict_min_vertex:
            continue
        has_superset = any(
            q < bigger
            for size in sizes
            if size > len(q)
            for bigger in by_size[size]
        )
        if not has_superset:
            yield tuple(sorted(q))


def quasi_cliques_reference(g, gamma: float, min_size: int = 3) -> Set[Tuple[int, ...]]:
    """Brute-force oracle: test every vertex subset (tiny graphs only)."""
    from itertools import combinations

    adj = _adj_sets(g)
    verts = sorted(adj)
    if len(verts) > 16:
        raise ValueError("reference oracle is exponential; use <= 16 vertices")
    qcs: Set[FrozenSet[int]] = set()
    for size in range(min_size, len(verts) + 1):
        for combo in combinations(verts, size):
            if is_quasi_clique(g, combo, gamma):
                qcs.add(frozenset(combo))
    maximal = {
        q for q in qcs
        if not any(q < other for other in qcs)
    }
    return {tuple(sorted(q)) for q in maximal}
