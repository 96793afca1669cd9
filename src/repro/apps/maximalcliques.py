"""Distributed enumeration of *all* maximal cliques.

Beyond the paper's MCF (which only reports the largest clique), clique
*listing* is the workload Arabesque/RStream expose in their artifacts
(§VI: "We also ran RStream whose code for TC and clique listing are
provided").  The G-thinker formulation:

* the task spawned from ``v`` materializes ``v``'s full 1-hop ego
  network (one pull round — every neighbor, not just ``Γ_>``, because
  *maximality* must be judged against smaller neighbors too);
* it runs Bron–Kerbosch restricted to cliques containing ``v`` whose
  **minimum member is v** — the ownership rule that makes the union over
  tasks exactly the set of maximal cliques, each reported once.

The restriction is the textbook one: seed BK with ``R = {v}``,
``P = {u in Γ(v) : u > v}``, ``X = {u in Γ(v) : u < v}`` — candidates
are larger neighbors, while smaller neighbors sit in the exclusion set
so any clique extensible by one of them is correctly rejected as
non-maximal.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from ..algorithms.cliques import bron_kerbosch
from ..core.api import Comper, SumAggregator, Task, VertexView

__all__ = ["MaximalCliqueComper", "maximal_cliques_containing_min"]


def maximal_cliques_containing_min(
    adjacency: Dict[int, Set[int]], v: int
) -> Iterator[Tuple[int, ...]]:
    """Maximal cliques of the given graph whose smallest member is ``v``.

    ``adjacency`` must cover ``v``'s closed neighborhood (rows for ``v``
    and every neighbor, each row filtered to that neighborhood).
    """
    nbrs = adjacency[v]
    p = {u for u in nbrs if u > v}
    x = {u for u in nbrs if u < v}
    yield from bron_kerbosch(adjacency, {v}, p, x)


class MaximalCliqueComper(Comper):
    """Enumerates every maximal clique (of at least ``min_size`` vertices).

    Cliques are emitted via ``output()``; the aggregate is their count.
    """

    def __init__(self, min_size: int = 1) -> None:
        super().__init__()
        if min_size < 1:
            raise ValueError("min_size must be >= 1")
        self.min_size = min_size

    def make_aggregator(self) -> SumAggregator:
        return SumAggregator()

    # No trimmer: maximality checks need full adjacency.

    def task_spawn(self, v: VertexView) -> None:
        task = Task(context=v.id)
        task.g.add_vertex(v.id, v.adj, label=v.label)
        task.pull_many(v.adj)
        self.add_task(task)

    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        v = task.context
        # .tolist() boxes np.int64 to python ints, so emitted cliques
        # stay plain-int tuples.
        nbrs = set(task.g.neighbors(v).tolist())
        hood = {v, *nbrs}
        adjacency: Dict[int, Set[int]] = {v: nbrs}
        for view in frontier:
            row = view.adj.tolist() if isinstance(view.adj, np.ndarray) else view.adj
            adjacency[view.id] = {u for u in row if u in hood}
        count = 0
        for clique in maximal_cliques_containing_min(adjacency, v):
            if len(clique) >= self.min_size:
                self.output(clique)
                count += 1
        self.aggregate(count)
        return False
