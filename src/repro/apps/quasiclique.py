"""Maximal γ-quasi-clique enumeration — the paper's running API example.

For ``γ >= 0.5`` any two members of a γ-quasi-clique are within two hops
([17]), so the task spawned from vertex ``v`` materializes ``v``'s 2-hop
ego network over two pull iterations ("request its neighbors in
Iteration 1, and when receiving them, request the 2nd-hop neighbors in
Iteration 2") and mines it serially.

Ownership / de-duplication: task ``v`` reports exactly the maximal
quasi-cliques whose *smallest* member is ``v``.  Maximality is judged
inside the full 2-hop ego network (which provably contains every
qualifying superset of any set containing ``v``), so the union over all
tasks is exactly the globally maximal quasi-cliques of size >=
``min_size`` — no post-processing needed.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..algorithms.quasicliques import enumerate_quasi_cliques
from ..core.api import Comper, SumAggregator, Task, VertexView
from .common import pull_next_hop

__all__ = ["QuasiCliqueComper"]


class QuasiCliqueComper(Comper):
    """Enumerates maximal γ-quasi-cliques with at least ``min_size`` members.

    Each found quasi-clique is emitted via ``output()``; the aggregate
    is their total count.
    """

    def __init__(self, gamma: float = 0.6, min_size: int = 4) -> None:
        super().__init__()
        if gamma < 0.5:
            raise ValueError(
                "the 2-hop materialization bound requires gamma >= 0.5 "
                f"(got {gamma}); see [17]"
            )
        if not gamma <= 1.0:
            raise ValueError(f"gamma must be <= 1, got {gamma}")
        self.gamma = gamma
        self.min_size = min_size

    def make_aggregator(self) -> SumAggregator:
        return SumAggregator()

    # -- UDFs -------------------------------------------------------------

    def task_spawn(self, v: VertexView) -> None:
        # A member of a qualifying set needs degree >= ceil(γ(min_size-1)).
        if len(v.adj) < math.ceil(self.gamma * (self.min_size - 1)):
            return
        task = Task(context=(v.id, 0))  # (root, iteration)
        task.g.add_vertex(v.id, v.adj, label=v.label)
        task.pull_many(v.adj)
        self.add_task(task)

    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        root, iteration = task.context
        iteration += 1
        task.context = (root, iteration)
        for view in frontier:
            if view.id not in task.g:
                task.g.add_vertex(view.id, view.adj, label=view.label)
        if iteration == 1:
            # Iteration 2 of the paper's description: pull the 2nd hop.
            pull_next_hop(task, frontier)
            if task.pending_pulls():
                return True
        self._mine(task)
        return False

    # -- serial mining -----------------------------------------------------------

    def _mine(self, task: Task) -> None:
        root = task.context[0]
        ego = set(task.g.vertices())
        # .tolist(): python ints, so emitted quasi-cliques stay plain.
        adjacency = {
            v: [u for u in task.g.neighbors(v).tolist() if u in ego]
            for v in ego
        }
        count = 0
        for qc in enumerate_quasi_cliques(
            adjacency, self.gamma, min_size=self.min_size, restrict_min_vertex=root
        ):
            self.output(qc)
            count += 1
        self.aggregate(count)
