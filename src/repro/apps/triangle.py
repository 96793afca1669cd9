"""Triangle counting (TC) — one of the paper's three evaluation apps.

With every adjacency list trimmed to ``Γ_>``, the task spawned from
vertex ``u`` pulls ``Γ_>(v)`` for each ``v ∈ Γ_>(u)`` and counts
``|Γ_>(u) ∩ Γ_>(v)|`` — each triangle ``u < v < w`` is counted exactly
once, at its smallest vertex.  Counts flow into a sum aggregator that
the master folds periodically (the paper: "each task can sum the number
of triangles currently found to a local aggregator in its machine").

Tasks are single-iteration after the pull round, so TC stresses exactly
what the paper says it stresses: vertex-pull throughput and cache
concurrency, not deep task recursion.
"""

from __future__ import annotations

from typing import Sequence

from ..core.api import Comper, SumAggregator, Task, VertexView
from ..graph import kernels
from .common import GtTrimmer

__all__ = ["TriangleCountComper"]


class TriangleCountComper(Comper):
    """Counts all triangles; the job aggregate is the global count."""

    def __init__(self, list_triangles: bool = False) -> None:
        super().__init__()
        self._list = list_triangles

    def make_aggregator(self) -> SumAggregator:
        return SumAggregator()

    def make_trimmer(self) -> GtTrimmer:
        return GtTrimmer()

    def task_spawn(self, v: VertexView) -> None:
        # adj is already Γ_>(v); fewer than 2 larger neighbors -> no
        # triangle has v as its smallest vertex.
        if len(v.adj) < 2:
            return
        # t.g holds the one row Γ_>(u); the task needs no context.
        task = Task()
        task.g.add_vertex(v.id, v.adj)
        task.pull_many(v.adj)
        self.add_task(task)

    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        ((u, gt_u),) = task.g.adjacency().items()
        count = 0
        if self._list:
            for view in frontier:
                # view.adj is Γ_>(view.id) thanks to the trimmer.
                for w in kernels.intersect(gt_u, view.adj).tolist():
                    self.output((u, int(view.id), w))
                    count += 1
        else:
            # Whole frontier in one fused kernel call (view.adj is
            # Γ_>(view.id) thanks to the trimmer).
            count = kernels.intersect_count_many(
                gt_u, [view.adj for view in frontier]
            )
        self.aggregate(count)
        return False
