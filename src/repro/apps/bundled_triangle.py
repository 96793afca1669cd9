"""Triangle counting with low-degree task bundling.

The paper's §VI observes that "tasks spawned from many low-degree
vertices do not generate large enough subgraphs to hide IO cost in the
computation" and points to bundling them into bigger tasks ([38]) as
future work.  This app implements that idea on top of the unchanged
engine:

* vertices with ``|Γ_>(v)| >= heavy_threshold`` spawn their own task,
  exactly like :class:`~repro.apps.triangle.TriangleCountComper`;
* low-degree vertices accumulate into a *bundle*; once the bundle holds
  ``bundle_size`` vertices (or the spawn cursor exhausts —
  ``spawn_flush``), one task is created that pulls the union of their
  candidate sets and counts all their triangles in a single iteration.

Bundling amortizes the per-task costs the paper worries about — the
request round-trip, the parking/wake cycle, and the scheduling step —
across many small vertices; the ablation bench
``benchmarks/bench_ablation_bundling.py`` measures the effect.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..core.api import SumAggregator, Task, VertexView
from ..graph import kernels
from .common import BundlingComper, GtTrimmer

__all__ = ["BundledTriangleCountComper"]


class BundledTriangleCountComper(BundlingComper):
    """TC with low-degree vertices bundled into shared tasks."""

    def __init__(self, bundle_size: int = 32, heavy_threshold: int = 16) -> None:
        super().__init__(bundle_size)
        if heavy_threshold < 2:
            raise ValueError("heavy_threshold must be >= 2")
        self.heavy_threshold = heavy_threshold

    def make_aggregator(self) -> SumAggregator:
        return SumAggregator()

    def make_trimmer(self) -> GtTrimmer:
        return GtTrimmer()

    # -- spawning ----------------------------------------------------------

    def task_spawn(self, v: VertexView) -> None:
        if len(v.adj) < 2:
            return  # no triangle has v as its smallest vertex
        self.spawn_member((v.id, v.adj), len(v.adj) >= self.heavy_threshold)

    def emit_bundle(self, members: List[Tuple[int, Sequence[int]]]) -> None:
        # t.g holds each member's row Γ_>(v); the task needs no context.
        task = Task()
        for v, gt in members:
            task.g.add_vertex(v, gt)
            task.pull_many(gt)  # dedupes across bundle members
        self.add_task(task)

    # -- computing ------------------------------------------------------------

    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        adj_of: Dict[int, Sequence[int]] = {view.id: view.adj for view in frontier}
        count = 0
        for gt_v in task.g.adjacency().values():
            # One fused kernel call per bundle member, as in plain TC.
            count += kernels.intersect_count_many(
                gt_v, [adj_of[u] for u in kernels.as_ids_array(gt_v).tolist()]
            )
        self.aggregate(count)
        return False
