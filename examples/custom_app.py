"""Writing your own G-thinker application: k-truss-style edge support.

The public API recap:

* subclass :class:`repro.Comper`;
* ``task_spawn(v)`` creates tasks from local vertices (``add_task``);
* ``compute(task, frontier)`` runs one iteration; ``task.pull(u)``
  requests Γ(u) for the next one; return True to keep iterating;
* optional plug-ins: ``make_aggregator`` and ``make_trimmer``.

This app computes, for every edge (u, v) with u < v, its *support* (the
number of triangles containing it) and reports edges whose support is at
least ``k - 2`` — the per-edge filter step of k-truss decomposition.

Run:  python examples/custom_app.py
"""

from repro import Comper, GThinkerConfig, SumAggregator, Task, VertexView, run_job
from repro.apps.common import GtTrimmer
from repro.graph import erdos_renyi, kernels


class EdgeSupportComper(Comper):
    """Emits every edge whose support reaches ``k - 2``."""

    def __init__(self, k: int = 4) -> None:
        super().__init__()
        if k < 3:
            raise ValueError("k-truss needs k >= 3")
        self.k = k

    def make_aggregator(self) -> SumAggregator:
        return SumAggregator()  # counts qualifying edges

    def make_trimmer(self) -> GtTrimmer:
        return GtTrimmer()  # adjacency lists arrive as Γ_>

    def task_spawn(self, v: VertexView) -> None:
        if not len(v.adj):  # v.adj is an ndarray on the hot path
            return
        # Rows a task keeps go in its subgraph t.g (docs/API.md, "The
        # task context"); the task needs no context.
        task = Task()
        task.g.add_vertex(v.id, v.adj)
        for u in v.adj:
            task.pull(u)
        self.add_task(task)

    def compute(self, task: Task, frontier) -> bool:
        ((u, gt_u),) = task.g.adjacency().items()
        for view in frontier:
            # support of edge (u, view.id): common larger neighbors plus
            # triangles closed through smaller vertices are counted by
            # the task of that smaller vertex; summing per-edge over all
            # tasks gives full support.  For the demo we use the upward
            # support only, which is exact for edges counted at their
            # smallest endpoint.
            support = kernels.intersect_count(gt_u, view.adj)
            if support >= self.k - 2:
                self.output(((u, int(view.id)), support))
                self.aggregate(1)
        return False


def main() -> None:
    graph = erdos_renyi(150, 0.1, seed=7)
    config = GThinkerConfig(num_workers=3, compers_per_worker=2)
    k = 4
    result = run_job(lambda: EdgeSupportComper(k=k), graph, config)
    print(f"edges with upward support >= {k - 2}: {result.aggregate}")
    for (edge, support) in sorted(result.outputs, key=lambda r: -r[1])[:8]:
        print(f"  edge {edge}: support {support}")


if __name__ == "__main__":
    main()
