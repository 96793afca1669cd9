"""Maximum clique finding (MCF) — the paper's Fig. 5 application, verbatim.

A task is ``<S, ext(S)>``: ``S`` is the vertex set already assumed in
the clique, and the task's subgraph ``t.g`` is induced by
``ext(S) = Γ_>(S)`` (common larger-id neighbors of ``S``).

* ``task_spawn(v)`` prunes against the aggregator's current best
  (``|S_max| >= 1 + |Γ_>(v)|``), then creates the top-level task
  ``<{v}, Γ_>(v)>`` and pulls every candidate.
* ``compute`` takes ``t.g`` as the pulled rows themselves (top-level
  tasks) or as the subgraph its parent built (children), then either
  *decomposes* — when ``|V(t.g)| > τ`` it creates one child task
  ``<S ∪ u, Γ_>(S ∪ u)>`` per candidate ``u``, pruning children that
  cannot beat ``S_max`` — or *mines serially* with branch-and-bound
  seeded at ``Δ = |S_max| - |t.S|``.

The aggregator tracks the largest clique found anywhere; workers see it
after each periodic sync, so pruning tightens globally as the job runs.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..algorithms.cliques import max_clique
from ..core.api import Comper, MaxAggregator, Task, VertexView
from ..graph import kernels
from .common import GtTrimmer

__all__ = ["MaxCliqueComper"]


def _best_size(view) -> int:
    return len(view) if view else 0


class MaxCliqueComper(Comper):
    """Finds one maximum clique; the job aggregate is its vertex tuple.

    A task whose subgraph has more vertices than the job config's
    ``decompose_threshold`` (the paper's τ) is split instead of mined
    serially.
    """

    def __init__(
        self,
        core_numbers: Optional[dict] = None,
        initial_clique: Optional[Tuple[int, ...]] = None,
    ) -> None:
        """Optional accelerations beyond Fig. 5 (both off by default):

        core_numbers:
            Precomputed core numbers (:func:`repro.graph.core_numbers`):
            a vertex with ``core(v) + 1 <= |S_max|`` cannot start a
            bigger clique, so its task is never spawned.
        initial_clique:
            A known clique (e.g. :func:`repro.graph.greedy_clique_seed`)
            folded into the aggregator before any task runs, so
            branch-and-bound pruning starts tight instead of warming up.
        """
        super().__init__()
        self._cores = core_numbers
        self._seed = tuple(initial_clique) if initial_clique else None
        self._seeded = False

    def make_aggregator(self) -> MaxAggregator:
        return MaxAggregator(key=len)

    def make_trimmer(self) -> GtTrimmer:
        return GtTrimmer()

    # -- UDFs ----------------------------------------------------------

    def task_spawn(self, v: VertexView) -> None:
        if self._seed is not None and not self._seeded:
            self._seeded = True
            self.aggregate(self._seed)
        best = _best_size(self.aggregator_value)
        if best >= 1 + len(v.adj):  # Fig. 5, task_spawn line 1
            return
        if self._cores is not None and self._cores.get(v.id, 0) + 1 <= best:
            return  # v's densest surrounding subgraph is already beaten
        task = Task(context=(v.id,))  # t.S = {v}
        task.pull_many(v.adj)  # v.adj is Γ_>(v)
        self.add_task(task)

    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        s: Tuple[int, ...] = task.context
        # Fig. 5 line 2: a top-level task's t.g is induced by Γ_>(v), and
        # its pulled rows are that subgraph as they stand (the kernel
        # drops ids two hops out and symmetrises the Γ_>-trimmed rows).
        # A child's t.g was built by its parent's decomposition.
        if frontier:
            adj = {view.id: view.adj for view in frontier}
        else:
            adj = task.g.adjacency()
        if len(adj) > self.config.decompose_threshold:
            self._decompose(adj, s)
        else:
            self._mine_serially(adj, s)
        return False  # MCF tasks finish in one compute round (Fig. 5)

    # -- helpers ------------------------------------------------------------

    def _decompose(self, adj: Mapping[int, Sequence[int]], s: Tuple[int, ...]) -> None:
        """Fig. 5 lines 4-9: one child <S ∪ u, Γ_>(S ∪ u)> per candidate."""
        best = _best_size(self.aggregator_value)
        ids = np.fromiter(sorted(adj), dtype=np.int64, count=len(adj))
        for u in ids.tolist():
            # Candidates of the child: u's neighbors in t.g with larger
            # ids (t.g's vertices are already common neighbors of S).
            kids = kernels.intersect(kernels.suffix_gt(adj[u], u), ids)
            if len(s) + 1 + kids.size <= best:
                continue  # Fig. 5 line 9: child cannot beat S_max
            child = Task(context=tuple(sorted(s + (u,))))
            for w in kids.tolist():
                child.g.add_vertex(w, kernels.intersect(adj[w], kids))
            self.add_task(child)

    def _mine_serially(self, adj: Mapping[int, Sequence[int]], s: Tuple[int, ...]) -> None:
        """Fig. 5 lines 10-14: branch-and-bound on the small subgraph."""
        best = _best_size(self.aggregator_value)
        if len(s) + len(adj) <= best:
            return  # line 11
        delta = max(0, best - len(s))
        found = max_clique(adj, lower_bound=delta)
        candidate = tuple(sorted(set(s) | set(found)))
        if len(candidate) > best:
            self.aggregate(candidate)  # line 13: S_max := t.S ∪ S'_max
