"""Maximum clique finding (MCF) — the paper's Fig. 5 application plus
one departure: a degree peel before the τ test.

A task is ``<S, ext(S)>``: ``S`` is the vertex set already assumed in
the clique, and the task's subgraph ``t.g`` is induced by
``ext(S) = Γ_>(S)`` (common larger-id neighbors of ``S``).

* ``task_spawn(v)`` prunes against the aggregator's current best
  (``|S_max| >= 1 + |Γ_>(v)|``), then creates the top-level task
  ``<{v}, Γ_>(v)>`` and pulls every candidate.
* ``compute`` takes ``t.g`` as the pulled rows themselves (top-level
  tasks) or as the subgraph its parent built (children) and *peels* it:
  with ``Δ = |S_max| - |t.S| > 0``, vertices with fewer than ``Δ``
  neighbours left are dropped round by round, since no member of a
  clique that beats ``S_max`` has fewer.  Fig. 5 prunes by set sizes
  only (lines 9 and 11); here the task ends when ``Δ`` or fewer
  vertices survive.  Otherwise, on the survivors, it either
  *decomposes* — when more than τ survive it creates one child task
  ``<S ∪ u, Γ_>(S ∪ u)>`` per survivor ``u``, pruning children that
  cannot beat ``S_max`` — or *mines serially* with branch-and-bound
  seeded at ``Δ``.

The aggregator tracks the largest clique found anywhere; workers see it
after each periodic sync, so pruning tightens globally as the job runs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..algorithms.cliques import Scoped, max_clique, peel
from ..core.api import Comper, MaxAggregator, Task, VertexView
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
        best = _best_size(self.aggregator_value)
        if len(s) + len(adj) <= best:
            return False  # Fig. 5 line 11, before the peel's array work
        # Beyond Fig. 5: only vertices with at least Δ = |S_max| - |t.S|
        # neighbours in t.g can extend t.S past S_max.  The survivors
        # feed the τ test, the search and the children.
        core = peel(adj, best - len(s))
        if len(s) + core.ids.size <= best:
            return False  # Δ or fewer survive: nothing here beats S_max
        if core.ids.size > self.config.decompose_threshold:
            self._decompose(core, s, best)
        else:
            self._mine_serially(core, s, best)
        return False  # MCF tasks finish in one compute round (Fig. 5)

    # -- helpers ------------------------------------------------------------

    def _decompose(self, core: Scoped, s: Tuple[int, ...], best: int) -> None:
        """Fig. 5 lines 4-9: one child <S ∪ u, Γ_>(S ∪ u)> per candidate.

        A child's t.g is induced by u's larger-id neighbours in t.g; its
        rows are Γ_>-trimmed (each edge once, under its smaller id).
        """
        ids, lo, hi, _ = core
        # Positions follow id order and edges are sorted by (lo, hi), so
        # hi[ptr[u]:ptr[u + 1]] are u's larger-id neighbours.
        ptr = np.searchsorted(lo, np.arange(ids.size + 1))
        inside = np.zeros(ids.size, dtype=bool)
        for u in range(ids.size):
            kids = hi[ptr[u]:ptr[u + 1]]
            if len(s) + 1 + kids.size <= best:
                continue  # Fig. 5 line 9: child cannot beat S_max
            # The kids' larger-id neighbours back to back, kept where
            # they are kids too, then cut where each kid's run ends.
            starts, lens = ptr[kids], ptr[kids + 1] - ptr[kids]
            runs = np.concatenate(([0], lens.cumsum()))
            out = hi[np.arange(runs[-1]) + np.repeat(starts - runs[:-1], lens)]
            inside[kids] = True
            kept = inside[out]
            inside[kids] = False
            at = np.concatenate(([0], kept.cumsum()))[runs].tolist()
            rows = ids[out[kept]]
            rows.flags.writeable = False  # t.g keeps its slices as given
            child = Task(context=tuple(sorted(s + (int(ids[u]),))))
            for i, w in enumerate(ids[kids].tolist()):
                child.g.add_vertex(w, rows[at[i]:at[i + 1]])
            self.add_task(child)

    def _mine_serially(self, core: Scoped, s: Tuple[int, ...], best: int) -> None:
        """Fig. 5 lines 10-14: branch-and-bound on the small subgraph."""
        found = max_clique(core, lower_bound=best - len(s))
        candidate = tuple(sorted(set(s) | set(found)))
        if len(candidate) > best:
            self.aggregate(candidate)  # line 13: S_max := t.S ∪ S'_max
