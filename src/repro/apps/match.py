"""Subgraph matching (GM) — the paper's third evaluation application.

The search space is partitioned without isomorphism checks (the paper's
point against Arabesque-style systems): the query's first matching-order
vertex ``q0`` is *anchored* at each data vertex with a compatible label,
and the task spawned there owns exactly the embeddings mapping ``q0`` to
its anchor.  Query automorphisms are killed by the symmetry-breaking
order constraints inside :mod:`repro.algorithms.matching`, so the union
over tasks counts every embedding exactly once.

A task materializes the anchor's ``r``-hop neighborhood (``r`` = the
eccentricity of ``q0`` in the query) by iterative pulling — one pull
round per hop, the multi-iteration pattern the paper illustrates with
quasi-cliques — and then runs the serial backtracking matcher locally.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Sequence

from ..algorithms.matching import QueryGraph, match_subgraph
from ..core.api import Comper, SumAggregator, Task, VertexView
from ..graph.graph import Graph
from .common import LabelTrimmer, pull_next_hop

__all__ = ["SubgraphMatchComper", "query_radius"]


def query_radius(query: QueryGraph) -> int:
    """BFS eccentricity of the anchor vertex ``query.order[0]``."""
    g = query.graph
    start = query.order[0]
    dist = {start: 0}
    frontier = deque([start])
    while frontier:
        v = frontier.popleft()
        for u in g.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    if len(dist) != g.num_vertices:
        raise ValueError("query graph must be connected")
    return max(dist.values())


class SubgraphMatchComper(Comper):
    """Counts (and optionally emits) embeddings of a labeled query.

    Parameters
    ----------
    query:
        The pattern to match.
    data_labels:
        The data graph's label mapping, needed by the label trimmer
        (the trimmer sees one vertex at a time but must judge its
        neighbors' labels).  Pass ``None`` to skip trimming.
    collect_embeddings:
        Emit each embedding dict via ``output()`` (small graphs only).
    """

    def __init__(
        self,
        query: QueryGraph,
        data_labels: Optional[Dict[int, int]] = None,
        collect_embeddings: bool = False,
    ) -> None:
        super().__init__()
        self.query = query
        self.radius = query_radius(query)
        self._labels = data_labels
        self._collect = collect_embeddings
        self._query_labels = set(query.labels.values())

    def make_aggregator(self) -> SumAggregator:
        return SumAggregator()

    def make_trimmer(self) -> Optional[LabelTrimmer]:
        if self._labels is None:
            return None
        labels = self._labels
        return LabelTrimmer(self._query_labels, lambda u: labels.get(u, 0))

    # -- UDFs ----------------------------------------------------------------

    def task_spawn(self, v: VertexView) -> None:
        q0 = self.query.order[0]
        if self.query.labels[q0] != v.label:
            return
        if len(v.adj) < self.query.graph.degree(q0):
            return  # cannot host the anchor's degree
        task = Task(context={"anchor": v.id, "depth": 0})
        task.g.add_vertex(v.id, v.adj, label=v.label)
        if self.radius >= 1:
            task.pull_many(v.adj)
        self.add_task(task)

    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        ctx = task.context
        ctx["depth"] += 1
        for view in frontier:
            if view.id not in task.g:
                task.g.add_vertex(view.id, view.adj, label=view.label)
        if ctx["depth"] < self.radius:
            # Pull the next hop: neighbors of the just-arrived frontier
            # that are not yet materialized.
            pull_next_hop(task, frontier)
            if task.pending_pulls():
                return True
        self._match(task)
        return False

    # -- local matching -------------------------------------------------------

    def _match(self, task: Task) -> None:
        materialized = set(task.g.vertices())
        data = Graph(
            {v: [u for u in task.g.neighbors(v) if u in materialized]
             for v in materialized},
            labels={v: task.g.label(v) for v in materialized if task.g.label(v)},
        )
        anchor = (self.query.order[0], task.context["anchor"])
        count = 0
        for embedding in match_subgraph(data, self.query, anchor=anchor):
            count += 1
            if self._collect:
                self.output(dict(embedding))
        self.aggregate(count)
