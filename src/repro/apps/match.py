"""Subgraph matching (GM) — the paper's third evaluation application.

The search space is partitioned without isomorphism checks (the paper's
point against Arabesque-style systems): the query's first matching-order
vertex ``q0`` is *anchored* at each data vertex with a compatible label,
and the task spawned there owns exactly the embeddings mapping ``q0`` to
its anchor.  Query automorphisms are killed by the symmetry-breaking
order constraints inside :mod:`repro.algorithms.matching`, so the union
over tasks counts every embedding exactly once.

Low-degree anchors are *bundled* (the paper's §VI future-work item):
one task owns up to ``BUNDLE_SIZE`` anchors, materializes the union of
their ``r``-hop neighborhoods (``r`` = the eccentricity of ``q0`` in the
query) by iterative pulling — one pull round per hop for the whole
bundle, the multi-iteration pattern the paper illustrates with
quasi-cliques — and runs the level-wise matcher once with all its
anchors as the first column.  That is exact: the subgraph induced on
the union contains every anchor's ``r``-hop ball and only real edges,
and an embedding anchored at ``a`` never leaves ``a``'s ball.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence

from ..algorithms.matching import (
    CompactCSR, QueryGraph, embeddings, run_plan,
)
from ..core.api import SumAggregator, Task, VertexView
from .common import BundlingComper, LabelTrimmer, pull_next_hop

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


class SubgraphMatchComper(BundlingComper):
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
        Emit each embedding as a ``{query vertex: data vertex}`` dict
        of plain ints via ``output()`` (small graphs only); their order
        is unspecified.
    """

    #: Anchors per task; 1 is the paper's one-task-per-vertex shape.
    BUNDLE_SIZE = 32
    #: An anchor whose ``r``-hop ball is estimated (``degree ** r``) at
    #: this many vertices or more gets a task of its own: that ball
    #: alone hides the pull round-trip, and a bundle's union stays
    #: within ``BUNDLE_SIZE`` such balls whatever the query's radius.
    HEAVY_BALL = 64

    def __init__(
        self,
        query: QueryGraph,
        data_labels: Optional[Dict[int, int]] = None,
        collect_embeddings: bool = False,
    ) -> None:
        super().__init__(self.BUNDLE_SIZE)
        self.query = query
        self.radius = query_radius(query)
        self._labels = data_labels
        self._collect = collect_embeddings
        self._query_labels = set(query.labels.values())
        q0 = query.order[0]
        self._anchor_label = query.labels[q0]
        self._anchor_degree = query.graph.degree(q0)

    def make_aggregator(self) -> SumAggregator:
        return SumAggregator()

    def make_trimmer(self) -> Optional[LabelTrimmer]:
        if self._labels is None:
            return None
        labels = self._labels
        return LabelTrimmer(self._query_labels, lambda u: labels.get(u, 0))

    # -- UDFs ----------------------------------------------------------------

    def task_spawn(self, v: VertexView) -> None:
        if v.label != self._anchor_label:
            return
        if len(v.adj) < self._anchor_degree:
            return  # cannot host the anchor's degree
        self.spawn_member(v, len(v.adj) ** self.radius >= self.HEAVY_BALL)

    def emit_bundle(self, members: List[VertexView]) -> None:
        # context = (hops materialized, *anchors): an int tuple, so the
        # task spills and travels as a flat frame.
        task = Task(context=(0, *(v.id for v in members)))
        for v in members:
            task.g.add_vertex(v.id, v.adj, label=v.label)
        pull_next_hop(task, members)
        self.add_task(task)

    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        depth, *anchors = task.context
        depth += 1
        task.context = (depth, *anchors)
        g = task.g
        fresh = [view for view in frontier if view.id not in g]
        if depth < self.radius:
            # Another hop to go: the arrived rows must outlive this
            # iteration, so they move into the (spillable) subgraph.
            for view in fresh:
                g.add_vertex(view.id, view.adj, label=view.label)
            pull_next_hop(task, fresh)
            if task.pending_pulls():
                return True
            fresh = []
        self._match(g, fresh, anchors)
        return False

    # -- local matching -------------------------------------------------------

    def _match(self, g, fresh: List[VertexView], anchors: List[int]) -> None:
        """Match every anchor on the subgraph induced on ``g``'s rows
        plus the last hop's ``fresh`` views, which are read in place."""
        adjacency = g.adjacency()
        # zip(*views) transposes the (id, label, adj) triples in C.
        ids, labels, rows = zip(*fresh) if fresh else ((), (), ())
        ids = [*adjacency, *ids]
        rows = [*adjacency.values(), *rows]
        labels = [*map(g.label, adjacency), *labels]
        csr = CompactCSR.from_rows(ids, rows, labels)
        if not self._collect:
            self.aggregate(sum(run_plan(csr, self.query.plan, anchors)))
            return
        count = 0
        for embedding in embeddings(csr, self.query, anchors):
            self.output(embedding)
            count += 1
        self.aggregate(count)
