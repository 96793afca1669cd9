"""Trimmers and helpers shared by the applications."""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np

from ..core.api import Task, Trimmer, VertexView
from ..graph import kernels
from ..graph.graph import adjacency_suffix_gt

__all__ = ["GtTrimmer", "LabelTrimmer", "pull_next_hop"]


def pull_next_hop(task: Task, frontier: Sequence[VertexView]) -> None:
    """Pull every neighbor of ``frontier`` not yet materialized in
    ``task.g`` (first-seen order, one ``pull_many``) — the hop-by-hop
    ego-network growth of the quasi-clique and matching apps."""
    seen: Set[int] = set(task.g.vertices())
    fresh = []
    for view in frontier:
        for u in kernels.as_ids_array(view.adj).tolist():
            if u not in seen:
                seen.add(u)
                fresh.append(u)
    task.pull_many(fresh)


class GtTrimmer(Trimmer):
    """Keep only larger-id neighbors: ``Γ(v) -> Γ_>(v)``.

    The paper's set-enumeration trimming: "when following a search tree
    as in Fig. 1, we can trim each vertex v's adjacency list Γ(v) into
    Γ_>(v)".  Applied at load time it also halves response sizes.

    For ndarray adjacency (the hot path) the trim is a *slice view* —
    trimming a ``SharedCSR`` row stays zero-copy.
    """

    def trim(self, v: int, label: int, adj: Sequence[int]) -> Sequence[int]:
        if isinstance(adj, np.ndarray):
            return kernels.suffix_gt(adj, v)
        return adjacency_suffix_gt(adj, v)


class LabelTrimmer(Trimmer):
    """Drop neighbors whose label cannot occur in the query graph.

    The paper's subgraph-matching trimming: "vertices and edges in the
    data graph whose labels do not appear in the query graph can be
    safely pruned".  Needs the data graph's labels, which a trimmer does
    not see per-neighbor; the caller provides a ``label_of`` lookup.
    """

    def __init__(self, allowed_labels: Iterable[int], label_of) -> None:
        self._allowed: Set[int] = set(allowed_labels)
        self._label_of = label_of

    def trim(self, v: int, label: int, adj: Sequence[int]) -> Sequence[int]:
        if isinstance(adj, np.ndarray):
            if label not in self._allowed:
                return adj[:0]
            # label_of is an arbitrary python callable, so this filter
            # can't vectorize; it runs once per vertex at load time.
            keep = np.fromiter(
                (self._label_of(int(u)) in self._allowed for u in adj),
                dtype=bool, count=adj.size,
            )
            return adj[keep]
        if label not in self._allowed:
            return ()
        return tuple(u for u in adj if self._label_of(u) in self._allowed)
