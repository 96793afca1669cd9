"""Trimmers and helpers shared by the applications."""

from __future__ import annotations

import abc
from typing import Any, Iterable, List, Sequence, Set

import numpy as np

from ..core.api import Comper, Task, Trimmer, VertexView
from ..graph import kernels
from ..graph.graph import adjacency_suffix_gt

__all__ = ["BundlingComper", "GtTrimmer", "LabelTrimmer", "pull_next_hop"]


class BundlingComper(Comper):
    """A comper that mines many low-degree spawn vertices per task.

    The paper's §VI: "tasks spawned from many low-degree vertices do not
    generate large enough subgraphs to hide IO cost in the computation";
    its follow-up bundles them into bigger tasks.  ``task_spawn`` hands
    each spawn vertex to :meth:`spawn_member`: a heavy one gets a task
    of its own, the rest are buffered and leave ``bundle_size`` at a
    time through :meth:`emit_bundle` — the last, partial bundle on
    ``spawn_flush``.  Members wait only in this buffer, and never
    outlive the job: a worker's partition closes only once every comper
    that took from its spawn cursor has flushed (and a steal payload or
    a checkpoint flushes before it ships).
    """

    def __init__(self, bundle_size: int) -> None:
        super().__init__()
        if bundle_size < 1:
            raise ValueError("bundle_size must be >= 1")
        self.bundle_size = bundle_size
        self._bundle: List[Any] = []

    def spawn_member(self, member: Any, heavy: bool) -> None:
        if heavy:
            self.emit_bundle([member])
            return
        self._bundle.append(member)
        if len(self._bundle) >= self.bundle_size:
            self.spawn_flush()

    def spawn_flush(self) -> None:
        if self._bundle:
            bundle, self._bundle = self._bundle, []
            self.emit_bundle(bundle)

    @abc.abstractmethod
    def emit_bundle(self, members: List[Any]) -> None:
        """Create (``add_task``) the one task that mines ``members``."""


def pull_next_hop(task: Task, frontier: Sequence[VertexView]) -> None:
    """Pull every neighbor of ``frontier`` not yet materialized in
    ``task.g`` (first-seen order, one ``pull_many``) — the hop-by-hop
    ego-network growth of the quasi-clique and matching apps."""
    if not frontier:
        return
    neighbors = kernels.flatten_rows([view.adj for view in frontier]).tolist()
    materialized = task.g.adjacency()
    task.pull_many([u for u in dict.fromkeys(neighbors)
                    if u not in materialized])


class GtTrimmer(Trimmer):
    """Keep only larger-id neighbors: ``Γ(v) -> Γ_>(v)``.

    The paper's set-enumeration trimming: "when following a search tree
    as in Fig. 1, we can trim each vertex v's adjacency list Γ(v) into
    Γ_>(v)".  Applied at load time it also halves response sizes.

    For ndarray adjacency (the hot path) the trim is a *slice view* —
    trimming a ``SharedCSR`` row stays zero-copy.
    """

    stateless = True

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
            # can't vectorize; it runs once per vertex at load time, over
            # python ints (tolist) rather than one numpy scalar per id.
            keep = np.fromiter(
                (self._label_of(u) in self._allowed for u in adj.tolist()),
                dtype=bool, count=adj.size,
            )
            return adj[keep]
        if label not in self._allowed:
            return ()
        return tuple(u for u in adj if self._label_of(u) in self._allowed)
