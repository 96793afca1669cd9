"""The ``Subgraph`` abstraction a task constructs and mines upon.

A task's subgraph ``t.g`` is private to the task (tasks never share
mutable state — that independence is one of the paper's desirabilities),
so unlike :class:`repro.graph.Graph` it is mutable and grows as the task
pulls vertices.  It stores plain ``{v: tuple}`` adjacency so the serial
miners in :mod:`repro.algorithms` can run on it directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

import numpy as np

__all__ = ["Subgraph"]


class Subgraph:
    """A growable vertex-induced subgraph owned by one task."""

    __slots__ = ("_adj", "_labels")

    def __init__(self) -> None:
        self._adj: Dict[int, Tuple[int, ...]] = {}
        self._labels: Dict[int, int] = {}

    # -- growth ----------------------------------------------------------

    def add_vertex(self, v: int, adj: Iterable[int], label: int = 0) -> None:
        """Add ``v`` with its adjacency list; re-adding a vertex
        overwrites its row.

        ``adj`` may be an ndarray (the hot-path representation coming
        from ``VertexView.adj``).  Rows are normalized to tuples of
        *python* ints so task subgraphs stay picklable/comparable and
        np.int64 never leaks into user-visible records.
        """
        if isinstance(adj, np.ndarray):
            row = tuple(adj.tolist())  # boxes to python ints in one C pass
        else:
            row = tuple(int(u) for u in adj)
        self._adj[int(v)] = row
        if label:
            self._labels[int(v)] = int(label)

    # -- access -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def label(self, v: int) -> int:
        return self._labels.get(v, 0)

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """The underlying mapping (shared, do not mutate rows)."""
        return self._adj

    def memory_estimate_bytes(self) -> int:
        """Modeled C++ footprint (see ``WorkerMemoryModel``)."""
        return sum(24 + 8 * len(a) for a in self._adj.values())
