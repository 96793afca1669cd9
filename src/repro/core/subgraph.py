"""The ``Subgraph`` abstraction a task constructs and mines upon.

A task's subgraph ``t.g`` is private to the task (tasks never share
mutable state — that independence is one of the paper's desirabilities),
so unlike :class:`repro.graph.Graph` it is mutable and grows as the task
pulls vertices.  It stores ``{v: row}`` adjacency whose rows are
read-only int64 ndarrays, the form of ``VertexView.adj``, so the miners
in :mod:`repro.algorithms` and the task codec take them as they are.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence

import numpy as np

__all__ = ["Subgraph"]

_INT64 = np.dtype(np.int64)


class Subgraph:
    """A growable vertex-induced subgraph owned by one task."""

    __slots__ = ("_adj", "_labels", "_bytes")

    def __init__(self) -> None:
        self._adj: Dict[int, np.ndarray] = {}
        self._labels: Dict[int, int] = {}
        self._bytes = 0

    # -- growth ----------------------------------------------------------

    def add_vertex(self, v: int, adj: Sequence[int], label: int = 0) -> None:
        """Add ``v`` with its adjacency list; re-adding a vertex
        overwrites its row.

        A read-only int64 ndarray row (``VertexView.adj``, a decoded
        row) is kept as given; any other row (a tuple, a writeable
        array) is copied once into a read-only int64 array.  Rows are
        never boxed to python ints: apps that build python sets call
        ``tolist()``.
        """
        if (type(adj) is not np.ndarray or adj.dtype is not _INT64
                or adj.flags.writeable):
            adj = np.array(adj, dtype=np.int64)
            adj.flags.writeable = False
        v = int(v)
        old = self._adj.get(v)
        if old is not None:
            self._bytes -= 24 + 8 * len(old)
        self._adj[v] = adj
        self._bytes += 24 + 8 * len(adj)
        if label:
            self._labels[v] = int(label)

    # -- access -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> np.ndarray:
        return self._adj[v]

    def label(self, v: int) -> int:
        return self._labels.get(v, 0)

    def adjacency(self) -> Dict[int, np.ndarray]:
        """The underlying mapping (shared, do not mutate)."""
        return self._adj

    def memory_estimate_bytes(self) -> int:
        """Modeled C++ footprint (see ``WorkerMemoryModel``): 24 bytes
        plus 8 per entry for each row, kept as a running total."""
        return self._bytes
