"""The ``Subgraph`` abstraction a task constructs and mines upon.

A task's subgraph ``t.g`` is private to the task (tasks never share
mutable state — that independence is one of the paper's desirabilities),
so unlike :class:`repro.graph.Graph` it is mutable and grows as the task
pulls vertices.  It stores plain ``{v: tuple}`` adjacency so the serial
miners in :mod:`repro.algorithms` can run on it directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..graph import kernels

__all__ = ["Subgraph"]


class Subgraph:
    """A growable vertex-induced subgraph owned by one task."""

    __slots__ = ("_adj", "_labels")

    def __init__(self) -> None:
        self._adj: Dict[int, Tuple[int, ...]] = {}
        self._labels: Dict[int, int] = {}

    # -- growth ----------------------------------------------------------

    def add_vertex(
        self,
        v: int,
        adj: Iterable[int],
        label: int = 0,
        keep_only: Optional[Iterable[int]] = None,
    ) -> None:
        """Add ``v`` with its adjacency list.

        ``keep_only`` filters the adjacency to a candidate set while
        copying — the paper's Fig. 5 line 2 filtering ("we filter any
        adjacency list item w if w not in Gamma_>(v)") without an extra
        pass.  Re-adding a vertex overwrites its row.

        ``adj`` may be an ndarray (the hot-path representation coming
        from ``VertexView.adj``).  Rows are normalized to tuples of
        *python* ints so task subgraphs stay picklable/comparable and
        np.int64 never leaks into user-visible records; because of that
        boxing, small rows filter faster through a python set probe than
        through ``np.isin`` — the vectorized filter only pays off on big
        (hub-sized) rows, where it runs before the boxing.
        """
        if isinstance(adj, np.ndarray):
            if keep_only is not None and adj.size >= 256:
                # Hub-sized rows: the candidate filter is a sorted-set
                # intersection (adj is sorted/duplicate-free by the
                # adjacency contract), so it runs on the sorted-array
                # kernel.  Sets are sorted here — np.isin would
                # have sorted them internally anyway.
                if isinstance(keep_only, np.ndarray):
                    keep = np.unique(keep_only.astype(np.int64))
                else:
                    keep = np.fromiter(keep_only, dtype=np.int64)
                    keep.sort()
                adj = kernels.intersect(adj, keep)
                keep_only = None
            adj = adj.tolist()  # boxes to python ints in one C pass
            if keep_only is None:
                row = tuple(adj)
            else:
                keep = (keep_only if isinstance(keep_only, (set, frozenset))
                        else set(self._as_int_iter(keep_only)))
                row = tuple(u for u in adj if u in keep)
        elif keep_only is not None:
            keep = (keep_only if isinstance(keep_only, (set, frozenset))
                    else set(self._as_int_iter(keep_only)))
            row = tuple(int(u) for u in adj if u in keep)
        else:
            row = tuple(int(u) for u in adj)
        self._adj[int(v)] = row
        if label:
            self._labels[int(v)] = int(label)

    @staticmethod
    def _as_int_iter(values: Iterable[int]) -> Iterable[int]:
        return values.tolist() if isinstance(values, np.ndarray) else values

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

    def symmetrize(self) -> None:
        """Make adjacency symmetric (and rows sorted) in place.

        Needed when rows were built from ``Γ_>``-trimmed pulls: the
        set-enumeration apps pull only larger-id adjacency to halve
        traffic, but the serial miners expect undirected adjacency.
        Only edges between *present* vertices are mirrored.
        """
        undirected: Dict[int, set] = {v: set() for v in self._adj}
        for v, row in self._adj.items():
            for u in row:
                if u in undirected:
                    undirected[v].add(u)
                    undirected[u].add(v)
        for v in undirected:
            self._adj[v] = tuple(sorted(undirected[v]))

    def memory_estimate_bytes(self) -> int:
        """Modeled C++ footprint (see ``WorkerMemoryModel``)."""
        return sum(24 + 8 * len(a) for a in self._adj.values())
