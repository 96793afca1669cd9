"""In-memory graph representation used throughout the reproduction.

G-thinker stores a graph as a set of vertices, each with its adjacency
list ``Gamma(v)`` (the paper's :math:`\\Gamma(v)`).  We mirror that: a
:class:`Graph` is a mapping from vertex id to a *sorted tuple* of
neighbor ids.  Sorted adjacency enables the paper's ``Gamma_gt`` trimming
(neighbors with larger id, written :math:`\\Gamma_{>}(v)`) via a single
binary search, and linear-time sorted-set intersection inside the serial
miners.

Vertices may optionally carry labels (used by subgraph matching).
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Graph",
    "adjacency_suffix_gt",
    "intersect_sorted",
    "intersect_sorted_count",
]


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Intersect two sorted integer sequences in ``O(|a| + |b|)``.

    Pure-Python reference oracle.  The hot-path miners use the vectorized
    kernels in :mod:`repro.graph.kernels` (which auto-select a galloping
    ``searchsorted`` variant for skewed sizes); this merge loop is kept as
    the ground truth they are tested against.
    """
    out: List[int] = []
    i, j = 0, 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def intersect_sorted_count(a: Sequence[int], b: Sequence[int]) -> int:
    """Count the intersection of two sorted sequences without materializing.

    Pure-Python reference oracle for :func:`repro.graph.kernels.intersect_count`.
    """
    n = 0
    i, j = 0, 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            n += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return n


def adjacency_suffix_gt(adj: Sequence[int], v: int) -> Tuple[int, ...]:
    """Return the suffix of a sorted adjacency list with ids ``> v``.

    Implements the paper's :math:`\\Gamma_{>}(v)` trimming used by the
    set-enumeration search (Fig. 1): a vertex set ``S`` is only extended
    by neighbors larger than its largest member.
    """
    idx = bisect.bisect_right(adj, v)
    return tuple(adj[idx:])


class Graph:
    """An undirected graph stored as sorted adjacency lists.

    Parameters
    ----------
    adjacency:
        Mapping from vertex id to an iterable of neighbor ids.  Neighbor
        lists are deduplicated, sorted, and self-loops are dropped.
    labels:
        Optional mapping from vertex id to an integer label (for labeled
        workloads such as subgraph matching).  Unlabeled vertices default
        to label ``0``.
    """

    __slots__ = ("_adj", "_labels", "_num_edges", "_adj_arrays", "_csr_cache")

    def __init__(
        self,
        adjacency: Optional[Mapping[int, Iterable[int]]] = None,
        labels: Optional[Mapping[int, int]] = None,
    ) -> None:
        self._adj: Dict[int, Tuple[int, ...]] = {}
        self._labels: Dict[int, int] = dict(labels) if labels else {}
        self._num_edges = 0
        self._adj_arrays: Dict[int, np.ndarray] = {}
        self._csr_cache: Optional[Tuple[np.ndarray, ...]] = None
        if adjacency:
            for v, nbrs in adjacency.items():
                cleaned = sorted({u for u in nbrs if u != v})
                self._adj[v] = tuple(cleaned)
            # Ensure symmetry-closure of the vertex set: a neighbor that
            # has no row of its own becomes an isolated row.
            for v in list(self._adj):
                for u in self._adj[v]:
                    if u not in self._adj:
                        self._adj[u] = ()
            self._num_edges = sum(len(a) for a in self._adj.values()) // 2

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        labels: Optional[Mapping[int, int]] = None,
        extra_vertices: Iterable[int] = (),
    ) -> "Graph":
        """Build an undirected graph from an edge iterable."""
        adj: Dict[int, set] = {}
        for u, v in edges:
            if u == v:
                continue
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        for v in extra_vertices:
            adj.setdefault(v, set())
        return cls(adj, labels=labels)

    # -- basic accessors ----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> Iterator[int]:
        return iter(self._adj)

    def sorted_vertices(self) -> List[int]:
        return sorted(self._adj)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted adjacency list ``Gamma(v)``."""
        return self._adj[v]

    def neighbors_gt(self, v: int) -> Tuple[int, ...]:
        """Neighbors of ``v`` with id greater than ``v`` (``Gamma_>(v)``)."""
        return adjacency_suffix_gt(self._adj[v], v)

    def neighbors_array(self, v: int) -> np.ndarray:
        """``Gamma(v)`` as a read-only sorted int64 ndarray (cached).

        The array is built lazily on first access and memoized, so the
        vectorized kernels in :mod:`repro.graph.kernels` can be fed
        without re-boxing tuples on every call.
        """
        arr = self._adj_arrays.get(v)
        if arr is None:
            arr = np.asarray(self._adj[v], dtype=np.int64)
            arr.flags.writeable = False
            self._adj_arrays[v] = arr
        return arr

    def neighbors_gt_array(self, v: int) -> np.ndarray:
        """``Gamma_>(v)`` as a read-only ndarray view into ``neighbors_array``."""
        arr = self.neighbors_array(v)
        return arr[int(np.searchsorted(arr, v, side="right")):]

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Whole-graph CSR arrays ``(vertex_ids, indptr, indices, labels)``.

        ``indices`` stores neighbor *ids* (not positions) concatenated in
        ``vertex_ids`` order; all four arrays are read-only int64.  The
        result is memoized — the graph is immutable after construction —
        so repeated jobs on one graph (benchmarks, parameter sweeps) pay
        the flatten cost once instead of per :func:`run_job` call.
        """
        cached = self._csr_cache
        if cached is None:
            verts = self.sorted_vertices()
            n = len(verts)
            vertex_ids = np.asarray(verts, dtype=np.int64)
            adj = [self._adj[v] for v in verts]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(
                np.fromiter(map(len, adj), dtype=np.int64, count=n),
                out=indptr[1:],
            )
            indices = np.fromiter(
                itertools.chain.from_iterable(adj),
                dtype=np.int64,
                count=int(indptr[-1]),
            )
            labels = np.fromiter(
                (self._labels.get(v, 0) for v in verts),
                dtype=np.int64,
                count=n,
            )
            for a in (vertex_ids, indptr, indices, labels):
                a.flags.writeable = False
            cached = self._csr_cache = (vertex_ids, indptr, indices, labels)
        return cached

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def label(self, v: int) -> int:
        return self._labels.get(v, 0)

    def labels(self) -> Dict[int, int]:
        return dict(self._labels)

    def has_edge(self, u: int, v: int) -> bool:
        a = self._adj.get(u)
        if a is None:
            return False
        idx = bisect.bisect_left(a, v)
        return idx < len(a) and a[idx] == v

    # -- aggregate statistics -----------------------------------------

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj.values()), default=0)

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    # -- derived graphs ------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The subgraph induced by ``vertices`` (adjacency filtered)."""
        vset = set(vertices)
        adj = {
            v: [u for u in self._adj[v] if u in vset]
            for v in vset
            if v in self._adj
        }
        labels = {v: self._labels[v] for v in adj if v in self._labels}
        return Graph(adj, labels=labels)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for v, adj in self._adj.items():
            for u in adjacency_suffix_gt(adj, v):
                yield (v, u)

    # -- misc ----------------------------------------------------------

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """A shallow copy of the adjacency mapping."""
        return dict(self._adj)

    def memory_estimate_bytes(self) -> int:
        """Rough bytes needed to hold the adjacency (8 B per entry + row overhead).

        Used by the simulator's memory accounting, not by Python's own
        allocator: we model the footprint a C++ implementation would have,
        matching how the paper reports per-machine GB numbers.
        """
        return sum(16 + 8 * len(a) for a in self._adj.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj and all(
            self.label(v) == other.label(v) for v in self._adj
        )

    def __hash__(self) -> int:  # Graphs are mutated never, but keep unhashable-by-default semantics explicit.
        raise TypeError("Graph objects are not hashable")
