"""In-memory graph representation used throughout the reproduction.

G-thinker stores a graph as a set of vertices, each with its adjacency
list ``Gamma(v)`` (the paper's :math:`\\Gamma(v)`).  We mirror that: a
:class:`Graph` stores four read-only int64 CSR arrays — vertex ids
ascending, row offsets, the rows' neighbor ids (each row sorted
ascending) and labels — built from the input in a few numpy passes.
Sorted adjacency enables the paper's ``Gamma_gt`` trimming (neighbors
with larger id, written :math:`\\Gamma_{>}(v)`) via a single binary
search, and linear-time sorted-set intersection inside the serial
miners.

Vertices may optionally carry labels (used by subgraph matching).
"""

from __future__ import annotations

import bisect
from itertools import chain
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


# The builders below drop each int64 temporary as soon as it is spent.
# A build's temporaries are ~1 MB each, and the allocator keeps freed
# blocks of that size in the heap: the build's peak would otherwise stay
# resident for the life of the process and of every worker it forks.


def _first_of_run(s: np.ndarray) -> np.ndarray:
    """Mask of the elements of sorted ``s`` that differ from their
    predecessor (the neighbour mask that replaces ``np.unique``, which
    is an order of magnitude slower on int64 with numpy 2.x)."""
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def _unique_inverse(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ids of int64 ``a`` and each element's position
    among them, from one argsort (cheaper than a ``searchsorted`` per
    element)."""
    order = np.argsort(a)
    s = a[order]
    first = _first_of_run(s)
    rank = np.cumsum(first)
    rank -= 1
    ids = s[first]
    del s, first
    inverse = np.empty_like(rank)
    inverse[order] = rank
    return ids, inverse


def _csr(ids: np.ndarray, src: np.ndarray, dst: np.ndarray
         ) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of rows over ``ids``, where the vertex at
    position ``dst[i]`` joins the row at position ``src[i]``; self-loops
    and repeats are dropped and each row comes out ascending."""
    n = max(len(ids), 1)
    # One int64 key per entry: sorting it orders the rows and each
    # row's neighbours at once, and equal keys are the repeats.
    key = src * n
    key += dst
    key = key[src != dst]
    key.sort()
    key = key[_first_of_run(key)]
    rows, cols = np.divmod(key, n)
    del key
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(ids)), out=indptr[1:])
    return indptr, ids[cols]


def _label_array(ids: np.ndarray, labels: Optional[Mapping[int, int]]) -> np.ndarray:
    """Labels aligned with ``ids`` (0 where unlabelled); labels of ids
    that are not vertices are dropped."""
    out = np.zeros(len(ids), dtype=np.int64)
    if labels and len(ids):
        keys = np.fromiter(labels.keys(), dtype=np.int64, count=len(labels))
        vals = np.fromiter(labels.values(), dtype=np.int64, count=len(labels))
        pos = np.searchsorted(ids, keys).clip(max=len(ids) - 1)
        hit = ids[pos] == keys
        out[pos[hit]] = vals[hit]
    return out


class Graph:
    """An undirected graph stored as read-only CSR arrays.

    Parameters
    ----------
    adjacency:
        Mapping from vertex id to an iterable of neighbor ids.  Each row
        is deduplicated and sorted and its self-loop dropped; rows are
        *not* symmetrised, but a neighbor with no row of its own becomes
        an isolated row.
    labels:
        Optional mapping from vertex id to an integer label (for labeled
        workloads such as subgraph matching).  Unlabeled vertices default
        to label ``0``; labels of ids that are not vertices are dropped.

    The store is ``csr_arrays()``.  Per-vertex lookups (id → row span,
    the tuple rows behind :meth:`neighbors`, the label map) are derived
    from it on first use and kept; the graph never changes.
    """

    __slots__ = ("_vertex_ids", "_indptr", "_indices", "_labels",
                 "_spans", "_adj", "_label_map")

    def __init__(
        self,
        adjacency: Optional[Mapping[int, Iterable[int]]] = None,
        labels: Optional[Mapping[int, int]] = None,
    ) -> None:
        adjacency = adjacency or {}
        rows = list(map(tuple, adjacency.values()))
        keys = np.fromiter(adjacency, dtype=np.int64, count=len(rows))
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
        nbrs = np.fromiter(chain.from_iterable(rows), dtype=np.int64,
                           count=int(lens.sum()))
        del rows
        ids, pos = _unique_inverse(np.concatenate((keys, nbrs)))
        del nbrs
        self._store(ids, *_csr(ids, np.repeat(pos[:len(keys)], lens),
                               pos[len(keys):]), labels)

    def _store(self, ids: np.ndarray, indptr: np.ndarray,
               indices: np.ndarray, labels: Optional[Mapping[int, int]]
               ) -> None:
        label_arr = _label_array(ids, dict(labels) if labels else None)
        for a in (ids, indptr, indices, label_arr):
            a.flags.writeable = False
        self._vertex_ids, self._indptr, self._indices = ids, indptr, indices
        self._labels = label_arr
        self._spans: Optional[Dict[int, Tuple[int, int]]] = None
        self._adj: Optional[Dict[int, Tuple[int, ...]]] = None
        self._label_map: Optional[Dict[int, int]] = None

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[int, int]],
        labels: Optional[Mapping[int, int]] = None,
        extra_vertices: Iterable[int] = (),
    ) -> "Graph":
        """Build an undirected graph from ``(u, v)`` pairs (an iterable of
        pairs or an ``(m, 2)`` int array).  A self-loop adds neither the
        edge nor its vertex; ``extra_vertices`` adds rows, isolated unless
        an edge names them."""
        if isinstance(edges, np.ndarray):
            flat = edges.astype(np.int64, copy=False).ravel()
        else:
            flat = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
            if hasattr(edges, "__len__") and flat.size != 2 * len(edges):
                raise ValueError("edges must be (u, v) pairs")
        pairs = flat.reshape(-1, 2)
        ends = pairs[pairs[:, 0] != pairs[:, 1]].ravel()
        del flat, pairs
        size = ends.size
        ids, pos = _unique_inverse(np.concatenate(
            (ends, np.fromiter(extra_vertices, dtype=np.int64))))
        del ends
        u, v = pos[0:size:2], pos[1:size:2]
        src, dst = np.concatenate((u, v)), np.concatenate((v, u))
        del pos, u, v
        g = cls.__new__(cls)
        g._store(ids, *_csr(ids, src, dst), labels)
        return g

    # -- derived lookups (built once, on first use) --------------------

    def _row_spans(self) -> Dict[int, Tuple[int, int]]:
        """Vertex id -> ``(start, stop)`` of its row in ``indices``."""
        spans = self._spans
        if spans is None:
            bounds = self._indptr.tolist()
            spans = self._spans = dict(
                zip(self._vertex_ids.tolist(), zip(bounds, bounds[1:])))
        return spans

    def _rows(self) -> Dict[int, Tuple[int, ...]]:
        """Vertex id -> its row as a tuple of python ints."""
        adj = self._adj
        if adj is None:
            flat = self._indices.tolist()
            adj = self._adj = {
                v: tuple(flat[a:b]) for v, (a, b) in self._row_spans().items()
            }
        return adj

    def _labelled(self) -> Dict[int, int]:
        """Vertex id -> label, for the vertices whose label is not 0."""
        label_map = self._label_map
        if label_map is None:
            nz = np.flatnonzero(self._labels)
            label_map = self._label_map = dict(
                zip(self._vertex_ids[nz].tolist(), self._labels[nz].tolist()))
        return label_map

    # -- basic accessors ----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._vertex_ids)

    @property
    def num_edges(self) -> int:
        return len(self._indices) // 2

    def vertices(self) -> Iterator[int]:
        """The vertex ids, ascending."""
        return iter(self._vertex_ids.tolist())

    def sorted_vertices(self) -> List[int]:
        return self._vertex_ids.tolist()

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The sorted adjacency list ``Gamma(v)``."""
        return self._rows()[v]

    def neighbors_gt(self, v: int) -> Tuple[int, ...]:
        """Neighbors of ``v`` with id greater than ``v`` (``Gamma_>(v)``)."""
        return adjacency_suffix_gt(self.neighbors(v), v)

    def neighbors_array(self, v: int) -> np.ndarray:
        """``Gamma(v)`` as a read-only sorted int64 view into ``indices``."""
        start, stop = self._row_spans()[v]
        return self._indices[start:stop]

    def neighbors_gt_array(self, v: int) -> np.ndarray:
        """``Gamma_>(v)`` as a read-only ndarray view into ``neighbors_array``."""
        arr = self.neighbors_array(v)
        return arr[int(arr.searchsorted(v, side="right")):]

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The graph's store ``(vertex_ids, indptr, indices, labels)``.

        ``vertex_ids`` is ascending and ``indices`` stores neighbor *ids*
        (not positions), row by row in ``vertex_ids`` order, each row
        ascending; all four arrays are read-only int64.
        """
        return self._vertex_ids, self._indptr, self._indices, self._labels

    def degree(self, v: int) -> int:
        start, stop = self._row_spans()[v]
        return stop - start

    def label(self, v: int) -> int:
        return self._labelled().get(v, 0)

    def labels(self) -> Dict[int, int]:
        """Vertex id -> label for every vertex whose label is not 0."""
        return dict(self._labelled())

    def has_edge(self, u: int, v: int) -> bool:
        a = self._rows().get(u)
        if a is None:
            return False
        idx = bisect.bisect_left(a, v)
        return idx < len(a) and a[idx] == v

    # -- aggregate statistics -----------------------------------------

    def max_degree(self) -> int:
        return int(np.diff(self._indptr).max(initial=0))

    def average_degree(self) -> float:
        if not self.num_vertices:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    # -- derived graphs ------------------------------------------------

    def induced_subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The subgraph induced by ``vertices`` (adjacency filtered)."""
        vset = set(vertices)
        rows = self._rows()
        adj = {v: [u for u in rows[v] if u in vset] for v in vset if v in rows}
        labelled = self._labelled()
        labels = {v: labelled[v] for v in adj if v in labelled}
        return Graph(adj, labels=labels)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``,
        ascending."""
        src = np.repeat(self._vertex_ids, np.diff(self._indptr))
        up = self._indices > src
        return zip(src[up].tolist(), self._indices[up].tolist())

    # -- misc ----------------------------------------------------------

    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """A shallow copy of the adjacency mapping."""
        return dict(self._rows())

    def memory_estimate_bytes(self) -> int:
        """Rough bytes needed to hold the adjacency (8 B per entry + row overhead).

        Used by the simulator's memory accounting, not by Python's own
        allocator: we model the footprint a C++ implementation would have,
        matching how the paper reports per-machine GB numbers.
        """
        return 16 * self.num_vertices + 8 * len(self._indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip(self.csr_arrays(), other.csr_arrays()))

    def __hash__(self) -> int:  # Graphs are mutated never, but keep unhashable-by-default semantics explicit.
        raise TypeError("Graph objects are not hashable")
