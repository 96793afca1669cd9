"""Serial subgraph matching (the paper's GM application kernel).

Given a small labeled *query* graph and a labeled *data* graph, find all
subgraph isomorphisms (injective vertex mappings preserving labels and
query edges).  This is the pattern-to-instance problem the paper
targets: the pattern is fixed up front, and redundancy is avoided by a
fixed matching order — never by isomorphism checks on generated
subgraphs (the design mistake the paper calls out in Arabesque/RStream).

A query is *compiled once* into a per-depth plan (``QueryGraph.plan``):
for the query vertex matched at each depth, its label, the table
columns holding its already-matched query neighbors, the columns it must
be smaller / larger than (symmetry breaking, so each embedding is
reported exactly once), and the columns that still need an explicit
``!=`` for injectivity.

One executor (:func:`run_plan`) runs every plan.  It grows a table of
partial embeddings one query vertex at a time over a
:class:`CompactCSR` — vertex *positions* ``0..n-1`` in id order plus the
sorted edge keys ``src * n + dst``: candidates are gathered along the
first matched neighbor's rows, every other matched neighbor is one
``searchsorted`` edge test, and label / order / injectivity are boolean
masks.  The last level only counts unless rows are wanted.  A table
whose next expansion would exceed :data:`CHUNK_CANDIDATES` is split and
each piece is taken through all remaining levels before the next one
starts: breadth-first inside a chunk, depth-first across chunks, so
memory stays bounded on hub anchors and whole-graph calls (the
BFS/DFS-adaptive scheduling of HUGE, PAPERS.md).
"""

from __future__ import annotations

from itertools import permutations
from typing import (
    Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple, Union,
)

import numpy as np

from ..graph import kernels
from ..graph.graph import Graph

__all__ = [
    "CHUNK_CANDIDATES",
    "CompactCSR",
    "QueryGraph",
    "run_plan",
    "embeddings",
    "match_subgraph",
    "count_matches",
    "match_reference",
    "triangle_query",
    "path_query",
    "star_query",
]

#: Most candidates one level-wise expansion may materialise (a single
#: row wider than this is still expanded whole).  32 KB of int64 per
#: temporary keeps every array of a chunk below the allocator's mmap
#: threshold, so they are recycled from the heap level after level.
CHUNK_CANDIDATES = 4096

#: A table of partial embeddings, one int64 position array per matched
#: query vertex (column ``d`` holds the match of ``order[d]``).
Columns = Tuple[np.ndarray, ...]


class PlanStep(NamedTuple):
    """What the executor needs to match one more query vertex."""

    label: int
    #: Columns of the already-matched query neighbors: candidates are
    #: gathered along the first and edge-tested against the rest.  Empty
    #: (disconnected query) ranges over every vertex of the label.
    nbr_cols: Tuple[int, ...]
    #: Columns the candidate must be smaller / larger than.
    lt_cols: Tuple[int, ...]
    gt_cols: Tuple[int, ...]
    #: Columns the candidate must differ from that no other test covers
    #: (a neighbor, an ordered or a differently-labeled column can never
    #: hold the same vertex).
    neq_cols: Tuple[int, ...]


def _compile_plan(
    graph: Graph,
    labels: Mapping[int, int],
    order: Sequence[int],
    pairs: Sequence[Tuple[int, int]],
) -> Tuple[PlanStep, ...]:
    """The plan matching ``order[d]`` into column ``d``; a pair
    ``(a, b)`` demands ``data[a] < data[b]``."""
    col = {q: d for d, q in enumerate(order)}
    steps = []
    for d, q in enumerate(order):
        nbrs = tuple(sorted(col[u] for u in graph.neighbors(q) if col[u] < d))
        lt = tuple(col[b] for a, b in pairs if a == q and col[b] < d)
        gt = tuple(col[a] for a, b in pairs if b == q and col[a] < d)
        covered = {*nbrs, *lt, *gt}
        neq = tuple(c for c in range(d)
                    if c not in covered and labels[order[c]] == labels[q])
        steps.append(PlanStep(labels[q], nbrs, lt, gt, neq))
    return tuple(steps)


class CompactCSR:
    """A vertex-induced data graph in position space.

    ``ids`` are the sorted vertex ids; everything else speaks
    *positions* into it, so ``<`` on positions is ``<`` on ids.  Row
    ``i`` is ``indices[indptr[i]:indptr[i+1]]`` (sorted), ``keys`` the
    sorted ``src * n + dst`` of every directed adjacency entry.
    """

    __slots__ = ("ids", "indptr", "indices", "labels", "keys")

    def __init__(self, ids: np.ndarray, indptr: np.ndarray,
                 indices: np.ndarray, labels: np.ndarray) -> None:
        self.ids = ids
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        n = ids.size
        self.keys = np.repeat(np.arange(n) * n, np.diff(indptr)) + indices

    @classmethod
    def from_graph(cls, g: Graph) -> "CompactCSR":
        ids, indptr, nbr_ids, labels = g.csr_arrays()
        return cls(ids, indptr, ids.searchsorted(nbr_ids), labels)

    @classmethod
    def from_rows(cls, vertex_ids: Sequence[int],
                  rows: Sequence[Sequence[int]],
                  labels: Sequence[int]) -> "CompactCSR":
        """The subgraph induced on ``vertex_ids``, whose sorted,
        duplicate-free adjacency rows (tuples or ndarrays) and labels
        arrive in the same order: a neighbor that has no row of its own
        is dropped, never guessed."""
        n = len(vertex_ids)
        order = np.argsort(np.asarray(vertex_ids, dtype=np.int64))
        ids = np.asarray(vertex_ids, dtype=np.int64)[order]
        rows = [rows[i] for i in order.tolist()]
        lens = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        flat = kernels.flatten_rows(rows)
        pos = ids.searchsorted(flat)
        present = ids.take(pos, mode="clip") == flat
        src = np.repeat(np.arange(n), lens)[present]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(ids, indptr, pos[present],
                   np.asarray(labels, dtype=np.int64)[order])

    def positions_of(self, vertex_ids: Iterable[int]) -> np.ndarray:
        """Positions of the given ids, silently skipping absent ones."""
        wanted = np.asarray(vertex_ids, dtype=np.int64)
        if not self.ids.size:
            return wanted[:0]
        pos = self.ids.searchsorted(wanted)
        return pos[self.ids.take(pos, mode="clip") == wanted]


def _expand(csr: CompactCSR, step: PlanStep, cols: Columns,
            source: np.ndarray, starts: np.ndarray, lens: np.ndarray,
            count_only: bool) -> Union[int, Columns]:
    """Match one more query vertex on every row of ``cols``.

    Row ``r``'s candidates are ``source[starts[r]:starts[r] + lens[r]]``.
    Returns the surviving ``(row, candidate)`` pairs as the next table,
    or just how many there are.
    """
    ends = np.cumsum(lens)
    row = np.repeat(np.arange(lens.size), lens)
    cand = source[np.arange(int(ends[-1])) + np.repeat(starts - ends + lens, lens)]
    keep = csr.labels[cand] == step.label
    for c in step.lt_cols:
        keep &= cand < cols[c][row]
    for c in step.gt_cols:
        keep &= cand > cols[c][row]
    for c in step.neq_cols:
        keep &= cand != cols[c][row]
    if len(step.nbr_cols) > 1:
        # Edge tests only on what the cheap masks left over.
        row, cand = row[keep], cand[keep]
        keys, n = csr.keys, csr.ids.size
        keep = np.ones(cand.size, dtype=bool)
        for c in step.nbr_cols[1:]:
            keep &= kernels._gallop_mask(cols[c][row] * n + cand, keys)
    if count_only:
        return int(np.count_nonzero(keep))
    row = row[keep]
    return (*(col[row] for col in cols), cand[keep])


def _extend(csr: CompactCSR, plan: Sequence[PlanStep], cols: Columns,
            want_rows: bool) -> Iterator[Union[int, Columns]]:
    """Take the partial embeddings ``cols`` through ``plan[len(cols):]``.

    Yields, chunk by chunk, the number of embeddings completed — or,
    with ``want_rows``, their full tables (never an empty one).
    """
    rows = cols[0].size
    if rows == 0:
        return
    depth = len(cols)
    if depth == len(plan):
        yield cols if want_rows else rows
        return
    step = plan[depth]
    if step.nbr_cols:
        source = csr.indices
        pivot = cols[step.nbr_cols[0]]
        starts = csr.indptr[pivot]
        lens = csr.indptr[pivot + 1] - starts
    else:
        source = np.flatnonzero(csr.labels == step.label)
        starts = np.zeros(rows, dtype=np.int64)
        lens = np.full(rows, source.size, dtype=np.int64)
    count_only = depth + 1 == len(plan) and not want_rows
    ends = np.cumsum(lens)
    lo = 0
    while lo < rows:
        # The longest run of rows whose candidates fit the cap (at
        # least one row, however wide).
        budget = (int(ends[lo - 1]) if lo else 0) + CHUNK_CANDIDATES
        hi = max(lo + 1, int(ends.searchsorted(budget, side="right")))
        piece = cols if hi - lo == rows else tuple(c[lo:hi] for c in cols)
        out = _expand(csr, step, piece, source, starts[lo:hi], lens[lo:hi],
                      count_only)
        if count_only:
            if out:
                yield out
        else:
            yield from _extend(csr, plan, out, want_rows)
        lo = hi


def run_plan(
    csr: CompactCSR,
    plan: Sequence[PlanStep],
    anchors: Optional[Iterable[int]] = None,
    want_rows: bool = False,
) -> Iterator[Union[int, np.ndarray]]:
    """Execute ``plan`` with its first query vertex pinned to ``anchors``.

    ``anchors`` are data vertex ids (``None``: every vertex); ids absent
    from ``csr`` or of the wrong label match nothing.  Yields embedding
    counts whose sum is the answer — or, with ``want_rows``, ``(rows,
    len(plan))`` int64 tables of vertex *ids*, column ``d`` holding the
    match of the plan's ``d``-th query vertex.  Both arrive chunk by
    chunk in no specified order.
    """
    if anchors is None:
        seeds = np.arange(csr.ids.size)
    else:
        seeds = csr.positions_of(anchors)
    seeds = seeds[csr.labels[seeds] == plan[0].label]
    tables = _extend(csr, plan, (seeds,), want_rows)
    if not want_rows:
        return tables
    return (csr.ids[np.stack(cols, axis=1)] for cols in tables)


class QueryGraph:
    """A small labeled pattern graph with a precompiled matching plan."""

    def __init__(
        self,
        edges: Sequence[Tuple[int, int]],
        labels: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.graph = Graph.from_edges(edges, labels=labels)
        if self.graph.num_vertices == 0:
            raise ValueError("query graph must not be empty")
        self.labels = {v: self.graph.label(v) for v in self.graph.vertices()}
        self.order = self._matching_order()
        self.symmetry_pairs = self._symmetry_breaking_pairs()
        #: One :class:`PlanStep` per depth of ``order``.
        self.plan = _compile_plan(self.graph, self.labels, self.order,
                                  self.symmetry_pairs)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    def _matching_order(self) -> List[int]:
        """Connectivity-first order: start at the max-degree query vertex,
        then repeatedly add the unmatched vertex with most matched
        neighbors (ties by degree)."""
        g = self.graph
        verts = g.sorted_vertices()
        start = max(verts, key=lambda v: (g.degree(v), -v))
        order = [start]
        remaining = set(verts) - {start}
        while remaining:
            def score(v: int) -> Tuple[int, int, int]:
                matched_nbrs = sum(1 for u in g.neighbors(v) if u in order)
                return (matched_nbrs, g.degree(v), -v)

            nxt = max(remaining, key=score)
            order.append(nxt)
            remaining.remove(nxt)
        return order

    def _symmetry_breaking_pairs(self) -> List[Tuple[int, int]]:
        """Pairs ``(a, b)`` of query vertices such that requiring
        ``data[a] < data[b]`` kills every non-identity automorphism,
        so each embedding is enumerated exactly once.

        The standard conditional construction: take the query vertices
        in id order and constrain each against the rest of its orbit
        under the automorphisms that fix every smaller vertex.  ``p`` is
        in ``v``'s orbit iff the query matches *itself* with the smaller
        vertices pinned in place and ``v`` sent to ``p`` — one run of
        the executor (no symmetry pairs in that plan) that stops at the
        first embedding found, so no automorphism group is ever
        enumerated.
        """
        g = self.graph
        verts = g.sorted_vertices()
        csr = CompactCSR.from_graph(g)
        plan = _compile_plan(g, self.labels, verts, ())
        identity = np.arange(len(verts)).reshape(-1, 1)
        pairs: List[Tuple[int, int]] = []
        for d, v in enumerate(verts):
            fixed = [u for u in g.neighbors(v) if u < v]
            for i in range(d + 1, len(verts)):
                p = verts[i]
                if (self.labels[p] != self.labels[v]
                        or g.degree(p) != g.degree(v)
                        or not all(g.has_edge(u, p) for u in fixed)):
                    continue
                prefix = (*identity[:d], identity[i])
                if next(_extend(csr, plan, prefix, True), None) is not None:
                    pairs.append((v, p))
        return pairs


def triangle_query(labels: Optional[Mapping[int, int]] = None) -> QueryGraph:
    """The 3-clique pattern."""
    return QueryGraph([(0, 1), (1, 2), (0, 2)], labels=labels)


def path_query(length: int) -> QueryGraph:
    """A simple unlabelled path with ``length`` edges."""
    if length < 1:
        raise ValueError("path length must be >= 1")
    return QueryGraph([(i, i + 1) for i in range(length)])


def star_query(arms: int) -> QueryGraph:
    """An unlabelled star: center 0 with ``arms`` leaves."""
    if arms < 1:
        raise ValueError("star must have >= 1 arm")
    return QueryGraph([(0, i) for i in range(1, arms + 1)])


def _anchor_ids(query: QueryGraph,
                anchor: Optional[Tuple[int, int]]) -> Optional[List[int]]:
    if anchor is None:
        return None
    qa, da = anchor
    if qa != query.order[0]:
        raise ValueError(
            f"anchor must pin the first query vertex in matching order "
            f"({query.order[0]}), got {qa}"
        )
    return [da]


def embeddings(csr: CompactCSR, query: QueryGraph,
               anchors: Optional[Iterable[int]] = None) -> Iterator[Dict[int, int]]:
    """:func:`run_plan`'s rows as ``{query vertex: data vertex}`` dicts
    of plain ints, one per embedding."""
    for table in run_plan(csr, query.plan, anchors, want_rows=True):
        for row in table.tolist():
            yield dict(zip(query.order, row))


def match_subgraph(
    data: Graph,
    query: QueryGraph,
    anchor: Optional[Tuple[int, int]] = None,
) -> Iterator[Dict[int, int]]:
    """Yield each embedding of ``query`` in ``data`` exactly once, as a
    ``{query vertex: data vertex}`` dict, in no specified order.

    Parameters
    ----------
    anchor:
        Optional ``(query_vertex, data_vertex)`` pin.  G-thinker's GM
        tasks partition the search space by anchoring the first query
        vertex at each data vertex, so the union over anchors is the
        full answer set.  The query vertex must be ``query.order[0]``
        (``ValueError`` otherwise); a data vertex that is not in the
        graph matches nothing.
    """
    yield from embeddings(CompactCSR.from_graph(data), query,
                          _anchor_ids(query, anchor))


def count_matches(
    data: Graph, query: QueryGraph, anchor: Optional[Tuple[int, int]] = None
) -> int:
    """Count embeddings; the last level is never materialized."""
    anchors = _anchor_ids(query, anchor)
    return sum(run_plan(CompactCSR.from_graph(data), query.plan, anchors))


def match_reference(data: Graph, query: QueryGraph) -> int:
    """Brute-force oracle: try every injective vertex combination.

    Exponential — only for tiny test graphs.  Counts *unique embeddings*
    (vertex-set+edge-preserving maps modulo query automorphisms), the
    same unit :func:`match_subgraph` reports.
    """
    qverts = query.graph.sorted_vertices()
    qedges = list(query.graph.edges())
    seen: Set[Tuple[Tuple[int, int], ...]] = set()
    data_vs = data.sorted_vertices()
    count = 0
    for perm in permutations(data_vs, len(qverts)):
        mapping = dict(zip(qverts, perm))
        if any(query.labels[q] != data.label(mapping[q]) for q in qverts):
            continue
        if not all(data.has_edge(mapping[u], mapping[v]) for u, v in qedges):
            continue
        # Canonicalize modulo automorphisms: the sorted image of each
        # query orbit.  Simplest: canonical key = sorted (label, data id)
        # per query vertex grouped by automorphism orbits — but a
        # sufficient canonical form for counting is the multiset of
        # (mapped edge) pairs plus the mapped vertex multiset.
        key = tuple(sorted((min(mapping[u], mapping[v]), max(mapping[u], mapping[v])) for u, v in qedges))
        vkey = tuple(sorted(mapping[q] for q in qverts))
        full_key = (vkey, key)
        if full_key in seen:
            continue
        seen.add(full_key)
        count += 1
    return count
