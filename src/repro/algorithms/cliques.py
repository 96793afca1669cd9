"""Serial clique algorithms.

Two roles in the reproduction:

* :func:`max_clique` is the serial branch-and-bound miner that a
  G-thinker task runs on its materialized subgraph ``t.g`` once the
  subgraph is small enough (Fig. 5 line 12 — "run serial algorithm on
  t.g, with current maximum clique size = |S_max| - |t.S|").  It follows
  the classic Carraghan–Pardalos / [31]-style search: greedy coloring
  upper bound plus incumbent pruning seeded from the aggregator, after
  :func:`peel` has dropped the vertices with too few neighbours to be
  in a clique that beats that incumbent.
* :func:`enumerate_maximal_cliques` (Bron–Kerbosch with pivoting) and
  :func:`max_clique_reference` are independent oracles used by tests.

All functions take a :class:`repro.graph.Graph` or a plain ``{v: sorted
row}`` adjacency mapping, so tasks can call them on the rows they pulled
without round-tripping through a graph object.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, NamedTuple, Sequence, Set, Tuple

import numpy as np

from ..graph import kernels
from ..graph.graph import Graph

__all__ = [
    "max_clique",
    "peel",
    "Scoped",
    "max_clique_reference",
    "enumerate_maximal_cliques",
    "bron_kerbosch",
    "AdjMap",
]

AdjMap = Mapping[int, Sequence[int]]


def _scoped_edges(g: AdjMap) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, lo, hi)`` of a ``{id: sorted row}`` mapping.

    ``ids`` are the row ids in ascending order; ``lo[i] < hi[i]`` are the
    positions in ``ids`` of the ends of the i-th undirected edge, each
    edge once, sorted by ``(lo, hi)``.  An adjacency item that names a
    row is an edge whichever of its two rows lists it, so full and
    ``Γ_>``-trimmed rows give the same edges.  Items naming no row (ids
    two hops out) and self-loops are dropped.  One vectorised pass over
    the concatenated rows: a membership test against the sorted ids, one
    ``searchsorted`` of the items that name a row, one sort to drop
    repeats.
    """
    n = len(g)
    ids = np.fromiter(g, dtype=np.int64, count=n)
    if not n:
        return ids, ids, ids
    rows = list(g.values())
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    flat = kernels.flatten_rows(rows)
    order = ids.argsort(kind="stable")
    ids = ids[order]
    named = kernels.in_sorted(flat, ids)
    src = order.argsort()[np.arange(n).repeat(lens)[named]]
    dst = ids.searchsorted(flat[named])
    lo = np.minimum(src, dst)
    keys = lo * n + (src + dst - lo)  # (lo, hi) with hi the larger end
    keys.sort()
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    lo, hi = np.divmod(keys, n)
    keep = lo != hi
    return ids, lo[keep], hi[keep]


class Scoped(NamedTuple):
    """A ``{id: row}`` mapping as the search sees it: ``ids`` ascending,
    each undirected edge once as positions ``lo < hi`` sorted by
    ``(lo, hi)``, and each position's ``degrees``."""

    ids: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    degrees: np.ndarray


def _degrees(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)


def peel(g, floor: int) -> Scoped:
    """The part of ``g`` that can hold a clique of more than ``floor``
    vertices.

    ``g`` is a ``{id: sorted row}`` mapping (scoped as in
    :func:`max_clique`) or a :class:`Scoped` already.  Every member of
    such a clique has at least ``floor`` neighbours in it, so vertices
    with fewer than ``floor`` neighbours left are dropped, round by
    round, until none is.  Nothing is dropped when ``floor <= 0``; when
    every vertex meets the floor the peel costs one comparison.
    """
    if isinstance(g, Scoped):
        ids, lo, hi, degrees = g
    else:
        ids, lo, hi = _scoped_edges(g)
        degrees = _degrees(lo, hi, ids.size)
    while floor > 0:
        keep = degrees >= floor
        if keep.all():
            break
        ids = ids[keep]
        at = keep.cumsum() - 1  # new position of each kept one: order holds
        both = keep[lo] & keep[hi]
        lo, hi = at[lo[both]], at[hi[both]]
        degrees = _degrees(lo, hi, ids.size)
    return Scoped(ids, lo, hi, degrees)


_ONE = np.uint64(1)


def _mask_words(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Row masks of ``n <= 128`` positions as two uint64 words per row:
    ``words[:n]`` holds bits 0-63, ``words[n:]`` bits 64-127."""
    words = np.zeros(2 * n, dtype=np.uint64)
    np.bitwise_or.at(words, (dst >> 6) * n + src,
                     _ONE << (dst & 63).astype(np.uint64))
    return words


def _color_positions(order: np.ndarray, rows: Sequence[np.ndarray],
                     color: np.ndarray) -> int:
    """Greedy-color vertices (as dense positions) in the given order.

    ``rows[i]`` lists the in-scope neighbor positions of vertex ``i``;
    ``color`` is a scratch array pre-filled with -1 whose touched slots
    are reset before returning.  Each vertex takes the smallest color
    absent among its already-colored neighbors (vectorized mex).
    """
    max_color = 0
    for i in order:
        nbr_colors = color[rows[i]]
        used = nbr_colors[nbr_colors >= 0]
        if used.size == 0:
            c = 0
        else:
            seen = np.zeros(used.size + 1, dtype=bool)
            seen[used[used <= used.size]] = True
            c = int(np.argmin(seen))
        color[i] = c
        if c + 1 > max_color:
            max_color = c + 1
    color[order] = -1
    return max_color


#: Below this vertex count the branch-and-bound runs on python-int
#: bitmasks instead of ndarray kernels: candidate sets fit in one or two
#: machine words, where a single ``&`` beats any vectorized intersection
#: call.  Decomposed G-thinker tasks (|V(t.g)| <= tau) live here.
_BITSET_MAX = 128


def _bitset_color_bound(rows: List[int], cand: int) -> int:
    """Greedy coloring: peel one independent set (color class) per
    round; the number of rounds bounds the clique size."""
    ncol = 0
    while cand:
        ncol += 1
        q = cand
        while q:
            b = q & -q
            q &= ~rows[b.bit_length() - 1]
            q ^= b
            cand ^= b
    return ncol


def _bitset_expand(rows: List[int], members: List[int], cand: int,
                   incumbent: List) -> None:
    """One branch of the bitmask search; ``incumbent`` is the mutable
    ``[size to beat, best members]`` pair shared by the whole search."""
    if not cand:
        if len(members) > incumbent[0]:
            incumbent[0] = len(members)
            incumbent[1] = members.copy()
        return
    if len(members) + cand.bit_count() <= incumbent[0]:
        return
    if len(members) + _bitset_color_bound(rows, cand) <= incumbent[0]:
        return
    while cand:
        if len(members) + cand.bit_count() <= incumbent[0]:
            break
        p = cand.bit_length() - 1
        cand ^= 1 << p
        members.append(p)
        _bitset_expand(rows, members, cand & rows[p], incumbent)
        members.pop()


def _max_clique_bitset(rows: List[int], n: int, lower_bound: int) -> List[int]:
    """Branch-and-bound over bitmask candidate sets (positions 0..n-1).

    Mirrors the ndarray search below: candidates are consumed highest
    position first so the remaining mask is exactly ``candidates[:i]``,
    with the same popcount and greedy-coloring bounds.
    """
    incumbent = [max(lower_bound, 0), []]
    _bitset_expand(rows, [], (1 << n) - 1, incumbent)
    return incumbent[1]


def _array_expand(search: Tuple, clique: List[int], candidates: np.ndarray,
                  incumbent: List) -> None:
    """One branch of the ndarray search over ``search = (rows,
    full_degs, color_scratch)``; ``incumbent`` as in
    :func:`_bitset_expand`."""
    if candidates.size == 0:
        if len(clique) > incumbent[0]:
            incumbent[0] = len(clique)
            incumbent[1] = list(clique)
        return
    if len(clique) + candidates.size <= incumbent[0]:
        return
    rows, full_degs, color_scratch = search
    # Greedy-coloring upper bound on the candidates' induced graph,
    # reusing the shared scratch array (reset inside).
    corder = candidates[np.argsort(-full_degs[candidates], kind="stable")]
    if len(clique) + _color_positions(corder, rows, color_scratch) <= incumbent[0]:
        return
    # Iterate candidates in reverse outer order so the candidate set
    # shrinks monotonically (set-enumeration style, Fig. 1).
    for i in range(candidates.size - 1, -1, -1):
        if len(clique) + i + 1 <= incumbent[0]:
            break
        p = int(candidates[i])
        clique.append(p)
        _array_expand(search, clique,
                      kernels.intersect(candidates[:i], rows[p]), incumbent)
        clique.pop()


def max_clique(g, lower_bound: int = 0) -> Tuple[int, ...]:
    """Find a maximum clique of ``g`` by branch-and-bound.

    Parameters
    ----------
    g:
        A :class:`~repro.graph.Graph`, a ``{v: sorted adjacency}``
        mapping (int64 arrays or int sequences), or the :class:`Scoped`
        form :func:`peel` returns.  Rows may be full or ``Γ_>``-trimmed
        and may name ids that have no row of their own: the search runs
        on the undirected graph induced by the mapping's ids,
        symmetrised here.
    lower_bound:
        A clique size already known to exist *elsewhere* (the paper's
        :math:`\\Delta = |S_{max}| - |t.S|` pruning seed).  The search
        only reports cliques strictly larger than this; if none exists
        the empty tuple is returned.  Before searching, :func:`peel`
        drops the vertices that cannot be in such a clique.

    Returns
    -------
    The vertex tuple of the best clique found that beats ``lower_bound``,
    or ``()`` if the bound cannot be beaten.
    """
    if isinstance(g, Graph):
        g = {v: g.neighbors_array(v) for v in g.vertices()}
    floor = max(lower_bound, 0)
    ids, lo, hi, degrees = peel(g, floor)
    n = ids.size
    if n <= floor:
        return ()

    # Order candidates by degeneracy-ish heuristic: ascending degree for
    # the outer loop gives small candidate sets early (cheap) and leaves
    # the dense core for last, when the incumbent already prunes hard.
    # Vertices are then remapped to dense positions in that order, so a
    # candidate set is a bitmask (or a sorted position array) and the
    # narrowing is one ``&`` (or one kernel intersection).
    order = degrees.argsort(kind="stable")  # ties keep id order
    rank = order.argsort()
    lo, hi = rank[lo], rank[hi]
    src, dst = np.concatenate((lo, hi)), np.concatenate((hi, lo))
    if n <= _BITSET_MAX:
        words = _mask_words(src, dst, n)
        low, high = words[:n].tolist(), words[n:].tolist()
        masks = low if n <= 64 else [a | b << 64 for a, b in zip(low, high)]
        best = _max_clique_bitset(masks, n, floor)
    else:
        pairs = np.sort(src * n + dst)
        degrees = degrees[order]
        rows = np.split(pairs % n, np.cumsum(degrees)[:-1])
        incumbent = [floor, []]
        _array_expand((rows, degrees, np.full(n, -1, dtype=np.int64)),
                      [], np.arange(n, dtype=np.int64), incumbent)
        best = incumbent[1]
    # The incumbent only moves to a clique larger than ``floor``.
    return tuple(sorted(ids[order[best]].tolist()))


def bron_kerbosch(adj: Dict[int, Set[int]], r: Set[int], p: Set[int],
                  x: Set[int]) -> Iterator[Tuple[int, ...]]:
    """Bron–Kerbosch with pivoting from the state ``(R, P, X)``: every
    maximal clique that extends ``r`` by vertices of ``p`` and cannot be
    extended by one of ``x``.  Consumes ``p`` and ``x``."""
    if not p and not x:
        yield tuple(sorted(r))
        return
    pivot = max(p | x, key=lambda u: len(adj[u] & p))
    for v in list(p - adj[pivot]):
        yield from bron_kerbosch(adj, r | {v}, p & adj[v], x & adj[v])
        p.remove(v)
        x.add(v)


def enumerate_maximal_cliques(g) -> Iterator[Tuple[int, ...]]:
    """Bron–Kerbosch with pivoting; yields each maximal clique once.

    Used as an oracle and by the Arabesque-style baseline's validation
    path.  Iterative-friendly recursion depth: bounded by the graph's
    degeneracy, fine for our test sizes.
    """
    rows = g.adjacency() if isinstance(g, Graph) else g
    adj = {v: set(a) for v, a in rows.items()}
    yield from bron_kerbosch(adj, set(), set(adj), set())


def max_clique_reference(g) -> Tuple[int, ...]:
    """Oracle maximum clique via full Bron–Kerbosch enumeration."""
    best: Tuple[int, ...] = ()
    for c in enumerate_maximal_cliques(g):
        if len(c) > len(best):
            best = c
    return best
