"""Serial clique algorithms.

Two roles in the reproduction:

* :func:`max_clique` is the serial branch-and-bound miner that a
  G-thinker task runs on its materialized subgraph ``t.g`` once the
  subgraph is small enough (Fig. 5 line 12 — "run serial algorithm on
  t.g, with current maximum clique size = |S_max| - |t.S|").  It follows
  the classic Carraghan–Pardalos / [31]-style search: greedy coloring
  upper bound plus incumbent pruning seeded from the aggregator.
* :func:`enumerate_maximal_cliques` (Bron–Kerbosch with pivoting) and
  :func:`max_clique_reference` are independent oracles used by tests.

All functions operate on plain ``{v: sorted tuple}`` adjacency mappings
so tasks can call them on locally materialized subgraphs without
round-tripping through :class:`repro.graph.Graph`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..graph import kernels
from ..graph.graph import Graph

__all__ = [
    "max_clique",
    "max_clique_reference",
    "enumerate_maximal_cliques",
    "bron_kerbosch",
    "AdjMap",
]

AdjMap = Mapping[int, Sequence[int]]


def _as_adj(g) -> Dict[int, Tuple[int, ...]]:
    if isinstance(g, Graph):
        return g.adjacency()
    return {v: tuple(a) for v, a in g.items()}


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
        A :class:`~repro.graph.Graph` or a ``{v: sorted adjacency}``
        mapping.
    lower_bound:
        A clique size already known to exist *elsewhere* (the paper's
        :math:`\\Delta = |S_{max}| - |t.S|` pruning seed).  The search
        only reports cliques strictly larger than this; if none exists
        the empty tuple is returned.

    Returns
    -------
    The vertex tuple of the best clique found that beats ``lower_bound``,
    or ``()`` if the bound cannot be beaten.
    """
    adj = _as_adj(g)
    if not adj:
        return ()
    best: List[int] = []
    best_size = max(lower_bound, 0)

    # Order candidates by degeneracy-ish heuristic: ascending degree for
    # the outer loop gives small candidate sets early (cheap) and leaves
    # the dense core for last, when the incumbent already prunes hard.
    # Vertices are then remapped to dense positions in that order so the
    # whole search runs on sorted int64 position arrays and the candidate
    # narrowing is a vectorized kernel intersection.
    order = sorted(adj, key=lambda v: len(adj[v]))
    n = len(order)
    pos = {v: i for i, v in enumerate(order)}

    if n <= _BITSET_MAX:
        masks = [0] * n
        for i, v in enumerate(order):
            m = 0
            for u in adj[v]:
                j = pos.get(u)
                if j is not None:
                    m |= 1 << j
            masks[i] = m
        best = _max_clique_bitset(masks, n, best_size)
        if len(best) > max(lower_bound, 0) or (lower_bound <= 0 and best):
            return tuple(sorted(int(order[p]) for p in best))
        return ()

    rows: List[np.ndarray] = [
        np.sort(np.fromiter((pos[u] for u in adj[v] if u in pos),
                            dtype=np.int64))
        for v in order
    ]
    full_degs = np.fromiter((len(adj[v]) for v in order), dtype=np.int64,
                            count=n)
    color_scratch = np.full(n, -1, dtype=np.int64)
    incumbent = [best_size, best]
    _array_expand((rows, full_degs, color_scratch), [],
                  np.arange(n, dtype=np.int64), incumbent)
    best_size, best = incumbent
    if best_size > max(lower_bound, 0) or (lower_bound <= 0 and best):
        return tuple(sorted(int(order[p]) for p in best))
    return ()


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
    adj = {v: set(a) for v, a in _as_adj(g).items()}
    yield from bron_kerbosch(adj, set(), set(adj), set())


def max_clique_reference(g) -> Tuple[int, ...]:
    """Oracle maximum clique via full Bron–Kerbosch enumeration."""
    best: Tuple[int, ...] = ()
    for c in enumerate_maximal_cliques(g):
        if len(c) > len(best):
            best = c
    return best
