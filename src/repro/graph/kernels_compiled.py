"""Compiled (numba) implementations of the hot mining kernels.

This module is import-safe without numba: :data:`NUMBA_AVAILABLE` tells
the dispatcher in :mod:`repro.graph.kernels` whether the backend can be
built, and every kernel *body* is a plain-python function (written in
the numba-compilable subset) that runs interpreted when numba is absent.
That keeps the algorithms testable everywhere — the property suite runs
the bodies against the pure-python oracles even on numpy-only boxes —
while CI's ``scaling-smoke`` job exercises the actual compiled
artifacts.

Kernels
-------
* ``intersect`` / ``intersect_count`` — two-pointer linear merge with a
  galloping (binary-search) path for heavy size skew, mirroring the
  numpy strategy selection but without any temporary concatenation or
  sort.
* ``intersect_many`` — smallest-first fold over the compiled pairwise
  intersection.
* ``intersect_count_many`` — the fused triangle-counting kernel: one
  fixed row against a whole frontier (flattened to one buffer + offsets)
  in a single compiled call, no intermediate arrays.
* ``suffix_gt`` — compiled upper-bound binary search; the returned slice
  is taken in python so it stays a zero-copy *view* of the input row.
* ``bitset_and_counts`` — per-row popcount-of-AND over packed uint64
  bitsets (the quasi-clique in-set-degree bound).
* ``bitset_max_clique`` (backend *extra*) — the branch-and-bound maximum
  clique core of :func:`repro.algorithms.cliques.max_clique` on packed
  uint64 bitsets: explicit-stack DFS with popcount and greedy-coloring
  bounds, bit-for-bit mirroring the pure-python ``_max_clique_bitset``
  search order so both backends return identical cliques.

All integer bit manipulation sticks to explicit ``np.uint64`` constants:
numba promotes mixed uint64/int64 arithmetic to float64, which would be
both wrong and slow.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from . import kernels as _k

__all__ = ["NUMBA_AVAILABLE", "make_backend"]

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Identity decorator so kernel bodies stay plain functions."""
        if args and callable(args[0]) and not kwargs:
            return args[0]

        def wrap(fn):
            return fn

        return wrap


_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False

# uint64 constants: see module docstring on numba's mixed-sign promotion.
_U1 = np.uint64(1)
_U16 = np.uint64(16)
_U32 = np.uint64(32)
_U48 = np.uint64(48)
_M16 = np.uint64(0xFFFF)

#: 16-bit popcount table (int64 so sums stay integral under numba).
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)],
                  dtype=np.int64)


# ---------------------------------------------------------------------------
# Kernel bodies (numba-compilable subset of python)
# ---------------------------------------------------------------------------


def _intersect_kernel(a, b, gallop_ratio):
    """Intersection of sorted duplicate-free int64 arrays; |a| <= |b|."""
    na = a.shape[0]
    nb = b.shape[0]
    out = np.empty(na, dtype=np.int64)
    k = 0
    if nb >= gallop_ratio * na:
        lo = 0
        for i in range(na):
            x = a[i]
            left = lo
            right = nb
            while left < right:
                mid = (left + right) >> 1
                if b[mid] < x:
                    left = mid + 1
                else:
                    right = mid
            if left < nb and b[left] == x:
                out[k] = x
                k += 1
            lo = left
        return out[:k]
    i = 0
    j = 0
    while i < na and j < nb:
        x = a[i]
        y = b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            out[k] = x
            k += 1
            i += 1
            j += 1
    return out[:k]


def _intersect_count_kernel(a, b, gallop_ratio):
    """``len(intersect(a, b))`` without an output array; |a| <= |b|."""
    na = a.shape[0]
    nb = b.shape[0]
    count = 0
    if nb >= gallop_ratio * na:
        lo = 0
        for i in range(na):
            x = a[i]
            left = lo
            right = nb
            while left < right:
                mid = (left + right) >> 1
                if b[mid] < x:
                    left = mid + 1
                else:
                    right = mid
            if left < nb and b[left] == x:
                count += 1
            lo = left
        return count
    i = 0
    j = 0
    while i < na and j < nb:
        x = a[i]
        y = b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            count += 1
            i += 1
            j += 1
    return count


def _suffix_pos_kernel(a, v):
    """Index of the first element strictly greater than ``v`` (sorted a)."""
    left = 0
    right = a.shape[0]
    while left < right:
        mid = (left + right) >> 1
        if a[mid] <= v:
            left = mid + 1
        else:
            right = mid
    return left


def _build_intersect_count_many(count_fn):
    """Fused frontier counting; parameterized so the compiled variant
    calls the compiled pairwise kernel and the interpreted variant the
    plain body."""

    def _intersect_count_many_kernel(a, flat, offsets, gallop_ratio):
        total = 0
        nrows = offsets.shape[0] - 1
        na = a.shape[0]
        for r in range(nrows):
            start = offsets[r]
            stop = offsets[r + 1]
            nb = stop - start
            if nb == 0:
                continue
            b = flat[start:stop]
            if na <= nb:
                total += count_fn(a, b, gallop_ratio)
            else:
                total += count_fn(b, a, gallop_ratio)
        return total

    return _intersect_count_many_kernel


def _build_bitset_and_counts(pop16):
    def _bitset_and_counts_kernel(rows_words, mask_words, out):
        nrows = rows_words.shape[0]
        nwords = rows_words.shape[1]
        for r in range(nrows):
            total = 0
            for w in range(nwords):
                x = rows_words[r, w] & mask_words[w]
                total += (pop16[x & _M16] + pop16[(x >> _U16) & _M16]
                          + pop16[(x >> _U32) & _M16] + pop16[x >> _U48])
            out[r] = total
        return out

    return _bitset_and_counts_kernel


def _build_bitset_max_clique(pop16):
    """Branch-and-bound maximum clique on packed uint64 bitsets.

    Explicit-stack mirror of ``repro.algorithms.cliques._max_clique_bitset``:

    * candidates are consumed highest position first;
    * bounds are (a) members + popcount(cand) and (b) members + a
      greedy-coloring bound peeling one independent set per color,
      lowest bit first;
    * only strictly-better cliques replace the incumbent.

    Identical search order + identical prune conditions = identical
    result to the pure path, which is what the cross-backend equivalence
    tests assert.
    """

    def _bitset_max_clique_kernel(rows, lower_bound):
        n = rows.shape[0]
        nwords = rows.shape[1]
        best_size = lower_bound if lower_bound > 0 else 0
        best = np.empty(n, dtype=np.int64)
        best_len = 0
        chosen = np.empty(n + 1, dtype=np.int64)
        cand = np.zeros((n + 2, nwords), dtype=np.uint64)
        entered = np.zeros(n + 2, dtype=np.uint8)
        tmp = np.zeros(nwords, dtype=np.uint64)
        q = np.zeros(nwords, dtype=np.uint64)

        for i in range(n):
            cand[0, i >> 6] |= _U1 << np.uint64(i & 63)
        depth = 0
        entered[0] = 0

        while depth >= 0:
            # popcount of the current candidate set
            pc = 0
            for w in range(nwords):
                x = cand[depth, w]
                pc += (pop16[x & _M16] + pop16[(x >> _U16) & _M16]
                       + pop16[(x >> _U32) & _M16] + pop16[x >> _U48])

            if entered[depth] == 0:
                entered[depth] = 1
                if pc == 0:
                    if depth > best_size:
                        best_size = depth
                        best_len = depth
                        for i in range(depth):
                            best[i] = chosen[i]
                    depth -= 1
                    continue
                if depth + pc <= best_size:
                    depth -= 1
                    continue
                # Greedy-coloring bound: peel independent sets, lowest
                # bit first (matches the pure-python bound()).
                ncol = 0
                for w in range(nwords):
                    tmp[w] = cand[depth, w]
                while True:
                    nonzero = False
                    for w in range(nwords):
                        if tmp[w] != np.uint64(0):
                            nonzero = True
                            break
                    if not nonzero:
                        break
                    ncol += 1
                    for w in range(nwords):
                        q[w] = tmp[w]
                    while True:
                        b = -1
                        for w in range(nwords):
                            word = q[w]
                            if word != np.uint64(0):
                                bit = 0
                                while (word >> np.uint64(bit)) & _U1 == np.uint64(0):
                                    bit += 1
                                b = (w << 6) + bit
                                break
                        if b < 0:
                            break
                        for w in range(nwords):
                            q[w] &= ~rows[b, w]
                        q[b >> 6] &= ~(_U1 << np.uint64(b & 63))
                        tmp[b >> 6] &= ~(_U1 << np.uint64(b & 63))
                    if depth + ncol > best_size:
                        break  # bound already clears the prune: stop early
                if depth + ncol <= best_size:
                    depth -= 1
                    continue

            # Loop step: take the highest remaining candidate.
            if pc == 0 or depth + pc <= best_size:
                depth -= 1
                continue
            p = -1
            for w in range(nwords - 1, -1, -1):
                word = cand[depth, w]
                if word != np.uint64(0):
                    bit = 63
                    while (word >> np.uint64(bit)) & _U1 == np.uint64(0):
                        bit -= 1
                    p = (w << 6) + bit
                    break
            cand[depth, p >> 6] &= ~(_U1 << np.uint64(p & 63))
            chosen[depth] = p
            for w in range(nwords):
                cand[depth + 1, w] = cand[depth, w] & rows[p, w]
            entered[depth + 1] = 0
            depth += 1

        return best[:best_len]

    return _bitset_max_clique_kernel


# Interpreted variants, always defined: the property tests run these
# bodies against the oracles even when numba is absent.
_intersect_count_many_py = _build_intersect_count_many(_intersect_count_kernel)
_bitset_and_counts_py = _build_bitset_and_counts(_POP16)
_bitset_max_clique_py = _build_bitset_max_clique(_POP16)


# ---------------------------------------------------------------------------
# Backend construction
# ---------------------------------------------------------------------------

_COMPILED: Dict[str, Callable] = {}


def _compiled_kernels() -> Dict[str, Callable]:
    """Compile (once) and return the njit dispatchers."""
    if _COMPILED:
        return _COMPILED
    intersect_c = njit(cache=True)(_intersect_kernel)
    count_c = njit(cache=True)(_intersect_count_kernel)
    _COMPILED.update(
        intersect=intersect_c,
        count=count_c,
        suffix_pos=njit(cache=True)(_suffix_pos_kernel),
        # Closures over other dispatchers / global arrays: numba caching
        # does not cover these reliably, so they compile per process.
        count_many=njit(_build_intersect_count_many(count_c)),
        bitset_and_counts=njit(_build_bitset_and_counts(_POP16)),
        bitset_max_clique=njit(_build_bitset_max_clique(_POP16)),
    )
    return _COMPILED


def _contiguous_ids(adj) -> np.ndarray:
    arr = _k.as_ids_array(adj)
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    return arr


def make_backend() -> Tuple[Dict[str, Callable], Dict[str, Callable]]:
    """Build the dispatched-kernel table + extras for the numba backend.

    Returns ``(kernels, extras)`` matching the contract in
    :mod:`repro.graph.kernels`.  Raises if numba is unavailable.
    """
    if not NUMBA_AVAILABLE:  # pragma: no cover - guarded by the dispatcher
        raise _k.KernelBackendError("numba is not importable")
    c = _compiled_kernels()
    c_intersect = c["intersect"]
    c_count = c["count"]
    c_suffix_pos = c["suffix_pos"]
    c_count_many = c["count_many"]
    c_bitset_counts = c["bitset_and_counts"]

    def intersect(a, b):
        a = _contiguous_ids(a)
        b = _contiguous_ids(b)
        if a.size > b.size:
            a, b = b, a
        if a.size == 0:
            return _EMPTY
        return c_intersect(a, b, _k.GALLOP_RATIO)

    def intersect_count(a, b):
        a = _contiguous_ids(a)
        b = _contiguous_ids(b)
        if a.size > b.size:
            a, b = b, a
        if a.size == 0 or b.size == 0:
            return 0
        return int(c_count(a, b, _k.GALLOP_RATIO))

    def intersect_many(arrays):
        arrs = []
        for a in arrays:
            arr = _contiguous_ids(a)
            if arr.size == 0:
                return _EMPTY
            arrs.append(arr)
        if not arrs:
            return _EMPTY
        arrs.sort(key=lambda x: x.size)
        acc = arrs[0]
        for nxt in arrs[1:]:
            small, large = (acc, nxt) if acc.size <= nxt.size else (nxt, acc)
            acc = c_intersect(small, large, _k.GALLOP_RATIO)
            if acc.size == 0:
                return _EMPTY
        return acc

    def intersect_count_many(a, arrays):
        a = _contiguous_ids(a)
        rows = list(arrays)
        if a.size == 0 or not rows:
            return 0
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(r) for r in rows], out=offsets[1:])
        flat = _k.flatten_rows(rows)
        return int(c_count_many(a, flat, offsets, _k.GALLOP_RATIO))

    def suffix_gt(adj, v):
        a = _contiguous_ids(adj)
        return a[int(c_suffix_pos(a, int(v))):]

    def bitset_and_counts(rows_words, mask_words):
        if rows_words.ndim == 1:
            rows_words = rows_words[None, :]
        out = np.empty(rows_words.shape[0], dtype=np.int64)
        return c_bitset_counts(np.ascontiguousarray(rows_words),
                               mask_words, out)

    kernels = {
        "intersect": intersect,
        "intersect_count": intersect_count,
        "intersect_many": intersect_many,
        "intersect_count_many": intersect_count_many,
        "suffix_gt": suffix_gt,
        "bitset_and_counts": bitset_and_counts,
    }

    c_bb = c["bitset_max_clique"]

    def bitset_max_clique(rows_words, lower_bound):
        rows_words = np.ascontiguousarray(rows_words)
        return c_bb(rows_words, int(lower_bound))

    extras = {"bitset_max_clique": bitset_max_clique}
    return kernels, extras
