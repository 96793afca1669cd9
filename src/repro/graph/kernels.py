"""Sorted-array mining kernels.

Every adjacency list on the hot path is a sorted, duplicate-free
``numpy.ndarray`` of ``int64`` vertex ids (a zero-copy view into a
``SharedCSR`` partition for local vertices, an owned array for remote
ones).  The mining inner loops — triangle counting, clique expansion,
subgraph-matching candidate generation — all reduce to intersections of
such arrays, so this module is the single place they are implemented.

Strategy auto-selection inside ``intersect`` / ``intersect_count``:

* **merge** when the inputs are comparably sized: concatenate and
  stable-sort (timsort merges the two pre-sorted runs linearly).
* **gallop** (binary-searching the smaller array into the larger) when
  ``|b| >= GALLOP_RATIO * |a|`` — O(|a| log |b|), the common shape in
  degree-skewed graphs where a low-degree frontier is intersected
  against a hub's adjacency.

The fused frontier kernel ``intersect_count_many(a, rows)`` applies the
same size rule per row, but batches everything under the cut: it
flattens the non-hub rows and tests them against ``a`` in one segmented
pass (see :func:`_np_intersect_count_many`); rows past the cut are
probed ``a``-into-row.  The segmented pass itself picks:

* **bitmap** — a ``bool`` table over ``a``'s id range with a ``False``
  slot on each side, one clipped ``take`` per element — when that range
  is at most 4 slots per flattened element (dense ids, e.g. a TC task
  on a compact graph);
* **search** — one ``searchsorted`` of the flattened rows into ``a``
  otherwise (sparse or huge id spaces, where the table would not pay).

Call sites look the kernels up as module attributes
(``kernels.intersect(...)``), so a profiler can wrap the names in
:data:`DISPATCHED_KERNELS` in place; :func:`select_backend` binds them
back to the implementations below.

The pure-Python ``intersect_sorted`` / ``intersect_sorted_count`` /
``adjacency_suffix_gt`` in :mod:`repro.graph.graph` are kept unchanged as
the reference oracles; ``tests/test_kernels.py`` checks every kernel here
against them on randomized inputs, and ``tests/test_kernels_property.py``
adds hypothesis property coverage.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "GALLOP_RATIO",
    "IdArray",
    "as_ids_array",
    "flatten_rows",
    "in_sorted",
    "intersect",
    "intersect_count",
    "intersect_count_many",
    "intersect_gallop",
    "intersect_many",
    "intersect_merge",
    "suffix_gt",
]

IdArray = np.ndarray
AdjLike = Union[np.ndarray, Sequence[int]]

#: Switch from the linear merge to the galloping (binary-search) kernel
#: when the larger input is at least this many times the smaller one
#: (the sort-based merge loses to ``searchsorted`` early).
GALLOP_RATIO = 8

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


def as_ids_array(adj: AdjLike) -> IdArray:
    """Return ``adj`` as an int64 ndarray, zero-copy when already one.

    Tuples/lists of python ints (the legacy representation, still
    accepted everywhere for compatibility) are converted; arrays of the
    right dtype pass through untouched so views into ``SharedCSR``
    partitions keep sharing memory.
    """
    if isinstance(adj, np.ndarray):
        if adj.dtype == np.int64:
            return adj
        return adj.astype(np.int64)
    return np.asarray(adj, dtype=np.int64)


def _gallop_mask(small: IdArray, large: IdArray) -> np.ndarray:
    """Boolean mask over ``small`` marking elements present in ``large``.

    ``large`` must be sorted and non-empty; ``small`` need not be sorted
    (the segmented frontier pass probes a concatenation of sorted rows).
    ``searchsorted`` finds each candidate's insertion point in one
    vectorized pass; taking with ``mode='clip'`` maps the out-of-range
    index to the last slot, which is safe because an element beyond
    ``large[-1]`` can never compare equal to it.
    """
    return large.take(large.searchsorted(small), mode="clip") == small


def _bitmap_mask(small: IdArray, large: IdArray) -> np.ndarray:
    """``_gallop_mask`` by table lookup: one ``take`` per element of
    ``small`` instead of a binary search into ``large``.

    ``mark`` covers ``large``'s id range ``[large[0], large[-1]]`` with a
    ``False`` slot on each side, so slot ``x - lo`` answers "is ``x`` in
    ``large``" for ``lo = large[0] - 1``.  ``mode='clip'`` sends every
    id below the range (offset ``<= 0``) to the left slot and every id
    above it to the right one.  The int64 subtraction may wrap for ids
    far from the range, but never into ``[1, span]``: that would need a
    true offset of ``w - 2**64`` with ``w <= span``, i.e. an id below
    ``-2**63``.  ``large`` must be sorted, non-empty and start above
    int64's minimum (so ``lo`` exists); the table has
    ``large[-1] - large[0] + 3`` bytes, so callers bound the span.
    """
    lo = int(large[0]) - 1
    mark = np.zeros(int(large[-1]) - lo + 2, dtype=bool)
    mark[large - lo] = True
    return mark.take(small - lo, mode="clip")


def _merge(a: IdArray, b: IdArray) -> IdArray:
    """Stable-sort merge: the concatenation is two sorted runs, which
    timsort detects and merges linearly; duplicates are then adjacent
    and (inputs being duplicate-free) mark exactly the intersection."""
    aux = np.concatenate((a, b))
    aux.sort(kind="stable")
    return aux[:-1][aux[1:] == aux[:-1]]


def intersect_merge(a: AdjLike, b: AdjLike) -> IdArray:
    """Linear-merge intersection of two sorted duplicate-free arrays.

    Strategy-forcing variant, kept public for crossover measurement and
    tests.
    """
    a = as_ids_array(a)
    b = as_ids_array(b)
    if a.size == 0 or b.size == 0:
        return _EMPTY
    return _merge(a, b)


def intersect_gallop(a: AdjLike, b: AdjLike) -> IdArray:
    """Galloping intersection: binary-search the smaller into the larger.

    Strategy-forcing variant, kept public for crossover measurement and
    tests.
    """
    a = as_ids_array(a)
    b = as_ids_array(b)
    if a.size > b.size:
        a, b = b, a
    if a.size == 0 or b.size == 0:
        return _EMPTY
    return a[_gallop_mask(a, b)]


def _np_intersect(a: AdjLike, b: AdjLike) -> IdArray:
    """Sorted-array intersection, auto-selecting merge vs gallop.

    Returns a sorted int64 array.  The result is always a fresh (owned)
    array; inputs are never modified.
    """
    a = as_ids_array(a)
    b = as_ids_array(b)
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return _EMPTY
    if b.size >= GALLOP_RATIO * a.size:
        return a[_gallop_mask(a, b)]
    return _merge(a, b)


def _np_intersect_count(a: AdjLike, b: AdjLike) -> int:
    """``len(intersect(a, b))`` without materializing the result.

    Same merge/gallop auto-selection as :func:`intersect`, but both
    paths end in ``count_nonzero`` on the equality mask — no output
    array is ever built.
    """
    a = as_ids_array(a)
    b = as_ids_array(b)
    if a.size > b.size:
        a, b = b, a
    if a.size == 0 or b.size == 0:
        return 0
    if b.size >= GALLOP_RATIO * a.size:
        return int(np.count_nonzero(_gallop_mask(a, b)))
    aux = np.concatenate((a, b))
    aux.sort(kind="stable")
    return int(np.count_nonzero(aux[1:] == aux[:-1]))


def _np_intersect_many(arrays: Iterable[AdjLike]) -> IdArray:
    """Fold an intersection across a frontier of sorted arrays.

    Conversion is streamed: the moment any input is empty the fold bails
    out *before* materializing the remaining inputs (an empty member
    empties the whole intersection).  The survivors are processed
    smallest-first so the running result shrinks as fast as possible.
    An empty iterable returns an empty array (there is no universe set
    to return).
    """
    arrs = []
    for a in arrays:
        arr = as_ids_array(a)
        if arr.size == 0:
            return _EMPTY
        arrs.append(arr)
    if not arrs:
        return _EMPTY
    arrs.sort(key=lambda x: x.size)
    acc = arrs[0]
    for nxt in arrs[1:]:
        acc = _np_intersect(acc, nxt)
        if acc.size == 0:
            return _EMPTY
    return acc


def flatten_rows(rows: Sequence[AdjLike]) -> IdArray:
    """The rows back to back in one fresh C-contiguous int64 buffer.

    The segmented frontier pass walks this buffer; it needs no row
    boundaries.  Rows are normalized exactly like :func:`as_ids_array`
    does (tuples/lists accepted, other integer dtypes cast).
    """
    if not rows:
        return _EMPTY
    return np.concatenate(rows, dtype=np.int64, casting="unsafe")


#: The frontier probes ``a`` through a bitmap while ``a``'s id span is
#: at most this many slots per flattened element (kernel time of one
#: R-MAT scale-13 TC job: 0.152 s all-search, 0.088 s at 1, 0.075 s at
#: 4, 0.073 s at 16; 4 keeps the table under the flat buffer's bytes).
_BITMAP_SLOTS_PER_ELEMENT = 4

_INT64_MIN = int(np.iinfo(np.int64).min)


def _np_intersect_count_many(a: AdjLike, arrays: Iterable[AdjLike]) -> int:
    """Fused ``sum(intersect_count(a, b) for b in arrays)``.

    The triangle-counting inner loop: one fixed row ``a`` against a
    whole frontier of rows, in O(1) numpy calls instead of one per row.
    The frontier is flattened and every element is looked up in ``a`` in
    a single segmented pass — rows need no boundaries, only the total
    matters.  The lookup is a bitmap over ``a``'s id range
    (:func:`_bitmap_mask`, O(1) per element) when that range is at most
    ``_BITMAP_SLOTS_PER_ELEMENT`` slots per flattened element, else a
    binary search (``|b| log |a|`` per row); the choice reads only
    ``a[0]``, ``a[-1]`` and the flattened length.  Either direction is
    the wrong one for a *hub* row, so rows with
    ``|b| >= GALLOP_RATIO * |a|`` keep today's per-row choice and are
    probed ``a``-into-``b`` instead (``|a| log |b|``): a 3-element ``a``
    against 5000-element hubs never touches the hubs' elements.
    ``arrays`` is consumed exactly once.
    """
    a = as_ids_array(a)
    rows = list(arrays)
    if a.size == 0 or not rows:
        return 0
    total = 0
    hub_size = GALLOP_RATIO * a.size
    if max(map(len, rows)) >= hub_size:
        hubs = [b for b in rows if len(b) >= hub_size]
        rows = [b for b in rows if len(b) < hub_size]
        for b in hubs:
            total += int(np.count_nonzero(_gallop_mask(a, as_ids_array(b))))
    return total + int(np.count_nonzero(in_sorted(flatten_rows(rows), a)))


def in_sorted(values: IdArray, a: IdArray) -> np.ndarray:
    """Boolean mask over ``values``: which of them occur in ``a``
    (sorted, duplicate-free, non-empty).

    A bitmap over ``a``'s id range (:func:`_bitmap_mask`, O(1) per
    value) when that range is at most ``_BITMAP_SLOTS_PER_ELEMENT``
    slots per value, else a binary search (:func:`_gallop_mask`); the
    choice reads only ``a[0]``, ``a[-1]`` and ``values.size``.
    """
    first = int(a[0])
    # a[-1] - a[0] + 1 <= slots * |values|, on python ints (cannot overflow)
    dense = int(a[-1]) - first < _BITMAP_SLOTS_PER_ELEMENT * values.size
    if dense and first > _INT64_MIN:
        return _bitmap_mask(values, a)
    return _gallop_mask(values, a)


def _np_suffix_gt(adj: AdjLike, v: int) -> IdArray:
    """Slice of ``adj`` strictly greater than ``v`` (sorted input).

    For ndarray input this is a *view* — it shares memory with ``adj``,
    so trimming a ``SharedCSR`` row stays zero-copy.  Mirrors the
    pure-Python ``adjacency_suffix_gt`` oracle.
    """
    a = as_ids_array(adj)
    return a[int(np.searchsorted(a, v, side="right")):]


# ---------------------------------------------------------------------------
# Bindings
# ---------------------------------------------------------------------------

_KERNELS: Dict[str, Callable] = {
    "intersect": _np_intersect,
    "intersect_count": _np_intersect_count,
    "intersect_many": _np_intersect_many,
    "intersect_count_many": _np_intersect_count_many,
    "suffix_gt": _np_suffix_gt,
}

#: Module-level kernel names a profiler may wrap in place.
DISPATCHED_KERNELS = tuple(_KERNELS)

intersect = _np_intersect
intersect_count = _np_intersect_count
intersect_many = _np_intersect_many
intersect_count_many = _np_intersect_count_many
suffix_gt = _np_suffix_gt


def select_backend(name: str = "numpy") -> str:
    """Bind :data:`DISPATCHED_KERNELS` to the implementations above,
    undoing any wrapper, and return ``'numpy'``, the one backend.

    With :func:`current_backend` and :func:`compiled_kernel` this is the
    surface the e2e benchmark's tracer (``benchmarks/e2e/tracing.py``)
    patches and calls.
    """
    if name != "numpy":
        raise ValueError(f"unknown kernel backend {name!r}; numpy is the only one")
    globals().update(_KERNELS)
    return name


def current_backend() -> str:
    """``'numpy'``: see :func:`select_backend`."""
    return "numpy"


def compiled_kernel(name: str) -> None:
    """Always ``None``: there are no compiled kernels (see
    :func:`select_backend`)."""
    return None
