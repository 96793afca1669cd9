"""Sorted-array mining kernels.

Every adjacency list on the hot path is a sorted, duplicate-free,
read-only ``numpy.ndarray`` of ``int64`` vertex ids: a view of the
graph's CSR row for local vertices (a ``SharedCSR`` segment on the
process runtime), and for remote ones a slice of the ``adj_concat``
buffer of the response batch that carried the row.  The mining inner
loops — triangle counting, clique expansion, subgraph-matching
candidate generation — all reduce to intersections of such arrays, so
this module is the single place they are implemented.

Strategy auto-selection inside ``intersect`` / ``intersect_count``:

* **merge** when the inputs are comparably sized: concatenate and
  stable-sort (timsort merges the two pre-sorted runs linearly).
* **gallop** (binary-searching the smaller array into the larger) when
  ``|b| >= GALLOP_RATIO * |a|`` — O(|a| log |b|), the common shape in
  degree-skewed graphs where a low-degree frontier is intersected
  against a hub's adjacency.

The fused frontier kernel ``intersect_count_many(a, rows)`` flattens
the rows and looks every element up in ``a`` in one pass
(:func:`in_sorted`, through a per-thread membership table kept between
calls); only hub rows are probed ``a``-into-row instead.

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

import threading
from typing import Callable, Dict, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "GALLOP_RATIO",
    "HUB_MIN",
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
    "TABLE_SLOTS",
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


#: A row is a hub only if it is this long as well as ``GALLOP_RATIO``
#: times ``a``: a shorter row costs less read through the membership
#: table than in a numpy call of its own (sweep: DESIGN.md §9.2).
HUB_MIN = 1024

#: Most slots a thread's membership table may have (16 MB of ``bool``):
#: :func:`in_sorted` uses the table only while ``a[-1] + 2`` fits.
TABLE_SLOTS = 1 << 24

_tables = threading.local()
_NO_TABLE = np.zeros(0, dtype=bool)


def _table(top: int) -> np.ndarray:
    """This thread's membership table, all ``False``, grown (at least
    twofold, never shrunk) past slot ``top + 1``; ``np.zeros`` pages
    cost memory only once a call marks them."""
    table = getattr(_tables, "table", _NO_TABLE)
    if table.size < top + 2:
        table = np.zeros(min(max(2 * table.size, top + 2), TABLE_SLOTS),
                         dtype=bool)
        _tables.table = table
    return table


def _np_intersect_count_many(a: AdjLike, arrays: Iterable[AdjLike]) -> int:
    """Fused ``sum(intersect_count(a, b) for b in arrays)``.

    The triangle-counting inner loop: one fixed row ``a`` against a
    whole frontier of rows, in O(1) numpy calls instead of one per row.
    The frontier is flattened and every element is looked up in ``a`` in
    a single pass (:func:`in_sorted`) — rows need no boundaries, only the
    total matters.  That is the wrong direction for a *hub* row, so rows
    with ``|b| >= max(GALLOP_RATIO * |a|, HUB_MIN)`` are probed
    ``a``-into-``b`` instead (``|a| log |b|``): a 3-element ``a`` against
    5000-element hubs never touches the hubs' elements.  ``arrays`` is
    consumed exactly once.
    """
    a = as_ids_array(a)
    rows = list(arrays)
    if a.size == 0 or not rows:
        return 0
    total = 0
    hub_size = max(GALLOP_RATIO * a.size, HUB_MIN)
    if max(map(len, rows)) >= hub_size:
        hubs = [b for b in rows if len(b) >= hub_size]
        rows = [b for b in rows if len(b) < hub_size]
        for b in hubs:
            total += int(np.count_nonzero(_gallop_mask(a, as_ids_array(b))))
    return total + int(np.count_nonzero(in_sorted(flatten_rows(rows), a)))


def in_sorted(values: IdArray, a: IdArray) -> np.ndarray:
    """Boolean mask over ``values``: which of them occur in ``a``
    (sorted, duplicate-free, non-empty).

    When ``a[0] >= 1`` and ``a[-1] + 2 <= TABLE_SLOTS``, through this
    thread's membership table (:func:`_table`): mark ``a``'s ids, one
    clipped ``take`` of ``values``, clear the marks.  Slot 0 and the
    slots past ``a[-1]`` are never marked, so a negative value (clipped
    onto slot 0) and a value past the table (clipped onto its last
    slot) read ``False``.  Any other ``a`` is binary-searched
    (:func:`_gallop_mask`).
    """
    top = int(a[-1])
    if a[0] > 0 and top < TABLE_SLOTS - 1:
        table = _table(top)
        table[a] = True
        try:
            return table.take(values, mode="clip")
        finally:
            table[a] = False
    return _gallop_mask(values, a)


def _np_suffix_gt(adj: AdjLike, v: int) -> IdArray:
    """Slice of ``adj`` strictly greater than ``v`` (sorted input).

    For ndarray input this is a *view* — it shares memory with ``adj``,
    so trimming a ``SharedCSR`` row stays zero-copy.  Mirrors the
    pure-Python ``adjacency_suffix_gt`` oracle.
    """
    a = as_ids_array(adj)
    # The method skips np.searchsorted's python dispatch wrapper: this
    # runs once per owned row when a worker trims its T_local.
    return a[int(a.searchsorted(v, side="right")):]


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
