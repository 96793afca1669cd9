"""Property tests: the sorted-array kernels vs pure-python oracles.

Hypothesis drives :mod:`repro.graph.kernels` against the pure-python
oracles in :mod:`repro.graph.graph`, under both merge/gallop strategies,
across the regimes that historically break intersection kernels: empty
and singleton rows, heavy hub skew, dense overlap, and huge sparse id
spaces.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.graph import intersect_sorted, intersect_sorted_count

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Value bounds spanning dense overlap (8), mid (1000), and huge sparse
#: id spaces (2**40 — also catches any int32 truncation).
_BOUNDS = (8, 50, 1_000, 2**40)


@st.composite
def sorted_ids(draw, max_size: int = 48) -> np.ndarray:
    bound = draw(st.sampled_from(_BOUNDS))
    xs = draw(st.lists(st.integers(0, bound), max_size=max_size))
    return np.unique(np.asarray(xs, dtype=np.int64))


@st.composite
def skewed_pair(draw):
    """(small, huge) pairs that force the galloping path."""
    small = draw(sorted_ids(max_size=4))
    huge = draw(sorted_ids(max_size=400))
    return small, huge


#: ``GALLOP_RATIO`` values covering both strategies: 1 forces galloping
#: for any non-empty pair, a huge ratio forces the merge.
_RATIOS = (1, 8, 1 << 30)


@contextmanager
def _patched(name, value):
    saved = getattr(kernels, name)
    setattr(kernels, name, value)
    try:
        yield
    finally:
        setattr(kernels, name, saved)


def _gallop_ratio(ratio):
    return _patched("GALLOP_RATIO", ratio)


def hub_min(floor):
    return _patched("HUB_MIN", floor)


def table_is_clear() -> bool:
    """This thread's membership table holds no marks (or does not exist)."""
    table = getattr(kernels._tables, "table", None)
    return table is None or not table.any()


# ---------------------------------------------------------------------------
# Pairwise kernels
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=120)
@given(sorted_ids(), sorted_ids())
def test_intersect_kernel_matches_oracle(a, b):
    expected = intersect_sorted(a.tolist(), b.tolist())
    assert kernels.intersect_merge(a, b).tolist() == expected
    assert kernels.intersect_gallop(a, b).tolist() == expected
    for ratio in _RATIOS:
        with _gallop_ratio(ratio):
            assert kernels.intersect(a, b).tolist() == expected


@settings(deadline=None, max_examples=120)
@given(sorted_ids(), sorted_ids())
def test_intersect_count_kernel_matches_oracle(a, b):
    expected = intersect_sorted_count(a.tolist(), b.tolist())
    for ratio in _RATIOS:
        with _gallop_ratio(ratio):
            assert kernels.intersect_count(a, b) == expected


@settings(deadline=None, max_examples=60)
@given(skewed_pair())
def test_gallop_path_on_hub_skew(pair):
    small, huge = pair
    expected = intersect_sorted(small.tolist(), huge.tolist())
    assert kernels.intersect(small, huge).tolist() == expected
    assert kernels.intersect_count(huge, small) == len(expected)


@settings(deadline=None, max_examples=80)
@given(sorted_ids(), st.integers(-2, 2**40 + 2))
def test_suffix_pos_kernel_matches_searchsorted(a, v):
    out = kernels.suffix_gt(a, v)
    assert out.size == a.size - int(np.searchsorted(a, v, side="right"))
    assert out.tolist() == [x for x in a.tolist() if x > v]


# ---------------------------------------------------------------------------
# The segmented frontier kernel (dispatched intersect_count_many)
# ---------------------------------------------------------------------------

#: Ids just under 2**62: any float round-trip or int32 narrowing in the
#: flatten / search path would collapse neighbouring values.
_HUGE = 2**62


@st.composite
def frontier_ids(draw, max_size: int):
    """A sorted duplicate-free row; sometimes shifted up to ~2**62."""
    bound = draw(st.sampled_from((8, 50, 1_000)))
    base = draw(st.sampled_from((0, _HUGE - 1_000)))
    xs = draw(st.lists(st.integers(0, bound), max_size=max_size))
    return np.unique(np.asarray(xs, dtype=np.int64)) + base


@st.composite
def skewed_frontier(draw):
    """``(a, rows)`` on both sides of the ``GALLOP_RATIO`` cut: tiny
    ``a`` x hub rows, hub ``a`` x tiny rows, and both kinds of row in one
    call — plus the degenerate shapes (no rows, one row, all empty)."""
    shape = draw(st.sampled_from(
        ("tiny_a_hubs", "hub_a_tiny_rows", "mixed", "single", "all_empty")
    ))
    if shape == "tiny_a_hubs":
        a = draw(frontier_ids(3))
        rows = draw(st.lists(frontier_ids(400), min_size=1, max_size=4))
    elif shape == "hub_a_tiny_rows":
        a = draw(frontier_ids(400))
        rows = draw(st.lists(frontier_ids(3), min_size=1, max_size=8))
    elif shape == "mixed":
        a = draw(frontier_ids(12))
        rows = draw(st.lists(
            st.one_of(frontier_ids(3), frontier_ids(12), frontier_ids(400)),
            min_size=2, max_size=8,
        ))
    elif shape == "single":
        a = draw(frontier_ids(48))
        rows = [draw(frontier_ids(48))]
    else:
        a = draw(frontier_ids(12))
        rows = [np.empty(0, dtype=np.int64)] * draw(st.integers(0, 4))
    return a, rows


class _OneShot:
    """An iterable that fails the test if it is iterated twice."""

    def __init__(self, rows):
        self._rows = rows
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        assert self.iterations == 1, "frontier iterated more than once"
        return iter(self._rows)


@settings(deadline=None, max_examples=150)
@given(skewed_frontier())
def test_segmented_count_many_matches_pairwise_oracle(case):
    a, rows = case
    expected = sum(
        intersect_sorted_count(a.tolist(), r.tolist()) for r in rows
    )
    assert kernels.intersect_count_many(a, rows) == expected
    # A generator argument: consumed exactly once, same answer.
    assert kernels.intersect_count_many(a, (r for r in rows)) == expected
    once = _OneShot(rows)
    assert kernels.intersect_count_many(a, once) == expected
    assert once.iterations <= 1
    # Legacy tuple rows take the same normalization.
    assert kernels.intersect_count_many(
        tuple(a.tolist()), [tuple(r.tolist()) for r in rows]
    ) == expected
    # Every row a hub, or none: the answer does not move with the cut.
    for ratio in _RATIOS:
        for floor in (0, kernels.HUB_MIN):
            with _gallop_ratio(ratio), hub_min(floor):
                assert kernels.intersect_count_many(a, rows) == expected
    assert table_is_clear()


def test_segmented_count_many_hub_rows_are_probed_not_searched(monkeypatch):
    """Rows past the cut (``HUB_MIN`` long and ``GALLOP_RATIO`` times
    ``a``) keep the per-row direction: a 3-element ``a`` against
    5000-element hubs must never look the hubs' 15 000 elements up in
    ``a``.  The tiny row goes through the membership table, unsearched."""
    a = np.array([10, 2_000, 4_999], dtype=np.int64)
    hubs = [np.arange(5_000, dtype=np.int64) for _ in range(3)]
    tiny = [np.array([10, 11], dtype=np.int64)]
    needles, looked_up, tables = [], [], []
    real_mask, real_in, real_table = (
        kernels._gallop_mask, kernels.in_sorted, kernels._table)

    def mask_spy(small, large):
        needles.append(len(small))
        return real_mask(small, large)

    def in_spy(values, ids):
        looked_up.append(len(values))
        return real_in(values, ids)

    def table_spy(top):
        tables.append(top)
        return real_table(top)

    monkeypatch.setattr(kernels, "_gallop_mask", mask_spy)
    monkeypatch.setattr(kernels, "in_sorted", in_spy)
    monkeypatch.setattr(kernels, "_table", table_spy)
    assert kernels.intersect_count_many(a, hubs + tiny) == 3 * 3 + 1
    assert needles == [3, 3, 3]  # a into each hub, nothing into a
    assert looked_up == [2] and tables == [4_999]
    assert table_is_clear()


#: Bases for the table strategy: zero, the table's last ids, the ~2**62
#: shift, and the two ends of int64.
_BITMAP_BASES = (0, kernels.TABLE_SLOTS - 160, _HUGE - 1_000, 2**63 - 400,
                 -(2**63))


@st.composite
def dense_frontier(draw):
    """``(a, rows)`` where ``a`` is dense over a small id range.  Near
    zero ``a`` goes through the membership table; near the table's end
    it falls on either side of the cap; at the far bases it is searched.
    Rows lie wholly below, wholly above or straddling ``[a[0], a[-1]]``;
    ``a`` is sometimes a single id."""
    base = draw(st.sampled_from(_BITMAP_BASES))
    width = draw(st.sampled_from((1, 6, 40)))
    lo = draw(st.integers(base + 100, base + 140))
    ids = draw(st.lists(st.integers(lo, lo + width - 1), min_size=1,
                        max_size=width))
    a = np.unique(np.asarray(ids, dtype=np.int64))
    first, last = min(ids), max(ids)
    where = st.sampled_from((
        (base, first - 1),                           # wholly below
        (last + 1, min(last + 150, 2**63 - 1)),      # wholly above
        (first - 30, min(last + 30, 2**63 - 1)),     # straddling
    ))
    rows = []
    for lo_r, hi_r in draw(st.lists(where, min_size=1, max_size=5)):
        xs = draw(st.lists(st.integers(lo_r, hi_r), min_size=1, max_size=60))
        rows.append(np.unique(np.asarray(xs, dtype=np.int64)))
    return a, rows


@settings(deadline=None, max_examples=200)
@given(dense_frontier())
def test_bitmap_path_matches_pairwise_oracle(case):
    a, rows = case
    expected = sum(
        intersect_sorted_count(a.tolist(), r.tolist()) for r in rows
    )
    assert kernels._np_intersect_count_many(a, rows) == expected
    flat = kernels.flatten_rows(rows)
    mask = kernels.in_sorted(flat, a)
    assert mask.tolist() == kernels._gallop_mask(flat, a).tolist()
    assert np.count_nonzero(mask) == expected
    assert table_is_clear()


def test_table_reads_int64_extremes_as_absent():
    """Values a full int64 away from ``a``, or past the table, clip onto
    a slot that is never marked; ``a`` at either end of int64, or past
    the cap, is searched instead and answers the same (only ``past_a``
    holds one of the far values, ``cap - 1``)."""
    top = np.iinfo(np.int64).max
    bottom = np.iinfo(np.int64).min
    cap = kernels.TABLE_SLOTS
    far = np.array([bottom, bottom + 11, -1, 0, cap - 1, cap, cap + 1,
                    top - 11, top], dtype=np.int64)
    low_a = np.arange(bottom + 1, bottom + 11, dtype=np.int64)
    high_a = np.arange(top - 10, top, dtype=np.int64)
    table_a = np.arange(1, 11, dtype=np.int64)
    last_a = np.array([1, cap - 3, cap - 2], dtype=np.int64)  # fills the cap
    past_a = np.array([1, cap - 1], dtype=np.int64)  # would mark the last slot
    for a in (low_a, high_a, table_a, last_a, past_a):
        members = set(a.tolist())
        assert kernels.in_sorted(far, a).tolist() == [
            v in members for v in far.tolist()]
        assert kernels.in_sorted(a, a).all()
        assert table_is_clear()
    assert kernels._tables.table.size == cap  # grown to the cap, no further
    # a[0] == int64 min is searched like any other negative id.
    edge = np.array([bottom, bottom + 1], dtype=np.int64)
    assert kernels._np_intersect_count_many(edge, [edge] * 4) == 8


def test_segmented_count_many_picks_table_by_ids_and_cap(monkeypatch):
    """The flattened rows go through the membership table exactly when
    ``a`` holds no id below 1 and its last id leaves the table's last
    slot unmarked (``a[-1] + 2 <= TABLE_SLOTS``); any other ``a`` is
    binary-searched, and never builds or touches a table."""
    cap = kernels.TABLE_SLOTS
    calls = []
    real_mask, real_table = kernels._gallop_mask, kernels._table

    def mask_spy(small, large):
        calls.append(("search", len(small)))
        return real_mask(small, large)

    def table_spy(top):
        calls.append(("table", top))
        return real_table(top)

    monkeypatch.setattr(kernels, "_gallop_mask", mask_spy)
    monkeypatch.setattr(kernels, "_table", table_spy)
    rows = [np.arange(0, 40, 2, dtype=np.int64) for _ in range(5)]
    for ids, hits, path in (
        ([2, 7, 38], 10, ("table", 38)),
        ([1, 2, 38], 10, ("table", 38)),
        ([2, 38, cap - 2], 10, ("table", cap - 2)),  # the last id it takes
        ([2, 38, cap - 1], 10, ("search", 100)),
        ([0, 2, 38], 15, ("search", 100)),
        ([-4, 2, 38], 10, ("search", 100)),
    ):
        calls.clear()
        assert kernels.intersect_count_many(np.array(ids), rows) == hits
        assert calls == [path]
        assert table_is_clear()


def test_flatten_rows_normalizes_like_as_ids_array():
    rows = [np.array([1, 2], dtype=np.int32), (), [_HUGE - 1, _HUGE], (7,)]
    flat = kernels.flatten_rows(rows)
    assert flat.dtype == np.int64 and flat.flags.c_contiguous
    assert flat.tolist() == [1, 2, _HUGE - 1, _HUGE, 7]
    assert kernels.flatten_rows([]).size == 0
    assert kernels.flatten_rows([(), ()]).dtype == np.int64


# ---------------------------------------------------------------------------
# The public kernels together
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(sorted_ids(), sorted_ids(), st.lists(sorted_ids(max_size=24), max_size=4))
def test_dispatched_kernels_match_oracles(a, b, rows):
    expected = intersect_sorted(a.tolist(), b.tolist())
    assert kernels.intersect(a, b).tolist() == expected
    assert kernels.intersect_count(a, b) == len(expected)
    assert kernels.intersect_count_many(a, rows) == sum(
        intersect_sorted_count(a.tolist(), r.tolist()) for r in rows
    )
    acc = a.tolist()
    for r in rows:
        acc = intersect_sorted(acc, r.tolist())
    assert kernels.intersect_many([a] + rows).tolist() == acc
    if a.size:
        pivot = int(a[a.size // 2])
        out = kernels.suffix_gt(a, pivot)
        assert out.tolist() == [x for x in a.tolist() if x > pivot]
        assert np.shares_memory(out, a) or out.size == 0
