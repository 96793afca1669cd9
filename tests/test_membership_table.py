"""Property tests: the per-thread membership table behind ``in_sorted``.

:func:`repro.graph.kernels.in_sorted` (and so the frontier kernel
``intersect_count_many``) reads ``a`` through one ``bool`` table per
thread, kept between calls.  Hypothesis drives it against pure-python
oracles on the edges that decide or bound the table path: ``a`` holding
0 or 1, negative values, ids at the table's cap and one past it, rows
straddling ``a``'s range, empty rows and rows exactly at the hub cut.
After every call the table must be all ``False`` again, and threads
must never see each other's marks.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import kernels
from repro.graph.graph import intersect_sorted_count

from tests.test_kernels_property import hub_min, table_is_clear

_CAP = kernels.TABLE_SLOTS

#: Where ``a`` starts: below zero, on 0 and 1 (the table's sentinel
#: edge), mid-table, straddling the cap, and far past it.
_STARTS = (-40, -1, 0, 1, 500, _CAP - 80, _CAP - 45, 2**62)

#: Values every row may also carry: the ends of int64, the sentinels'
#: neighbours and the ids at and past the cap.
_EDGE_VALUES = (-(2**63), -1, 0, 1, 2, _CAP - 2, _CAP - 1, _CAP, _CAP + 1,
                2**63 - 1)


def _ids(xs) -> np.ndarray:
    return np.unique(np.asarray(xs, dtype=np.int64))


@st.composite
def table_case(draw):
    """``(a, rows)``: ``a`` from one of ``_STARTS``; rows straddling
    ``a``'s range, sprinkled with edge values, sometimes empty, and
    sometimes exactly one short of, at, or one past the hub cut."""
    start = draw(st.sampled_from(_STARTS))
    a = _ids(draw(st.lists(st.integers(start, start + 60), min_size=1,
                           max_size=30)))
    lo, hi = int(a[0]) - 20, int(a[-1]) + 20
    value = st.one_of(st.integers(lo, hi), st.sampled_from(_EDGE_VALUES))
    rows = [_ids(xs) for xs in draw(st.lists(
        st.lists(value, max_size=40), max_size=6))]
    cut = max(kernels.GALLOP_RATIO * a.size, kernels.HUB_MIN)
    for delta in draw(st.lists(st.sampled_from((-1, 0, 1)), max_size=2)):
        first = draw(st.integers(lo, hi))
        rows.append(np.arange(first, first + cut + delta, dtype=np.int64))
    return a, rows


def _oracle_mask(values: np.ndarray, a: np.ndarray) -> list:
    members = set(a.tolist())
    return [v in members for v in values.tolist()]


def _oracle_count(a: np.ndarray, rows) -> int:
    return sum(intersect_sorted_count(a.tolist(), r.tolist()) for r in rows)


@settings(deadline=None, max_examples=200)
@given(table_case())
def test_in_sorted_matches_membership_oracle(case):
    a, rows = case
    values = kernels.flatten_rows(rows)
    assert kernels.in_sorted(values, a).tolist() == _oracle_mask(values, a)
    assert table_is_clear()
    assert kernels.in_sorted(a, a).all()
    assert table_is_clear()


@settings(deadline=None, max_examples=200)
@given(table_case())
def test_intersect_count_many_matches_oracle_at_every_cut(case):
    a, rows = case
    expected = _oracle_count(a, rows)
    # The default floor, and a floor of 0: every row >= 8|a| a hub.
    for floor in (kernels.HUB_MIN, 0):
        with hub_min(floor):
            assert kernels.intersect_count_many(a, rows) == expected
            assert table_is_clear()


def test_in_sorted_clears_the_table_when_take_raises():
    a = np.array([3, 5], dtype=np.int64)
    with pytest.raises(TypeError):  # float values cannot index the table
        kernels.in_sorted(np.array([3.0, 5.0]), a)
    assert table_is_clear()
    assert kernels.in_sorted(np.array([3, 4, 5]), a).tolist() == [True, False, True]


def test_eight_threads_with_overlapping_ranges_agree_with_the_oracle():
    """Eight threads mark and clear overlapping id ranges at once, at a
    tiny switch interval, growing their tables as the ranges widen.  A
    mark one thread left in another's table would show up as a wrong
    count or a table not clear after a call."""
    threads, errors, tables = 8, [], [None] * 8
    barrier = threading.Barrier(threads)

    def work(k: int) -> None:
        rng = np.random.default_rng(100 + k)
        try:
            barrier.wait(timeout=60)
            for i in range(150):
                lo = int(rng.integers(1, 400)) + 20 * i
                hi = lo + int(rng.integers(1, 300))
                a = _ids(rng.integers(lo, hi, size=int(rng.integers(1, 30))))
                rows = [_ids(rng.integers(lo - 50, hi + 50,
                                          size=int(rng.integers(0, 80))))
                        for _ in range(int(rng.integers(0, 6)))]
                values = kernels.flatten_rows(rows)
                assert kernels.intersect_count_many(a, rows) == (
                    _oracle_count(a, rows))
                assert kernels.in_sorted(values, a).tolist() == (
                    _oracle_mask(values, a))
                assert table_is_clear()
            tables[k] = kernels._tables.table
        except BaseException as exc:  # reported from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,))
                   for k in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not errors, errors[0]
    assert len({id(t) for t in tables}) == threads  # one table each
