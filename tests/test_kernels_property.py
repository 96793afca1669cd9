"""Property tests: compiled kernel bodies vs pure-python oracles.

The compiled backend in :mod:`repro.graph.kernels_compiled` is written
as plain-python functions in the numba-compilable subset, so the exact
code that numba compiles in CI also runs *interpreted* here.  Hypothesis
drives those bodies (and the dispatched kernels under every importable
backend) against the pure-python oracles in :mod:`repro.graph.graph`
and brute-force set arithmetic, across the regimes that historically
break intersection kernels: empty and singleton rows, heavy hub skew,
dense overlap, and huge sparse id spaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.cliques import _max_clique_bitset, max_clique_reference
from repro.algorithms.quasicliques import enumerate_quasi_cliques
from repro.graph import kernels
from repro.graph.graph import intersect_sorted, intersect_sorted_count
from repro.graph.kernels_compiled import (
    _bitset_and_counts_py,
    _bitset_max_clique_py,
    _intersect_count_kernel,
    _intersect_count_many_py,
    _intersect_kernel,
    _suffix_pos_kernel,
)

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


@st.composite
def small_adjacency(draw, max_n: int = 10):
    """A random simple undirected graph as ``{v: sorted tuple}``."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: tuple(sorted(a)) for v, a in adj.items()}


#: gallop_ratio values covering both strategies: 1 forces galloping for
#: any non-empty pair, a huge ratio forces the two-pointer merge.
_RATIOS = (1, 8, 1 << 30)


# ---------------------------------------------------------------------------
# Pairwise kernels
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=120)
@given(sorted_ids(), sorted_ids())
def test_intersect_kernel_matches_oracle(a, b):
    expected = intersect_sorted(a.tolist(), b.tolist())
    small, large = (a, b) if a.size <= b.size else (b, a)
    for ratio in _RATIOS:
        assert _intersect_kernel(small, large, ratio).tolist() == expected


@settings(deadline=None, max_examples=120)
@given(sorted_ids(), sorted_ids())
def test_intersect_count_kernel_matches_oracle(a, b):
    expected = intersect_sorted_count(a.tolist(), b.tolist())
    small, large = (a, b) if a.size <= b.size else (b, a)
    for ratio in _RATIOS:
        assert _intersect_count_kernel(small, large, ratio) == expected


@settings(deadline=None, max_examples=60)
@given(skewed_pair())
def test_gallop_path_on_hub_skew(pair):
    small, huge = pair
    expected = intersect_sorted(small.tolist(), huge.tolist())
    assert _intersect_kernel(small, huge, 1).tolist() == expected
    assert _intersect_count_kernel(small, huge, 1) == len(expected)


@settings(deadline=None, max_examples=80)
@given(sorted_ids(), st.integers(-2, 2**40 + 2))
def test_suffix_pos_kernel_matches_searchsorted(a, v):
    assert _suffix_pos_kernel(a, v) == int(np.searchsorted(a, v, side="right"))


@settings(deadline=None, max_examples=60)
@given(sorted_ids(max_size=16), st.lists(sorted_ids(max_size=24), max_size=6))
def test_intersect_count_many_interpreted_matches_pairwise(a, rows):
    expected = sum(
        intersect_sorted_count(a.tolist(), r.tolist()) for r in rows
    )
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, r in enumerate(rows):
        offsets[i + 1] = offsets[i] + r.size
    flat = (np.concatenate(rows) if rows
            else np.empty(0, dtype=np.int64))
    for ratio in _RATIOS:
        assert _intersect_count_many_py(a, flat, offsets, ratio) == expected


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
    prior = kernels.current_backend()
    try:
        for backend in kernels.available_backends():
            kernels.select_backend(backend)
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
    finally:
        kernels.select_backend(prior)


def test_segmented_count_many_hub_rows_are_probed_not_searched(monkeypatch):
    """Rows past the GALLOP_RATIO cut keep the per-row direction: a
    3-element ``a`` against 5000-element hubs must never binary-search
    the hubs' 15 000 elements into ``a``."""
    prior = kernels.current_backend()
    kernels.select_backend("numpy")
    try:
        a = np.array([10, 2_000, 4_999], dtype=np.int64)
        hubs = [np.arange(5_000, dtype=np.int64) for _ in range(3)]
        tiny = [np.array([10, 11], dtype=np.int64)]
        needles = []
        real = kernels._gallop_mask

        def spy(small, large):
            needles.append(len(small))
            return real(small, large)

        monkeypatch.setattr(kernels, "_gallop_mask", spy)
        assert kernels.intersect_count_many(a, hubs + tiny) == 3 * 3 + 1
        assert max(needles) <= 3  # a into each hub; the tiny row into a
        assert sum(needles) == 3 * 3 + 2
    finally:
        kernels.select_backend(prior)


#: Bases for the bitmap strategy: zero, the ~2**62 shift, and the two
#: ends of int64 (the bitmap offset ``x - (a[0] - 1)`` wraps there).
_BITMAP_BASES = (0, _HUGE - 1_000, 2**63 - 400, -(2**63))


@st.composite
def dense_frontier(draw):
    """``(a, rows)`` where ``a`` is dense over a small id range, so the
    flattened rows usually outnumber it and the bitmap path is taken.
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
    assert np.count_nonzero(kernels._bitmap_mask(flat, a)) == (
        np.count_nonzero(kernels._gallop_mask(flat, a))
    )


def test_bitmap_offsets_never_wrap_into_range():
    """Ids a full int64 away from ``a`` wrap in the offset subtraction
    and must still clip onto a ``False`` slot."""
    top = np.iinfo(np.int64).max
    bottom = np.iinfo(np.int64).min
    low_a = np.arange(bottom + 1, bottom + 11, dtype=np.int64)
    high_a = np.arange(top - 10, top, dtype=np.int64)
    far = np.array([bottom, bottom + 11, 0, top - 11, top], dtype=np.int64)
    assert kernels._bitmap_mask(far, low_a).tolist() == [False] * 5
    assert kernels._bitmap_mask(far, high_a).tolist() == [False] * 5
    assert kernels._bitmap_mask(low_a, low_a).all()
    assert kernels._bitmap_mask(high_a, high_a).all()
    # a[0] == int64 min has no left slot: the search path answers.
    edge = np.array([bottom, bottom + 1], dtype=np.int64)
    assert kernels._np_intersect_count_many(edge, [edge] * 4) == 8


def test_segmented_count_many_picks_bitmap_by_span(monkeypatch):
    """The flattened rows go through the bitmap exactly when ``a``'s id
    span is at most 4 slots per flattened element: a sparse ``a`` never
    builds a mark array, a dense one never binary-searches the rows."""
    prior = kernels.current_backend()
    kernels.select_backend("numpy")
    try:
        calls = []
        for name in ("_gallop_mask", "_bitmap_mask"):
            real = getattr(kernels, name)

            def spy(small, large, _name=name, _real=real):
                calls.append((_name, len(small)))
                return _real(small, large)

            monkeypatch.setattr(kernels, name, spy)
        rows = [np.arange(0, 40, 2, dtype=np.int64) for _ in range(5)]
        # 100 flattened elements: span 400 is the last bitmap span.
        dense = np.array([0, 7, 399], dtype=np.int64)
        sparse = np.array([0, 7, 400], dtype=np.int64)
        assert kernels.intersect_count_many(dense, rows) == 5
        assert calls == [("_bitmap_mask", 100)]
        calls.clear()
        assert kernels.intersect_count_many(sparse, rows) == 5
        assert calls == [("_gallop_mask", 100)]
    finally:
        kernels.select_backend(prior)


def test_flatten_rows_normalizes_like_as_ids_array():
    rows = [np.array([1, 2], dtype=np.int32), (), [_HUGE - 1, _HUGE], (7,)]
    flat = kernels.flatten_rows(rows)
    assert flat.dtype == np.int64 and flat.flags.c_contiguous
    assert flat.tolist() == [1, 2, _HUGE - 1, _HUGE, 7]
    assert kernels.flatten_rows([]).size == 0
    assert kernels.flatten_rows([(), ()]).dtype == np.int64


# ---------------------------------------------------------------------------
# Dispatched kernels under every importable backend
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(sorted_ids(), sorted_ids(), st.lists(sorted_ids(max_size=24), max_size=4))
def test_dispatched_kernels_match_oracles(a, b, rows):
    # Backend switching happens inside the test body (not a fixture) so
    # every hypothesis example exercises each importable backend.
    prior = kernels.current_backend()
    try:
        for backend in kernels.available_backends():
            kernels.select_backend(backend)
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
    finally:
        kernels.select_backend(prior)


# ---------------------------------------------------------------------------
# Bitset kernels
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 200), st.data())
def test_pack_and_counts_match_set_arithmetic(n, data):
    rows_pos = data.draw(
        st.lists(
            st.sets(st.integers(0, n - 1)).map(
                lambda s: np.asarray(sorted(s), dtype=np.int64)
            ),
            min_size=1,
            max_size=6,
        )
    )
    mask_pos = data.draw(st.sets(st.integers(0, n - 1)))
    words = kernels.pack_rows(rows_pos, n)
    assert words.shape == (len(rows_pos), kernels.bitset_words(n))
    mask = kernels.pack_mask(
        np.asarray(sorted(mask_pos), dtype=np.int64), n
    )
    expected = [len(set(r.tolist()) & mask_pos) for r in rows_pos]
    # Dispatched (numpy here; compiled in CI) and the interpreted
    # compiled body must both agree with set arithmetic.
    assert kernels.bitset_and_counts(words, mask).tolist() == expected
    out = np.empty(len(rows_pos), dtype=np.int64)
    assert _bitset_and_counts_py(words, mask, out).tolist() == expected


@settings(deadline=None, max_examples=40)
@given(small_adjacency(), st.integers(0, 3))
def test_bitset_max_clique_interpreted_matches_python(adj, lower_bound):
    n = len(adj)
    masks = [0] * n
    rows_pos = []
    for v in range(n):
        m = 0
        for u in adj[v]:
            m |= 1 << u
        masks[v] = m
        rows_pos.append(np.asarray(adj[v], dtype=np.int64))
    words = kernels.pack_rows(rows_pos, n)
    expected = _max_clique_bitset(masks, n, lower_bound)
    got = _bitset_max_clique_py(words, lower_bound)
    # Same DFS order + same prunes: identical incumbent, not merely
    # an equally-sized one.
    assert sorted(int(p) for p in got) == sorted(expected)
    if lower_bound == 0 and n:
        reference = max_clique_reference(adj)
        assert len(got) == len(reference)


@settings(deadline=None, max_examples=25)
@given(small_adjacency(max_n=8),
       st.sampled_from([0.5, 0.6, 0.8, 1.0]),
       st.sampled_from([2, 3]))
def test_quasiclique_bitset_search_matches_set_search(adj, gamma, min_size):
    plain = list(enumerate_quasi_cliques(adj, gamma, min_size,
                                         use_bitset=False))
    bitset = list(enumerate_quasi_cliques(adj, gamma, min_size,
                                          use_bitset=True))
    assert bitset == plain


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------


def test_config_rejects_unknown_backend():
    from repro.core.config import GThinkerConfig

    with pytest.raises(ValueError):
        GThinkerConfig(kernel_backend="fortran")
    assert GThinkerConfig(kernel_backend="numpy").kernel_backend == "numpy"


def test_env_var_overrides_config_backend(monkeypatch):
    from repro.core.config import GThinkerConfig

    cfg = GThinkerConfig(kernel_backend="numpy")
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    assert cfg.effective_kernel_backend == "numpy"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "auto")
    assert cfg.effective_kernel_backend == "auto"


def test_explicit_numba_raises_when_missing():
    if "numba" in kernels.available_backends():
        pytest.skip("numba present: nothing to refuse")
    with pytest.raises(kernels.KernelBackendError):
        kernels.select_backend("numba")
    # 'auto' must fall back silently.
    assert kernels.select_backend("auto") == "numpy"


def test_numba_probe_runs_once_per_process(monkeypatch):
    import importlib.util

    calls = []
    real_find_spec = importlib.util.find_spec

    def counting_find_spec(name, *args, **kwargs):
        calls.append(name)
        return real_find_spec(name, *args, **kwargs)

    prior = kernels.current_backend()
    monkeypatch.setattr(importlib.util, "find_spec", counting_find_spec)
    kernels._numba_importable.cache_clear()
    try:
        kernels.select_backend("auto")
        kernels.select_backend("auto")
    finally:
        kernels.select_backend(prior)
    assert calls.count("numba") == 1


def test_gallop_ratio_follows_backend():
    prior = kernels.current_backend()
    try:
        for name in kernels.available_backends():
            kernels.select_backend(name)
            assert kernels.GALLOP_RATIO == kernels.GALLOP_RATIO_BY_BACKEND[name]
    finally:
        kernels.select_backend(prior)


def test_backend_metric_recorded(tiny_graph):
    from repro.core.job import run_job
    from repro.apps.triangle import TriangleCountComper
    from repro.core.config import GThinkerConfig

    cfg = GThinkerConfig(num_workers=1, compers_per_worker=1,
                         kernel_backend="auto")
    result = run_job(TriangleCountComper, tiny_graph, config=cfg)
    assert result.aggregate == 2
    assert result.kernel_backend in kernels.available_backends()
