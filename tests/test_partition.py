"""Tests for vertex placement."""

import pytest
from hypothesis import given, strategies as st

from repro.graph import hash_partition


def test_partition_in_range():
    for v in range(1000):
        assert 0 <= hash_partition(v, 7) < 7


def test_partition_deterministic():
    assert hash_partition(42, 5) == hash_partition(42, 5)


def test_single_partition():
    assert all(hash_partition(v, 1) == 0 for v in range(100))


def test_rejects_zero_partitions():
    with pytest.raises(ValueError):
        hash_partition(1, 0)


def test_balance_on_contiguous_ids():
    """Contiguous id ranges (generated graphs) must spread evenly."""
    counts = [0] * 8
    for v in range(10_000):
        counts[hash_partition(v, 8)] += 1
    expected = 10_000 / 8
    assert all(0.8 * expected < c < 1.2 * expected for c in counts)


@given(st.integers(0, 2**40), st.integers(1, 64))
def test_partition_property(v, n):
    assert 0 <= hash_partition(v, n) < n
