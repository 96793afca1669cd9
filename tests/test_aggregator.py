"""Tests for the aggregation services."""

import pytest

from repro.core.aggregator import AggregatorService, GlobalAggregator
from repro.core.api import MaxAggregator, SumAggregator


def test_disabled_service():
    svc = AggregatorService(None)
    assert svc.view() is None
    assert svc.take_partial() is None
    with pytest.raises(RuntimeError):
        svc.aggregate(1)


def test_local_partial_accumulates():
    svc = AggregatorService(SumAggregator())
    svc.aggregate(2)
    svc.aggregate(3)
    assert svc.view() == 5


def test_take_partial_resets():
    svc = AggregatorService(SumAggregator())
    svc.aggregate(4)
    assert svc.take_partial() == 4
    assert svc.take_partial() == 0


def test_view_combines_global_and_local():
    svc = AggregatorService(SumAggregator())
    svc.publish_global(10)
    svc.aggregate(5)
    assert svc.view() == 15


def test_sync_round_trip():
    agg = SumAggregator()
    services = [AggregatorService(agg) for _ in range(3)]
    master = GlobalAggregator(agg)
    for i, svc in enumerate(services):
        svc.aggregate(i + 1)
    assert master.sync(services) == 6
    for svc in services:
        assert svc.view() == 6
    # Second sync with no new data keeps the value (sum partials are 0).
    assert master.sync(services) == 6


def test_sync_max_aggregator():
    agg = MaxAggregator(key=len)
    services = [AggregatorService(agg) for _ in range(2)]
    master = GlobalAggregator(agg)
    services[0].aggregate((1, 2))
    services[1].aggregate((3, 4, 5))
    assert master.sync(services) == (3, 4, 5)
    services[0].aggregate((1,))
    assert master.sync(services) == (3, 4, 5)  # max is monotone


def test_global_restore_hook():
    master = GlobalAggregator(SumAggregator())
    master.set_value(42)
    assert master.value == 42


def test_incremental_counts_not_double_counted():
    """A partial taken once must never be folded twice."""
    agg = SumAggregator()
    services = [AggregatorService(agg)]
    master = GlobalAggregator(agg)
    services[0].aggregate(7)
    master.sync(services)
    master.sync(services)
    master.sync(services)
    assert master.value == 7
