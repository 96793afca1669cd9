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


def test_view_keeps_taken_partial():
    """Taking the partial must not drop it from the worker's own bound
    while the master's fold of it is still one sweep away."""
    svc = AggregatorService(MaxAggregator(key=len))
    svc.aggregate((1, 2, 3))
    assert svc.take_partial() == (1, 2, 3)
    assert svc.view() == (1, 2, 3)
    svc.publish_global((1, 2, 3))  # the master's fold, one sweep later
    assert svc.view() == (1, 2, 3)


def _sweep(master, services):
    """What the master's sweep does with each node's partial."""
    value = master.value
    for svc in services:
        svc.publish_global(value)
        master.fold(svc.take_partial())
    return master.value


def test_fold_round_trip():
    agg = SumAggregator()
    services = [AggregatorService(agg) for _ in range(3)]
    master = GlobalAggregator(agg)
    for i, svc in enumerate(services):
        svc.aggregate(i + 1)
    assert _sweep(master, services) == 6
    # Published one sweep later: the next sweep sends the folded value.
    assert _sweep(master, services) == 6
    for svc in services:
        assert svc.view() == 6


def test_fold_max_aggregator():
    agg = MaxAggregator(key=len)
    services = [AggregatorService(agg) for _ in range(2)]
    master = GlobalAggregator(agg)
    services[0].aggregate((1, 2))
    services[1].aggregate((3, 4, 5))
    assert _sweep(master, services) == (3, 4, 5)
    services[0].aggregate((1,))
    assert _sweep(master, services) == (3, 4, 5)  # max is monotone


def test_global_restore_hook():
    master = GlobalAggregator(SumAggregator())
    master.set_value(42)
    assert master.value == 42
    master.reset()
    assert master.value == 0


def test_incremental_counts_not_double_counted():
    """A partial taken once must never be folded twice."""
    agg = SumAggregator()
    services = [AggregatorService(agg)]
    master = GlobalAggregator(agg)
    services[0].aggregate(7)
    for _ in range(3):
        _sweep(master, services)
    assert master.value == 7
