"""Tests for the message transport."""

import pytest

from repro.core.config import NetworkModel
from repro.core.metrics import MetricsRegistry
from repro.net import RequestBatch, ResponseBatch, TaskBatchTransfer, Transport


def test_send_and_poll():
    t = Transport(3)
    t.send(RequestBatch(src=0, dst=2, vertex_ids=[1, 2, 3]))
    assert t.poll(1) == []
    msgs = t.poll(2)
    assert len(msgs) == 1
    assert msgs[0].vertex_ids == [1, 2, 3]


def test_counts_sent_at_send_and_received_after_dispatch():
    t = Transport(2)
    src, dst = t.port(0), t.port(1)
    assert (src.sent_count, dst.received_count) == (0, 0)
    t.send(RequestBatch(src=0, dst=1))
    assert (src.sent_count, dst.sent_count) == (1, 0)
    t.poll(1)
    assert dst.received_count == 0  # polled, not yet dispatched
    t.mark_received(1)
    assert (dst.received_count, src.received_count) == (1, 0)
    assert dst.pending_unflushed() == 0


def test_port_sends_at_the_transport_clock():
    net = NetworkModel(latency_s=0.5, bandwidth_bytes_per_s=1e9)
    t = Transport(2, network=net, timed=True)
    t.now = 2.0
    t.port(0).send(RequestBatch(src=0, dst=1))
    assert t.poll(1, now=2.4) == []
    assert len(t.poll(1, now=2.6)) == 1


def test_invalid_destination():
    t = Transport(2)
    with pytest.raises(ValueError):
        t.send(RequestBatch(src=0, dst=5))


def test_byte_accounting():
    m = MetricsRegistry()
    t = Transport(2, metrics=m)
    t.send(RequestBatch(src=0, dst=1, vertex_ids=[1, 2]))
    t.send(ResponseBatch.from_rows(1, 0, [(1, 0, (5, 6, 7))]))
    assert t.total_messages == 2
    assert t.total_bytes > 8 * 2 + 8 * 3


def test_message_sizes_scale_with_content():
    small = ResponseBatch.from_rows(0, 1, [(1, 0, ())])
    big = ResponseBatch.from_rows(0, 1, [(1, 0, tuple(range(100)))])
    assert big.size_bytes() > small.size_bytes() + 700


def test_task_transfer_size():
    msg = TaskBatchTransfer(src=0, dst=1, payload=b"x" * 100, num_tasks=3)
    assert msg.size_bytes() >= 100


class TestTimedDelivery:
    def test_message_not_available_before_transfer_time(self):
        net = NetworkModel(latency_s=0.5, bandwidth_bytes_per_s=1e9)
        t = Transport(2, network=net, timed=True)
        t.send(RequestBatch(src=0, dst=1), now=1.0)
        assert t.poll(1, now=1.2) == []
        assert len(t.poll(1, now=1.6)) == 1

    def test_local_messages_immediate(self):
        net = NetworkModel(latency_s=10.0)
        t = Transport(2, network=net, timed=True)
        t.send(RequestBatch(src=1, dst=1), now=0.0)
        assert len(t.poll(1, now=0.0)) == 1

    def test_link_serialization_fifo(self):
        """Two big messages to one worker cannot arrive simultaneously."""
        net = NetworkModel(latency_s=0.0, bandwidth_bytes_per_s=100.0)
        t = Transport(2, network=net, timed=True)
        big = ResponseBatch.from_rows(0, 1, [(1, 0, tuple(range(50)))])
        arrive1 = t.send(big, now=0.0)
        arrive2 = t.send(big, now=0.0)
        assert arrive2 >= 2 * arrive1 - 1e-9

    def test_next_delivery_time(self):
        net = NetworkModel(latency_s=1.0)
        t = Transport(2, network=net, timed=True)
        assert t.next_delivery_time(1) is None
        t.send(RequestBatch(src=0, dst=1), now=0.0)
        assert t.next_delivery_time(1) >= 1.0

    def test_deliver_hook_called(self):
        calls = []
        t = Transport(2, timed=True)
        t.deliver_hook = lambda dst, at: calls.append((dst, at))
        t.send(RequestBatch(src=0, dst=1), now=0.0)
        assert len(calls) == 1
        assert calls[0][0] == 1


def test_untimed_delivers_immediately_regardless_of_now():
    t = Transport(2)
    t.send(RequestBatch(src=0, dst=1), now=123.0)
    assert len(t.poll(1)) == 1
