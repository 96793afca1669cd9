"""Tests for the message transport."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp_st

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


def test_in_flight_tracking():
    t = Transport(2)
    assert t.in_flight == 0
    t.send(RequestBatch(src=0, dst=1))
    assert t.in_flight == 1
    t.poll(1)
    assert t.in_flight == 0


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


def test_poll_limit():
    t = Transport(2)
    for _ in range(5):
        t.send(RequestBatch(src=0, dst=1))
    assert len(t.poll(1, limit=2)) == 2
    assert len(t.poll(1)) == 3


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


class TestProcessTransportPollLimit:
    """S2 regression: ProcessTransport.poll(limit=N) must honour the
    Transport.poll contract (never more than N messages) even though
    inbox batches are sender-sized, and its received_count must only
    count messages actually handed to the caller."""

    def _pair(self):
        import queue

        queues = [queue.Queue(), queue.Queue()]
        from repro.net.transport import ProcessTransport

        sender = ProcessTransport(1, queues)
        receiver = ProcessTransport(0, queues)
        return sender, receiver

    def test_limit_never_exceeded(self):
        sender, receiver = self._pair()
        for i in range(5):
            sender.send(RequestBatch(src=1, dst=0, vertex_ids=[i]))
        sender.flush_outgoing()  # one 5-message batch on the wire
        first = receiver.poll(0, limit=2)
        assert len(first) == 2
        assert receiver.received_count == 2

    def test_overflow_drains_fifo_and_counts_settle(self):
        sender, receiver = self._pair()
        for i in range(5):
            sender.send(RequestBatch(src=1, dst=0, vertex_ids=[i]))
        sender.flush_outgoing()
        got = receiver.poll(0, limit=2)
        got += receiver.poll(0, limit=2)   # overflow first, still capped
        got += receiver.poll(0)            # unlimited drains the rest
        assert [m.vertex_ids for m in got] == [[i] for i in range(5)]
        assert receiver.received_count == 5 == sender.sent_count

    def test_overflow_served_before_newer_batches(self):
        sender, receiver = self._pair()
        for i in range(3):
            sender.send(RequestBatch(src=1, dst=0, vertex_ids=[i]))
        sender.flush_outgoing()
        assert len(receiver.poll(0, limit=1)) == 1  # 2 parked in overflow
        for i in range(3, 5):
            sender.send(RequestBatch(src=1, dst=0, vertex_ids=[i]))
        sender.flush_outgoing()
        rest = receiver.poll(0)
        assert [m.vertex_ids for m in rest] == [[1], [2], [3], [4]]


class TestProcessTransportFifoProperty:
    """S4 property: across any interleaving of sender flushes and
    limited polls, ProcessTransport delivers messages in FIFO order
    through the overflow-parking boundary, and received_count counts
    exactly the messages handed to the caller — parked overflow is
    invisible until actually delivered."""

    @given(
        batch_sizes=hyp_st.lists(hyp_st.integers(1, 7), min_size=1, max_size=6),
        limits=hyp_st.lists(hyp_st.integers(0, 5), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_fifo_and_counts_across_overflow(self, batch_sizes, limits):
        import queue

        from repro.net.transport import ProcessTransport

        queues = [queue.Queue(), queue.Queue()]
        sender = ProcessTransport(1, queues)
        receiver = ProcessTransport(0, queues)
        seq = 0
        delivered = []
        limit_iter = iter(limits)
        for size in batch_sizes:
            for _ in range(size):
                sender.send(RequestBatch(src=1, dst=0, vertex_ids=[seq]))
                seq += 1
            sender.flush_outgoing()
            # Interleave a limited poll after each batch: the overflow
            # deque now holds a mix of parked older messages and a
            # freshly decoded batch.
            limit = next(limit_iter, 0)
            got = receiver.poll(0, limit=limit)
            if limit:
                assert len(got) <= limit
            delivered.extend(got)
            assert receiver.received_count == len(delivered)
        while True:
            got = receiver.poll(0)
            if not got:
                break
            delivered.extend(got)
        assert [m.vertex_ids[0] for m in delivered] == list(range(seq))
        assert receiver.received_count == seq == sender.sent_count
