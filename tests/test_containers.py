"""Tests for the task containers (Q_task, B_task, T_task, L_file)."""

import threading

import numpy as np
import pytest

from repro.core.api import Task
from repro.core.containers import (
    PendingTable,
    ReadyBuffer,
    TaskFileList,
    TaskQueue,
    comper_of_task_id,
    deserialize_tasks,
    make_task_id,
    serialize_tasks,
)


T, A, B, NEW = range(4)  # tags: contexts are (tag, i) int tuples


def make_tasks(n, tag=T):
    return [Task(context=(tag, i)) for i in range(n)]


class TestTaskIds:
    def test_compose_decompose(self):
        tid = make_task_id(300, 12345)
        assert comper_of_task_id(tid) == 300

    def test_48bit_sequence(self):
        tid = make_task_id(1, (1 << 48) + 5)  # wraps into 48 bits
        assert comper_of_task_id(tid) == 1

    def test_16bit_comper_limit(self):
        with pytest.raises(ValueError):
            make_task_id(1 << 16, 0)

    def test_ids_unique_across_compers(self):
        ids = {make_task_id(c, s) for c in range(4) for s in range(100)}
        assert len(ids) == 400


class TestTaskQueue:
    def test_refill_trigger_at_c(self):
        q = TaskQueue(batch_size=4)
        for t in make_tasks(4):
            q.append(t)
        assert q.needs_refill()
        q.append(Task())
        assert not q.needs_refill()

    def test_refill_room_targets_2c(self):
        q = TaskQueue(batch_size=4)
        assert q.refill_room() == 8
        for t in make_tasks(3):
            q.append(t)
        assert q.refill_room() == 5

    def test_spill_on_overflow(self):
        """At capacity 3C, appending spills the last C tasks (paper: the
        queue then holds 2C + 1)."""
        q = TaskQueue(batch_size=4)
        tasks = make_tasks(12)
        for t in tasks:
            assert q.append(t) is None
        extra = Task(context=(-1,))
        spill = q.append(extra)
        assert spill is not None
        assert len(spill) == 4
        assert len(q) == 9  # 2C + 1
        # The spilled batch is the *last* C tasks, in original order.
        assert [t.context for t in spill] == [(T, 8), (T, 9), (T, 10), (T, 11)]

    def test_fifo_order(self):
        q = TaskQueue(batch_size=4)
        for t in make_tasks(3):
            q.append(t)
        assert q.pop().context == (T, 0)

    def test_prepend_runs_first(self):
        q = TaskQueue(batch_size=4)
        q.append(Task(context=(-2,)))
        q.prepend(make_tasks(2, tag=NEW))
        assert q.pop().context == (NEW, 0)
        assert q.pop().context == (NEW, 1)
        assert q.pop().context == (-2,)

    def test_pop_empty(self):
        assert TaskQueue(2).pop() is None

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            TaskQueue(0)


class TestReadyBuffer:
    def test_fifo(self):
        b = ReadyBuffer()
        for t in make_tasks(3):
            b.put(t)
        assert b.get().context == (T, 0)
        assert len(b) == 2

    def test_get_empty(self):
        assert ReadyBuffer().get() is None

    def test_get_batch(self):
        b = ReadyBuffer()
        for t in make_tasks(5):
            b.put(t)
        batch = b.get_batch(3)
        assert [t.context for t in batch] == [(T, 0), (T, 1), (T, 2)]
        assert len(b) == 2

    def test_concurrent_put_get(self):
        b = ReadyBuffer()
        seen = []

        def producer():
            for t in make_tasks(500):
                b.put(t)

        def consumer():
            got = 0
            while got < 500:
                t = b.get()
                if t is not None:
                    seen.append(t)
                    got += 1

        threads = [threading.Thread(target=producer), threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 500


class TestPendingTable:
    def test_ready_at_met_equals_req(self):
        table = PendingTable()
        task = Task()
        table.insert(1, task, req=3)
        assert table.notify_arrival(1, {10: "a"}) is None
        assert table.notify_arrival(1, {11: "b"}) is None
        assert table.notify_arrival(1, {12: "c"}) is task
        assert len(table) == 0
        assert task.views_in_flight == {10: "a", 11: "b", 12: "c"}

    def test_counted_arrivals(self):
        """A parking comper hands over all its cache hits in one call;
        ``met`` counts the views delivered."""
        table = PendingTable()
        task = Task()
        table.insert(1, task, req=3)
        assert table.notify_arrival(1, {10: "a", 11: "b"}) is None
        assert table.notify_arrival(1, {12: "c"}) is task
        table.insert(2, task, req=2)
        assert task.views_in_flight == {}  # a new park starts empty
        with pytest.raises(ValueError):
            table.notify_arrival(2, {10: "a", 11: "b", 12: "c"})

    def test_duplicate_insert_rejected(self):
        table = PendingTable()
        table.insert(1, Task(), req=1)
        with pytest.raises(KeyError):
            table.insert(1, Task(), req=1)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(KeyError):
            PendingTable().notify_arrival(99, {10: "a"})

    def test_over_notification_rejected(self):
        table = PendingTable()
        table.insert(1, Task(), req=1)
        table.notify_arrival(1, {10: "a"})
        with pytest.raises(KeyError):
            table.notify_arrival(1, {10: "a"})

    def test_concurrent_notifications(self):
        """Racing notifier threads: the task is released exactly once."""
        table = PendingTable()
        task = Task()
        table.insert(7, task, req=64)
        winners = []
        lock = threading.Lock()

        def notifier(i):
            for j in range(8):
                ready = table.notify_arrival(7, {8 * i + j: j})
                if ready is not None:
                    with lock:
                        winners.append(ready)

        threads = [threading.Thread(target=notifier, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert winners == [task]
        assert sorted(task.views_in_flight) == list(range(64))


class TestTaskFileList:
    def test_spill_and_take(self, tmp_path):
        lf = TaskFileList(tmp_path)
        lf.spill(make_tasks(4))
        assert len(lf) == 1
        assert lf.num_tasks_on_disk() == 4
        back = lf.take_file()
        assert [t.context for t in back] == [(T, 0), (T, 1), (T, 2), (T, 3)]
        assert len(lf) == 0
        assert lf.take_file() is None

    def test_fifo_file_order(self, tmp_path):
        lf = TaskFileList(tmp_path)
        lf.spill(make_tasks(2, tag=A))
        lf.spill(make_tasks(2, tag=B))
        assert lf.take_file()[0].context == (A, 0)

    def test_payload_roundtrip(self, tmp_path):
        lf = TaskFileList(tmp_path)
        lf.spill(make_tasks(3))
        payload, count = lf.take_payload()
        assert count == 3
        lf.add_payload(payload, count)
        assert lf.num_tasks_on_disk() == 3
        assert [t.context for t in lf.take_file()] == [(T, 0), (T, 1), (T, 2)]

    def test_cleanup_removes_files(self, tmp_path):
        lf = TaskFileList(tmp_path / "x")
        lf.spill(make_tasks(2))
        lf.cleanup()
        assert len(lf) == 0
        assert not list((tmp_path / "x").glob("*.tasks"))

    def test_io_hook_charged(self, tmp_path):
        charged = []
        lf = TaskFileList(tmp_path)
        lf.on_io = charged.append
        lf.spill(make_tasks(2))
        lf.take_file()
        assert len(charged) == 2
        assert all(c > 0 for c in charged)

    def test_tasks_preserve_subgraph(self, tmp_path):
        lf = TaskFileList(tmp_path)
        t = Task(context=(1,))
        t.g.add_vertex(1, (2, 3))
        t.g.add_vertex(4, ())
        t.pull(9)
        lf.spill([t])
        back = lf.take_file()[0]
        assert np.array_equal(back.g.neighbors(1), [2, 3])
        assert back.g.neighbors(4).size == 0
        for v in (1, 4):
            row = back.g.neighbors(v)
            assert row.dtype == np.int64 and not row.flags.writeable
        assert back.pending_pulls() == (9,)
        assert back.context == (1,)


def test_serialize_roundtrip():
    tasks = make_tasks(5)
    assert [t.context for t in deserialize_tasks(serialize_tasks(tasks))] == [
        t.context for t in tasks
    ]
