"""Tests for the user-facing API primitives."""

import pickle

import numpy as np
import pytest

from repro.core.api import (
    MaxAggregator,
    SumAggregator,
    Task,
    Trimmer,
    VertexView,
)


class TestTask:
    def test_pull_dedup(self):
        t = Task()
        t.pull(3)
        t.pull(5)
        t.pull(3)
        assert t.pending_pulls() == (3, 5)

    def test_take_pulls_drains(self):
        t = Task()
        t.pull(1)
        assert t.take_pulls() == [1]
        assert t.pending_pulls() == ()
        t.pull(1)  # re-pull after drain is allowed
        assert t.take_pulls() == [1]

    def test_pull_order_preserved(self):
        t = Task()
        for v in (9, 2, 7, 2, 9, 1):
            t.pull(v)
        assert t.take_pulls() == [9, 2, 7, 1]

    @pytest.mark.parametrize("make", [
        lambda xs: np.asarray(xs, dtype=np.int64),
        lambda xs: np.asarray(xs, dtype=np.int32),
        list,
        tuple,
        lambda xs: [np.int64(x) for x in xs],
        lambda xs: (x for x in xs),
    ], ids=["int64", "int32", "list", "tuple", "np-scalars", "generator"])
    @pytest.mark.parametrize("ids", [
        [9, 2, 7, 1],           # duplicate-free: the one-set fast path
        [9, 2, 7, 2, 9, 1],     # duplicates inside the input
        [],
    ])
    def test_pull_many_equals_repeated_pull(self, make, ids):
        many, one = Task(), Task()
        many.pull_many(make(ids))
        for v in ids:
            one.pull(v)
        assert many.pending_pulls() == one.pending_pulls()
        assert many._pull_set == one._pull_set
        pulls = many.take_pulls()
        assert all(type(v) is int for v in pulls)  # never np.int64
        assert many.pending_pulls() == () and many._pull_set == set()

    def test_pull_many_interleaves_with_pull(self):
        many, one = Task(), Task()
        script = [("one", 5), ("many", [3, 5, 8]), ("one", 8),
                  ("many", np.array([1, 3])), ("many", [4, 4])]
        for kind, arg in script:
            if kind == "one":
                many.pull(arg)
                one.pull(arg)
            else:
                many.pull_many(arg)
                for v in arg:
                    one.pull(v)
        assert many.pending_pulls() == one.pending_pulls() == (5, 3, 8, 1, 4)
        # Dedup state stays live after a bulk call.
        many.pull(3)
        many.pull_many([8, 6])
        assert many.take_pulls() == [5, 3, 8, 1, 4, 6]

    def test_pull_many_does_not_alias_the_callers_list(self):
        ids = [1, 2, 3]
        t = Task()
        t.pull_many(ids)
        t.pull(4)
        assert ids == [1, 2, 3]

    def test_context(self):
        t = Task(context={"S": (1, 2)})
        assert t.context["S"] == (1, 2)

    def test_default_id_unassigned(self):
        assert Task().task_id == -1

    def test_pickle_roundtrip(self):
        t = Task(context=(1, 2))
        t.g.add_vertex(5, (6, 7))
        t.pull(6)
        back = pickle.loads(pickle.dumps(t))
        assert back.context == (1, 2)
        assert np.array_equal(back.g.neighbors(5), [6, 7])
        assert back.pending_pulls() == (6,)

    def test_memory_estimate(self):
        t = Task()
        base = t.memory_estimate_bytes()
        t.g.add_vertex(0, tuple(range(50)))
        assert t.memory_estimate_bytes() > base


class TestAggregators:
    def test_sum(self):
        a = SumAggregator()
        assert a.identity() == 0
        assert a.combine(2, 3) == 5

    def test_max_by_len(self):
        a = MaxAggregator(key=len)
        assert a.identity() is None
        assert a.combine(None, (1,)) == (1,)
        assert a.combine((1, 2), None) == (1, 2)
        assert a.combine((1,), (1, 2)) == (1, 2)
        assert a.combine((3, 4), (1, 2)) == (3, 4)  # ties keep the left

    def test_max_custom_key(self):
        a = MaxAggregator(key=abs)
        assert a.combine(-5, 3) == -5


def test_default_trimmer_is_identity():
    t = Trimmer()
    assert t.trim(0, 0, (1, 2, 3)) == (1, 2, 3)


def test_vertex_view_fields():
    v = VertexView(3, 1, (4, 5))
    assert v.id == 3 and v.label == 1 and v.adj == (4, 5)
