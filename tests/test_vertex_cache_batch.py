"""Bulk cache ops (request_batch / insert_responses / release_batch).

The contract under test: each bulk entry point is *observationally
equivalent* to the per-vertex OP1/OP2/OP3 sequence in batch order — same
outcomes, same lock counts, same Z-table membership, same ``s_cache``,
and one bucket-mutex acquisition per vertex as the paper's atomic OPs
take, which ``bucket_lock_acquisitions()`` makes measurable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import CheckedVertexCache
from repro.check.fuzz import HopSumComper, hop_sum_oracle
from repro.core.config import GThinkerConfig
from repro.core.errors import CacheProtocolError
from repro.core.job import run_job
from repro.core.vertex_cache import RequestOutcome, VertexCache
from repro.graph import erdos_renyi
from repro.net import ResponseBatch


def make_cache(capacity=100, buckets=4, delta=1, cls=VertexCache):
    return cls(
        num_buckets=buckets, capacity=capacity, overflow_alpha=0.2,
        count_delta=delta,
    )


def snapshot(c):
    """Full observable state: Γ/Z/R membership, lock counts, waiting lists."""
    state = {}
    for b in c._buckets:
        with b.lock:
            for v, entry in b.gamma.items():
                state[v] = ("gamma", entry.lock_count, v in b.zero)
            for v, pending in b.requests.items():
                state[v] = ("requested", tuple(pending))
    return state


def land(c, rows):
    """Bulk OP2 of ``(v, label, adj)`` rows packed as one ResponseBatch;
    returns ``[(v, waiting_task_ids), ...]``."""
    return [(entry.vid, waiting) for entry, waiting in
            c.insert_responses(ResponseBatch.from_rows(0, 0, rows))]


# -- unit tests: request_batch -----------------------------------------------


class TestRequestBatch:
    def test_all_first_requests_are_to_send(self):
        c = make_cache()
        out = c.request_batch([1, 2, 3], task_id=7)
        assert out.hits == 0
        assert out.duplicates == 0
        assert out.to_send == [1, 2, 3]

    def test_to_send_preserves_batch_order(self):
        c = make_cache(buckets=4)
        vs = [9, 2, 7, 4, 1]  # scattered across buckets
        assert c.request_batch(vs, task_id=1).to_send == vs

    def test_vertex_named_twice_sent_once(self):
        """Second mention inside one batch is a MISS_DUPLICATE, exactly
        as the per-vertex sequence would classify it."""
        c = make_cache()
        out = c.request_batch([5, 5, 6], task_id=1)
        assert out.to_send == [5, 6]
        assert out.duplicates == 1
        # The R-table holds two waiting entries for vertex 5.
        assert c.insert_response(5, 0, ()) == [1, 1]

    def test_mixed_hit_miss_duplicate(self):
        c = make_cache()
        c.request(10, task_id=1)
        c.insert_response(10, 0, ())       # 10 cached, lock 1
        c.request(11, task_id=2)           # 11 pending
        out = c.request_batch([10, 11, 12], task_id=3)
        assert out.hits == 1
        assert out.duplicates == 1
        assert out.to_send == [12]
        assert c.get_locked(10).lock_count == 2
        assert list(out.entries) == [10]
        assert out.entries[10] is c.get_locked(10)

    def test_hit_leaves_zero_table(self):
        c = make_cache()
        c.request(10, task_id=1)
        c.insert_response(10, 0, ())
        c.release(10)                      # into Z-table
        c.request_batch([10], task_id=2)   # back out
        assert c.evict(10) == 0


# -- unit tests: insert_responses --------------------------------------------


class TestInsertResponses:
    def test_returns_rows_in_batch_order(self):
        c = make_cache(buckets=2)
        c.request_batch([1, 2, 3, 4], task_id=1)
        c.request(3, task_id=9)
        landed = land(c, [(4, 40, (1,)), (1, 10, ()), (3, 30, (2, 5))])
        assert landed == [(4, [1]), (1, [1]), (3, [1, 9])]
        assert tuple(c.get_locked(3).adj) == (2, 5)
        assert c.get_locked(3).label == 30

    def test_unrequested_row_raises_but_earlier_rows_land(self):
        c = make_cache(buckets=1)  # one bucket => deterministic order
        c.request_batch([1, 2], task_id=1)
        with pytest.raises(CacheProtocolError):
            land(c, [(1, 0, ()), (99, 0, ()), (2, 0, ())])
        # Row 1 landed before the violation, exactly like the per-vertex
        # sequence; row 2 never ran.
        assert c.get_locked(1).lock_count == 1
        assert c.insert_response(2, 0, ()) == [1]

    def test_size_unchanged_by_responses(self):
        c = make_cache(delta=1)
        c.request_batch([1, 2, 3], task_id=1)
        before = c.size_estimate
        land(c, [(1, 0, ()), (2, 0, ()), (3, 0, ())])
        assert c.size_estimate == before == 3


# -- unit tests: release_batch ------------------------------------------------


class TestReleaseBatch:
    def test_release_to_zero_enables_eviction(self):
        c = make_cache()
        c.request_batch([1, 2], task_id=1)
        land(c, [(1, 0, ()), (2, 0, ())])
        c.release_batch([1, 2], task_id=1)
        assert c.evict(10) == 2

    def test_vertex_listed_twice_released_twice(self):
        c = make_cache()
        c.request(5, 1)
        c.insert_response(5, 0, ())
        c.request(5, 2)                    # lock_count 2
        c.release_batch([5, 5])
        assert c.evict(10) == 1

    def test_over_release_rejected(self):
        c = make_cache()
        c.request(5, 1)
        c.insert_response(5, 0, ())
        with pytest.raises(CacheProtocolError):
            c.release_batch([5, 5])


# -- lock-acquisition accounting ----------------------------------------------


class TestLockAccounting:
    def test_batch_ops_acquire_one_lock_per_vertex(self):
        """Same ops, same mutex acquisitions: each vertex's transition
        runs under its own bucket mutex, the paper's OP granularity."""
        vs = list(range(32))
        batch, seq = make_cache(buckets=4), make_cache(buckets=4)

        batch.request_batch(vs, task_id=1)
        land(batch, [(v, 0, ()) for v in vs])
        batch.release_batch(vs, task_id=1)

        for v in vs:
            seq.request(v, 1)
        for v in vs:
            seq.insert_response(v, 0, ())
        for v in vs:
            seq.release(v)

        assert snapshot(batch) == snapshot(seq)
        # 3 passes x 32 vertices either way.
        assert batch.bucket_lock_acquisitions() == 96
        assert seq.bucket_lock_acquisitions() == 96

    def test_commit_lock_metrics_is_idempotent(self):
        c = make_cache()
        c.request_batch([1, 2, 3], task_id=1)
        c.commit_lock_metrics()
        first = c._metrics.get("cache:bucket_lock_acquisitions")
        assert first == c.bucket_lock_acquisitions()
        c.commit_lock_metrics()  # no new acquisitions -> no double count
        assert c._metrics.get("cache:bucket_lock_acquisitions") == first
        c.request(4, task_id=2)
        c.commit_lock_metrics()
        assert c._metrics.get("cache:bucket_lock_acquisitions") == first + 1

    def test_evict_flushes_pending_counter_delta(self):
        """OP4's overflow budget must see this thread's uncommitted
        inserts; otherwise a large δ makes GC a no-op."""
        c = make_cache(capacity=4, delta=100)
        for v in range(10):
            c.request(v, v)
            c.insert_response(v, 0, ())
            c.release(v)
        assert c.size_estimate == 0          # all still thread-local
        assert c.evict() == 6                # flushed: overflow = 10 - 4
        assert c.size_estimate == 4


# -- property test: batch == per-vertex sequence ------------------------------


@st.composite
def op_rounds(draw):
    """Valid multi-op rounds built against a model of the cache state."""
    rounds = draw(st.lists(
        st.tuples(
            st.sampled_from(["req", "resp", "rel"]),
            st.lists(st.integers(0, 15), min_size=1, max_size=6),
            st.integers(0, 9),  # task id for "req" rounds
        ),
        max_size=30,
    ))
    return rounds


@settings(max_examples=60, deadline=None)
@given(op_rounds())
def test_batch_ops_equal_per_vertex_sequences(rounds):
    """Drive a batch-op cache and a per-vertex cache with the same round
    sequence; outcomes and full observable state must match after every
    round, and the batch cache must never acquire more bucket locks."""
    batch = make_cache(buckets=4, delta=1)
    seq = make_cache(buckets=4, delta=1)
    model = {}  # v -> "requested" | "cached"

    for kind, vs, task_id in rounds:
        if kind == "req":
            out = batch.request_batch(vs, task_id)
            hits = duplicates = 0
            to_send = []
            for v in vs:
                o = seq.request(v, task_id)
                if o.status == RequestOutcome.HIT:
                    hits += 1
                    assert out.entries[v].lock_count >= 1
                    view = out.entries[v].view
                    assert (view.id, view.label, tuple(view.adj)) == \
                        (v, v * 10, (v, v + 1))
                elif o.status == RequestOutcome.MISS_SEND:
                    to_send.append(v)
                    model[v] = "requested"
                else:
                    duplicates += 1
            assert (out.hits, out.to_send, out.duplicates) == \
                (hits, to_send, duplicates)
            assert sorted(out.entries) == sorted(
                {v for v in vs if model.get(v) == "cached"})
        elif kind == "resp":
            rows = []
            for v in dict.fromkeys(vs):
                if model.get(v) == "requested":
                    rows.append((v, v * 10, (v, v + 1)))
                    model[v] = "cached"
            if not rows:
                continue
            landed = land(batch, rows)
            expected = [(v, seq.insert_response(v, label, adj))
                        for v, label, adj in rows]
            assert landed == expected
        else:  # rel
            state = snapshot(seq)
            releasable = []
            budget = {}
            for v in vs:
                info = state.get(v)
                locks = info[1] if info and info[0] == "gamma" else 0
                if budget.get(v, locks) > 0:
                    budget[v] = budget.get(v, locks) - 1
                    releasable.append(v)
            if not releasable:
                continue
            batch.release_batch(releasable, task_id=-1)
            for v in releasable:
                seq.release(v)

        assert snapshot(batch) == snapshot(seq)
        batch.flush_local_counter()
        seq.flush_local_counter()
        assert batch.size_estimate == seq.size_estimate
        assert batch.exact_size() == seq.exact_size()
        batch.check_invariants()

    assert batch.bucket_lock_acquisitions() <= seq.bucket_lock_acquisitions()


# -- checked wrapper + interleaving fuzzer ------------------------------------


class TestCheckedBulkOps:
    def test_checked_cache_decomposes_batches(self):
        """CheckedVertexCache applies bulk calls as audited per-vertex
        ops — the decomposition *is* the equivalence contract."""
        c = make_cache(cls=CheckedVertexCache)
        out = c.request_batch([1, 2, 1], task_id=5)
        assert (out.hits, out.to_send, out.duplicates) == (0, [1, 2], 1)
        landed = land(c, [(1, 0, ()), (2, 0, ())])
        assert landed == [(1, [5, 5]), (2, [5])]
        c.release_batch([1, 1, 2], task_id=5)
        assert c.evict(10) == 2

    def test_checked_cache_returns_the_hit_entries(self):
        """The checked decomposition hands back the same locked entries
        as the bulk op, so an all-hit task computes on either."""
        plain, checked = make_cache(), make_cache(cls=CheckedVertexCache)
        for c in (plain, checked):
            c.request_batch([1, 2], task_id=5)
            land(c, [(1, 10, (2,)), (2, 20, (1,))])
            out = c.request_batch([2, 1, 3], task_id=6)
            assert (out.hits, out.to_send) == (2, [3])
            assert {v: (e.view.id, e.view.label, tuple(e.view.adj))
                    for v, e in out.entries.items()} == {
                1: (1, 10, (2,)), 2: (2, 20, (1,))}
            assert all(e is c.get_locked(v, 6) for v, e in out.entries.items())

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_fuzz_bulk_matches_per_vertex_answers(self, seed):
        """The bulk pull path (serial runtime, plain cache) and its
        per-vertex decomposition under seeded CheckedRuntime
        interleavings, every cache-protocol checker enabled, must
        produce identical answers."""
        g = erdos_renyi(36, 0.15, seed=17)
        expected = hop_sum_oracle(g)
        for runtime in ("serial", "checked"):
            cfg = GThinkerConfig(
                num_workers=2, compers_per_worker=2, task_batch_size=2,
                cache_capacity=48, cache_buckets=8, decompose_threshold=16,
                seed=seed,
            )
            result = run_job(HopSumComper, g, cfg, runtime=runtime)
            assert result.aggregate == expected, runtime
