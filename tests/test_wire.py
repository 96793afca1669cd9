"""Tests for the binary IPC wire format and the binary task codec."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import Task
from repro.core.containers import (
    deserialize_tasks,
    serialize_tasks,
    snapshot_tasks,
)
from repro.net import wire
from repro.net.message import (
    Message,
    RequestBatch,
    ResponseBatch,
    TaskBatchTransfer,
)


def _roundtrip(messages):
    return wire.decode_batch(wire.encode_batch(messages))


def test_request_batch_roundtrip():
    (out,) = _roundtrip([RequestBatch(src=2, dst=5, vertex_ids=[9, 1, 9])])
    assert (out.src, out.dst) == (2, 5)
    assert out.vertex_ids == [9, 1, 9]
    assert all(type(v) is int for v in out.vertex_ids)


def test_response_batch_roundtrip_mixed_row_types():
    msg = ResponseBatch.from_rows(0, 1, [
        (5, 0, np.array([1, 2, 3], dtype=np.int64)),
        (7, 4, ()),                     # empty tuple row
        (9, 0, (2, 4, 6)),              # tuple row
        (11, 2, np.empty(0, dtype=np.int64)),
    ])
    (out,) = _roundtrip([msg])
    rows = {v: (label, adj) for v, label, adj in out.iter_rows()}
    assert rows[5][1].tolist() == [1, 2, 3]
    assert rows[7][0] == 4 and rows[7][1].size == 0
    assert rows[9][1].tolist() == [2, 4, 6]
    assert rows[11][0] == 2 and rows[11][1].size == 0
    # ids/labels come back as python ints, adjacency as read-only int64
    for v, label, adj in out.iter_rows():
        assert type(v) is int and type(label) is int
        assert isinstance(adj, np.ndarray) and adj.dtype == np.int64
        assert not adj.flags.writeable


def test_decoded_rows_are_views_into_one_buffer():
    msg = ResponseBatch.from_rows(0, 1, [
        (1, 0, np.arange(10, dtype=np.int64)),
        (2, 0, np.arange(20, dtype=np.int64)),
    ])
    (out,) = _roundtrip([msg])
    (_v, _l, a), (_v, _l, b) = out.iter_rows()
    assert a.base is not None and b.base is not None  # zero-copy frombuffer


def test_task_transfer_roundtrip_unaligned_payload():
    for payload in (b"", b"x", b"12345678", b"123456789"):
        (out,) = _roundtrip([TaskBatchTransfer(src=1, dst=0, payload=payload,
                                               num_tasks=3)])
        assert out.payload == payload
        assert out.num_tasks == 3


def test_message_type_without_a_frame_is_refused_at_encode():
    """There is no pickled sub-frame to fall back to: only the three
    data-plane message types have a GTWIRE1 frame."""
    with pytest.raises(TypeError, match="no GTWIRE1 frame"):
        wire.encode_batch([Message(src=3, dst=4)])


def test_mixed_batch_preserves_order():
    msgs = [
        RequestBatch(src=0, dst=1, vertex_ids=[1]),
        ResponseBatch.from_rows(1, 0, [(1, 0, (2,))]),
        TaskBatchTransfer(src=0, dst=1, payload=b"abc", num_tasks=1),
    ]
    out = _roundtrip(msgs)
    assert [type(m) for m in out] == [type(m) for m in msgs]


def test_pickled_message_list_is_refused_without_unpickling(no_unpickling):
    """A *valid* pickle of a message list — what the old pickle wire
    format put on the queue — is not a GTWIRE1 payload."""
    msgs = [RequestBatch(src=0, dst=1, vertex_ids=[4, 5])]
    payload = pickle.dumps(msgs, protocol=pickle.HIGHEST_PROTOCOL)
    with pytest.raises(wire.WireDecodeError, match="GTWIRE1 magic"):
        wire.decode_batch(payload)


def test_binary_response_payload_smaller_than_pickle():
    """The struct-of-arrays frame beats pickling ndarray rows."""
    rng = np.random.default_rng(3)
    vertices = [
        (int(v), 0, np.unique(rng.integers(0, 10**6, size=30)))
        for v in range(64)
    ]
    msgs = [ResponseBatch.from_rows(0, 1, vertices)]
    binary = wire.encode_batch(msgs)
    pickled = pickle.dumps(msgs, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(binary) < len(pickled)


# -- task codec -------------------------------------------------------------


def test_task_codec_roundtrip():
    t = Task(context=(3, 4))
    t.pull(10)
    t.pull(11)
    t.g.add_vertex(1, (2, 3), label=7)
    t.g.add_vertex(2, np.array([1, 3], dtype=np.int64))
    payload = serialize_tasks([t])
    assert payload[:8] == b"GTTASK1\x00"
    (out,) = deserialize_tasks(payload)
    assert out.context == (3, 4)
    assert out.pending_pulls() == (10, 11)
    assert np.array_equal(out.g.neighbors(1), [2, 3])
    assert out.g.label(1) == 7
    assert np.array_equal(out.g.neighbors(2), [1, 3])
    assert out.g.label(2) == 0
    assert all(type(v) is int for v in out.g.vertices())
    for v in out.g.vertices():
        row = out.g.neighbors(v)
        assert row.dtype == np.int64 and not row.flags.writeable
    assert out.task_id == -1


def test_task_codec_context_kinds():
    """The three context kinds round-trip; a list of (id, row) members,
    the retired kind 4, is refused (rows belong in ``task.g``)."""
    cases = [None, 5, (1, 2), ()]
    payload = serialize_tasks([Task(context=c) for c in cases])
    out = deserialize_tasks(payload)
    assert [t.context for t in out] == cases
    assert all(type(x) is int for x in out[2].context)
    with pytest.raises(TypeError, match="list"):
        serialize_tasks([Task(context=[(4, (5, 6))])])


@pytest.mark.parametrize("context", [
    {"rich": [1]}, "str", (1, "mixed"), (1, np.int64(2)), True, 2.5,
    [[1, 2]], [(1, 2)], [(1, np.array([0.5]))], [("a", (1,))],
    [(1, np.zeros((2, 2), dtype=np.int64))], [(1, (2, "x"))],
    [(1, np.array([2**63], dtype=np.uint64))],
    [(1, (2, 3))],  # the retired rows kind: rows belong in task.g
])
def test_task_codec_refuses_other_contexts_at_encode(context):
    with pytest.raises(TypeError, match=type(context).__name__):
        serialize_tasks([Task(context=context)])


_i64 = st.integers(-2**63, 2**63 - 1)
_row = st.lists(_i64, max_size=4).flatmap(
    lambda xs: st.sampled_from([tuple(xs), np.array(xs, dtype=np.int64)]))
_contexts = st.one_of(
    st.none(), _i64, st.lists(_i64, max_size=4).map(tuple),
)


@st.composite
def _task(draw):
    t = Task(context=draw(_contexts))
    t.pull_many(draw(st.lists(_i64, max_size=4, unique=True)))
    rows = draw(st.dictionaries(_i64, _row, max_size=3))  # 0, 1, many
    for v, row in rows.items():
        t.g.add_vertex(v, row, label=draw(st.integers(0, 3)))
    return t


def _image(t):
    return (t.context, t.pending_pulls(),
            {v: row.tolist() for v, row in t.g.adjacency().items()},
            {v: t.g.label(v) for v in t.g.vertices()})


@settings(max_examples=60, deadline=None)
@given(st.lists(_task(), max_size=3))
def test_task_codec_roundtrip_every_context_kind(tasks):
    """Every context kind, with and without pulls, round-trips through
    GTTASK1, and every strict prefix of the payload is a typed decode
    error (the format holds only int64 words, so none decodes)."""
    expected = [_image(t) for t in tasks]
    payload = serialize_tasks(tasks)
    assert [_image(t) for t in deserialize_tasks(payload)] == expected
    for cut in range(len(payload)):
        with pytest.raises(wire.WireDecodeError):
            deserialize_tasks(payload[:cut])


_labelled_rows = st.dictionaries(
    _i64, st.tuples(st.integers(0, 3), _row), max_size=4)  # 0, 1, many


@settings(max_examples=60, deadline=None)
@given(_labelled_rows, st.lists(_i64, max_size=3, unique=True))
def test_rows_block_roundtrip_in_both_formats(rows, pulls):
    """One rows block, two frames: a GTWIRE1 response and a GTTASK1
    task carrying the same labelled rows (empty ones included) decode
    them back as read-only int64 arrays equal to the input, and every
    strict prefix of either payload is a typed decode error."""
    expected = {v: (label, list(row)) for v, (label, row) in rows.items()}
    response = ResponseBatch.from_rows(
        0, 1, [(v, label, row) for v, (label, row) in rows.items()])
    task = Task()
    task.pull_many(pulls)
    for v, (label, row) in rows.items():
        task.g.add_vertex(v, row, label=label)
    payloads = [(wire.encode_batch([response]), wire.decode_batch),
                (serialize_tasks([task]), deserialize_tasks)]
    (msg,), (out,) = (decode(payload) for payload, decode in payloads)
    decoded = [list(msg.iter_rows()),
               [(v, out.g.label(v), out.g.neighbors(v))
                for v in out.g.vertices()]]
    assert out.pending_pulls() == tuple(pulls)
    for got in decoded:
        assert {v: (label, adj.tolist()) for v, label, adj in got} == expected
        for v, label, adj in got:
            assert type(v) is int and type(label) is int
            assert adj.dtype == np.int64 and not adj.flags.writeable
    for payload, decode in payloads:
        for cut in range(len(payload)):
            with pytest.raises(wire.WireDecodeError):
                decode(payload[:cut])


def test_snapshot_tasks_keeps_ids_and_pulls_in_flight():
    """The checkpoint image leaves the task alone and records the union
    of its in-flight and requested pulls."""
    t = Task(context=(1,))
    t.g.add_vertex(1, (2,))
    t.pull(5)
    t.pull(6)
    t.pulls_in_flight = t.take_pulls()
    t.pull(6)
    t.pull(7)
    t.task_id, t.remote_in_flight = 0xBEEF, [5]
    (out,) = deserialize_tasks(snapshot_tasks([t]))
    assert out.pending_pulls() == (5, 6, 7) and out.pulls_in_flight == []
    assert (t.task_id, t.remote_in_flight) == (0xBEEF, [5])
    assert out.task_id == -1 and out.remote_in_flight == ()


def test_task_codec_invalidates_task_ids():
    t = Task(context=1)
    t.task_id = 0xBEEF
    deserialize_tasks(serialize_tasks([t]))
    assert t.task_id == -1  # invalidated in place, as before


def test_task_codec_refuses_inflight_pulls():
    """The engine clears ``pulls_in_flight`` before a task re-enters
    ``Q_task``; one that still carries any has no GTTASK1 form and must
    not be smuggled through a whole-batch pickle."""
    t = Task(context=1)
    t.pulls_in_flight = [42]
    with pytest.raises(ValueError, match="in-flight pulls"):
        serialize_tasks([t])


def test_pickled_task_list_is_refused_without_unpickling(no_unpickling):
    t = Task(context=9)
    legacy = pickle.dumps([t], protocol=pickle.HIGHEST_PROTOCOL)
    with pytest.raises(wire.WireDecodeError, match="GTTASK1 magic"):
        deserialize_tasks(legacy)


# ---------------------------------------------------------------------------
# Decode hardening: truncated / corrupt payloads raise WireDecodeError
# ---------------------------------------------------------------------------


def _messages_equal(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, RequestBatch):
        return (a.src, a.dst, list(a.vertex_ids)) == (b.src, b.dst,
                                                      list(b.vertex_ids))
    if isinstance(a, ResponseBatch):
        return (a.src, a.dst) == (b.src, b.dst) and [
            (v, l, adj.tolist()) for v, l, adj in a.iter_rows()
        ] == [(v, l, adj.tolist()) for v, l, adj in b.iter_rows()]
    if isinstance(a, TaskBatchTransfer):
        return (a.src, a.dst, a.num_tasks, bytes(a.payload)) == (
            b.src, b.dst, b.num_tasks, bytes(b.payload))
    return False


def _tasks_equal(a, b):
    return _image(a) == _image(b)


def _sample_task(context):
    t = Task(context=context)
    t.pull(10)
    t.pull(11)
    t.g.add_vertex(1, (2, 3), label=7)
    t.g.add_vertex(2, np.array([1, 3], dtype=np.int64))
    t.g.add_vertex(3, ())
    return t


def _rows_task(rows):
    t = Task()
    for v, row in rows.items():
        t.g.add_vertex(v, row)
    t.pull_many([u for row in rows.values() for u in row])
    return t


def _message_case(messages):
    return wire.encode_batch(messages), wire.decode_batch, _messages_equal


def _task_case(tasks):
    return serialize_tasks(tasks), deserialize_tasks, _tasks_equal


# kind -> (payload, decoder, element equality)
_FRAME_CASES = {
    "request": _message_case(
        [RequestBatch(src=0, dst=1, vertex_ids=[9, 1, 9])]),
    "response": _message_case([ResponseBatch.from_rows(0, 1, [
        (5, 0, np.array([1, 2, 3], dtype=np.int64)),
        (7, 4, ()),
    ])]),
    "tasks": _message_case(
        [TaskBatchTransfer(src=1, dst=0, payload=b"abcde", num_tasks=2)]),
    "mixed": _message_case([
        RequestBatch(src=0, dst=1, vertex_ids=[4]),
        ResponseBatch.from_rows(1, 0, [(4, 0, np.array([5], dtype=np.int64))]),
        TaskBatchTransfer(src=1, dst=0, payload=b"xyz", num_tasks=1),
    ]),
    # GTTASK1, as it comes off a spill file or out of a steal frame.
    "task_payload": _task_case(
        [_sample_task(None), _sample_task(5), _sample_task((1, 2))]),
    # Rows in t.g: TC's one row, a bundle with an empty row.
    "task_rows": _task_case([_rows_task({1: np.array([2, 3])}),
                             _rows_task({4: (), 5: (6, 7, 8)})]),
}


@pytest.mark.parametrize("kind", sorted(_FRAME_CASES))
def test_truncation_at_every_boundary_raises_or_decodes_whole(kind):
    """Cutting the payload at *every* byte offset must either raise the
    typed WireDecodeError or — when the cut only removed trailing
    alignment padding — decode to the identical batch.  No raw
    struct/numpy/pickle errors may escape, and no short array may be
    returned silently."""
    payload, decode, equal = _FRAME_CASES[kind]
    full = decode(payload)
    clean_decodes = 0
    for cut in range(len(payload)):
        try:
            decoded = decode(payload[:cut])
        except wire.WireDecodeError:
            continue
        clean_decodes += 1
        assert len(decoded) == len(full)
        assert all(equal(x, y) for x, y in zip(decoded, full))
    # Only padding-only cuts may decode; there are at most 7 pad bytes
    # after the final variable-length frame.
    assert clean_decodes <= 7


def test_corrupt_subgraph_rows_raise_wire_decode_error():
    """A negative or overflowing row length in a task's subgraph rows is
    a typed decode error, never a short or wrapped-around slice."""
    payload = serialize_tasks([_rows_task({1: (2, 3), 4: (5,)})])
    # The payload ends with the row lengths, the rows, the context kind.
    head, tail = payload[:-48], payload[-32:]
    assert payload[-48:-32] == np.array([2, 1], dtype="<i8").tobytes()
    for bad in ([-1, 1], [2**62, 2**62], [2**63 - 1, 2]):
        forged = head + np.array(bad, dtype="<i8").tobytes() + tail
        with pytest.raises(wire.WireDecodeError, match="subgraph"):
            deserialize_tasks(forged)


def test_unknown_context_kind_raises():
    """Kind 3 was a pickled context and kind 4 a list of (id, row)
    members; both are retired, so they decode as no known kind."""
    payload = serialize_tasks([Task(context=None)])
    kind = wire.ints(0)
    assert payload.endswith(kind)
    for retired in (3, 4):
        with pytest.raises(wire.WireDecodeError,
                           match=f"context kind {retired}"):
            deserialize_tasks(payload[:-8] + wire.ints(retired))


def test_wire_decode_error_is_value_error():
    with pytest.raises(ValueError):  # old callers guarded ValueError
        wire.decode_batch(wire.encode_batch(
            [RequestBatch(src=0, dst=1, vertex_ids=[1, 2])]
        )[:12])


def test_corrupt_magic_with_unpicklable_tail_raises(no_unpickling):
    payload = bytearray(wire.encode_batch(
        [RequestBatch(src=0, dst=1, vertex_ids=[1])]
    ))
    payload[0] ^= 0xFF  # not MAGIC
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(bytes(payload))


def test_pickled_non_list_payload_raises(no_unpickling):
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(pickle.dumps({"not": "a batch"}))


def test_empty_payload_raises():
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(b"")


def _header(*values):
    return np.array(values, dtype="<i8").tobytes()


def test_negative_message_count_raises():
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(wire.MAGIC + _header(-1))


def test_negative_id_count_raises():
    payload = wire.MAGIC + _header(1) + _header(1, 0, 1) + _header(-4)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)


def test_negative_response_degree_raises():
    # One response frame, one vertex, degree -1: a negative cumsum would
    # otherwise produce nonsense adjacency slices.
    payload = (wire.MAGIC + _header(1) + _header(2, 0, 1) + _header(1)
               + _header(7) + _header(0) + _header(-1))
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)


def test_wrapping_response_degrees_raise():
    """Four degrees of 2^62 sum to 2^64, which an int64 sum wraps to 0:
    the frame must be a truncation error, not four empty rows."""
    n = 4
    payload = (wire.MAGIC + _header(1) + _header(2, 0, 1) + _header(n)
               + _header(*range(n)) + _header(*[0] * n)
               + _header(*[2**62] * n))
    with pytest.raises(wire.WireDecodeError, match="response frame 0"):
        wire.decode_batch(payload)


def test_unknown_frame_kind_raises():
    payload = wire.MAGIC + _header(1) + _header(99, 0, 1)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)


def test_count_pointing_past_buffer_raises():
    # Claims 1 << 40 vertex ids but provides none.
    payload = wire.MAGIC + _header(1) + _header(1, 0, 1) + _header(1 << 40)
    with pytest.raises(wire.WireDecodeError):
        wire.decode_batch(payload)
