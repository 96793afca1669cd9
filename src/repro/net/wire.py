"""Binary wire format of the data plane (``GTWIRE1``).

``ProcessTransport`` and ``TcpTransport`` drain each per-destination
buffer as one payload.  Pickling a list of :class:`ResponseBatch`
objects would serialize every adjacency list as a generic Python object
— per-element type tags, memo records, the full ``__reduce__`` machinery
— and unpickling bytes from a TCP peer is code execution.  This module
is the only data-plane encoding instead, a flat frame format built
around ``ndarray.tobytes()`` / ``np.frombuffer``:

* one 8-byte magic + an int64 message count, then one frame per message;
* every header field is a little-endian int64 and every variable-length
  payload is padded to a multiple of 8 bytes, so *all* array reads on
  the receiving side are aligned ``np.frombuffer`` views into the single
  received buffer — adjacency lists are decoded with **zero copies and
  zero per-element Python objects**;
* a ``ResponseBatch`` frame is struct-of-arrays, one labelled rows
  block (:func:`pack_rows`): ``ids``, ``labels`` and row-length arrays
  followed by the concatenation of all adjacency rows; rows are
  recovered by slicing at the cumulative-length offsets;
* there are exactly three frame kinds (request, response, task
  transfer).  A payload that does not start with :data:`MAGIC`, an
  unknown kind on decode, or a message type without a frame on encode is
  a :class:`WireDecodeError` / ``TypeError`` — nothing is ever handed to
  ``pickle``.

The decoded adjacency arrays are read-only views into the received
bytes object; like the ``SharedCSR`` views, they stay valid as long as
any task holds them because the view keeps the buffer referenced.

:class:`Cursor`, :func:`ints` and :func:`padded` are the one
bounds-checked int64 reader and the two encoder helpers, and
:func:`pack_rows` / :func:`read_rows` the one rows block; the task codec
(``GTTASK1``, :mod:`repro.core.containers`) is built on the same five.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.errors import WireDecodeError
from .message import Message, RequestBatch, ResponseBatch, TaskBatchTransfer

__all__ = [
    "MAGIC",
    "Cursor",
    "ints",
    "padded",
    "pack_rows",
    "read_rows",
    "encode_batch",
    "decode_batch",
    "WireDecodeError",
]

MAGIC = b"GTWIRE1\x00"

_KIND_REQUEST = 1
_KIND_RESPONSE = 2
_KIND_TASKS = 3

_PAD = b"\x00" * 7


def ints(*values: int) -> bytes:
    return np.array(values, dtype="<i8").tobytes()


def padded(raw: bytes) -> bytes:
    rem = len(raw) % 8
    return raw if rem == 0 else raw + _PAD[: 8 - rem]


def _ids_bytes(ids: Sequence[int]) -> bytes:
    if isinstance(ids, np.ndarray):
        return np.ascontiguousarray(ids, dtype="<i8").tobytes()
    return np.asarray(ids, dtype="<i8").tobytes()


def encode_batch(messages: Sequence[Message]) -> bytes:
    """Encode a transport batch as one contiguous binary payload."""
    chunks: List[bytes] = [MAGIC, ints(len(messages))]
    for msg in messages:
        if type(msg) is RequestBatch:
            chunks.append(
                ints(_KIND_REQUEST, msg.src, msg.dst, len(msg.vertex_ids))
            )
            chunks.append(_ids_bytes(msg.vertex_ids))
        elif type(msg) is ResponseBatch:
            # The frame layout *is* the in-memory layout, so encoding is
            # four buffer dumps with no per-vertex Python loop.
            chunks.append(ints(_KIND_RESPONSE, msg.src, msg.dst))
            pack_rows(chunks, msg.ids, msg.labels,
                      np.diff(np.asarray(msg.offsets, dtype="<i8")),
                      msg.adj_concat)
        elif type(msg) is TaskBatchTransfer:
            chunks.append(
                ints(_KIND_TASKS, msg.src, msg.dst, msg.num_tasks,
                     len(msg.payload))
            )
            chunks.append(padded(msg.payload))
        else:
            raise TypeError(
                f"no GTWIRE1 frame for message type {type(msg).__name__}"
            )
    return b"".join(chunks)


class Cursor:
    """Sequential reader of int64 headers and aligned byte payloads.

    Every read is bounds-checked against the buffer end and raises
    :class:`WireDecodeError` on truncation — over a socket or out of a
    spill file a frame can arrive short or corrupted, and a raw
    ``struct.error`` / numpy ``ValueError`` out of the decoder would be
    indistinguishable from a framework bug.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes, pos: int) -> None:
        self.buf = buf
        self.pos = pos

    def _take(self, nbytes: int, what: str) -> int:
        """Bounds-check a read of ``nbytes``; returns its start offset."""
        start = self.pos
        if nbytes < 0:
            raise WireDecodeError(
                f"negative length ({nbytes} bytes) for {what} at offset {start}"
            )
        if start + nbytes > len(self.buf):
            raise WireDecodeError(
                f"truncated frame: {what} needs {nbytes} bytes at offset "
                f"{start} but the buffer ends at {len(self.buf)}"
            )
        return start

    def read_ints(self, count: int, what: str = "int64 array") -> np.ndarray:
        count = int(count)
        start = self._take(8 * count, what)
        self.pos = start + 8 * count
        return np.frombuffer(self.buf, dtype="<i8", count=count, offset=start)

    def read_int(self, what: str = "int64 header") -> int:
        return int(self.read_ints(1, what)[0])

    def read_count(self, what: str) -> int:
        """One header int that must be a non-negative count or length."""
        value = self.read_int(what)
        if value < 0:
            raise WireDecodeError(f"negative count ({value}) for {what}")
        return value

    def read_bytes(self, length: int, what: str = "byte payload") -> bytes:
        start = self._take(length, what)
        self.pos = start + length + (-length % 8)
        return self.buf[start : start + length]


def pack_rows(chunks: List[bytes], ids: Sequence[int],
              labels: Sequence[int], lengths: Sequence[int],
              rows: Sequence[int]) -> None:
    """Append a labelled rows block: the row count, then the ids, the
    labels, the row lengths and the rows back to back, one int64 array
    each.  A response frame and a ``GTTASK1`` subgraph both carry one;
    :func:`read_rows` reads it back."""
    chunks.append(ints(len(ids)))
    chunks.extend(map(_ids_bytes, (ids, labels, lengths, rows)))


def read_rows(cur: Cursor, what: str) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray, np.ndarray]:
    """Read a block written by :func:`pack_rows` as ``(ids, labels,
    rows, offsets)``: row ``i`` is ``rows[offsets[i]:offsets[i + 1]]``,
    a zero-copy slice of one read-only int64 array.

    Every row length is checked against the words left in the buffer
    before the lengths are summed: the row count and each length are
    then at most the buffer's word count, so forged lengths cannot wrap
    the int64 sum around to a short read.
    """
    n = cur.read_count(f"{what} row count")
    ids = cur.read_ints(n, f"{what} ids")
    labels = cur.read_ints(n, f"{what} labels")
    lengths = cur.read_ints(n, f"{what} row lengths")
    words_left = (len(cur.buf) - cur.pos) // 8
    # Read unsigned, a negative length is longer than any buffer.
    if n and int(lengths.view("<u8").max()) > words_left:
        shortest, longest = int(lengths.min()), int(lengths.max())
        if shortest < 0:
            raise WireDecodeError(
                f"negative row length ({shortest}) in {what}")
        raise WireDecodeError(
            f"truncated frame: a row of {longest} ints in {what} but "
            f"{words_left} int64 words are left in the buffer")
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    rows = cur.read_ints(offsets[-1], f"{what} rows")
    rows.flags.writeable = False  # like VertexView.adj
    return ids, labels, rows, offsets


def decode_batch(payload: bytes) -> List[Message]:
    """Decode one transport payload back into a list of messages.

    Any malformed input — a payload that does not start with
    :data:`MAGIC` (a pickled batch included), truncated frames, counts
    or lengths pointing past the buffer end, negative counts, unknown
    frame kinds — raises :class:`WireDecodeError` rather than leaking
    ``struct.error`` / raw ``ValueError``.
    """
    if payload[:8] != MAGIC:
        raise WireDecodeError(
            f"payload does not start with the GTWIRE1 magic "
            f"(got {payload[:8]!r})"
        )
    cur = Cursor(payload, 8)
    out: List[Message] = []
    for i in range(cur.read_count("message count")):
        kind, src, dst = (
            int(x) for x in cur.read_ints(3, f"frame header of message {i}")
        )
        if kind == _KIND_REQUEST:
            ids = cur.read_ints(cur.read_count("request id count"),
                                "request vertex ids")
            out.append(RequestBatch(src=src, dst=dst, vertex_ids=ids.tolist()))
        elif kind == _KIND_RESPONSE:
            ids, labels, adj_concat, offsets = read_rows(
                cur, f"response frame {i}")
            out.append(ResponseBatch.from_soa(
                src, dst, ids=ids, labels=labels,
                adj_concat=adj_concat, offsets=offsets,
            ))
        elif kind == _KIND_TASKS:
            num_tasks = cur.read_count("task count")
            raw = cur.read_bytes(cur.read_count("task payload length"),
                                 "task batch payload")
            out.append(TaskBatchTransfer(src=src, dst=dst, payload=raw,
                                         num_tasks=num_tasks))
        else:
            raise WireDecodeError(f"unknown wire frame kind {kind}")
    return out
