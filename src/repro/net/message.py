"""Wire messages exchanged between workers.

G-thinker "batch[es] vertex requests and responses for transmission to
combat round-trip time and to ensure throughput" (desirability 5); the
message types here are therefore all *batches*.  Sizes are modeled in
bytes (8 B per vertex id / adjacency entry plus small headers) so the
transport and the DES can account bandwidth the way the paper's GigE
testbed would see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Message",
    "RequestBatch",
    "ResponseBatch",
    "TaskBatchTransfer",
]

_HEADER_BYTES = 24
_EMPTY_ROW = np.empty(0, dtype=np.int64)


@dataclass
class Message:
    """Base class; ``src`` and ``dst`` are worker ids."""

    src: int
    dst: int


@dataclass
class RequestBatch(Message):
    """A batch of vertex pulls: "send me Γ(v) for these ids"."""

    vertex_ids: List[int] = field(default_factory=list)

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 8 * len(self.vertex_ids)


class ResponseBatch(Message):
    """A batch of ``(v, label, Γ(v))`` replies, structure-of-arrays.

    ``ids``, ``labels`` and ``offsets`` are int64 arrays and
    ``adj_concat`` is the concatenation of all adjacency rows (row ``i``
    is ``adj_concat[offsets[i]:offsets[i+1]]``).  This is also the
    GTWIRE1 frame layout, so the server builds it, the encoder dumps it
    and the decoder rebuilds it without a per-vertex Python loop;
    :meth:`iter_rows` yields the rows as zero-copy slices.
    """

    def __init__(
        self,
        src: int,
        dst: int,
        ids: np.ndarray,
        labels: np.ndarray,
        adj_concat: np.ndarray,
        offsets: np.ndarray,
    ) -> None:
        super().__init__(src, dst)
        if len(offsets) != len(ids) + 1:
            raise ValueError(
                f"offsets must have len(ids)+1 entries, got "
                f"{len(offsets)} for {len(ids)} ids"
            )
        self.ids = ids
        self.labels = labels
        self.adj_concat = adj_concat
        self.offsets = offsets

    @classmethod
    def from_soa(
        cls,
        src: int,
        dst: int,
        ids: np.ndarray,
        labels: np.ndarray,
        adj_concat: np.ndarray,
        offsets: np.ndarray,
    ) -> "ResponseBatch":
        return cls(src, dst, ids, labels, adj_concat, offsets)

    @classmethod
    def from_rows(
        cls, src: int, dst: int, rows: Sequence[Tuple[int, int, Sequence[int]]]
    ) -> "ResponseBatch":
        """Pack ``(v, label, adj)`` rows: one transpose, one concatenate."""
        n = len(rows)
        ids, labels, adjs = zip(*rows) if n else ((), (), ())
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, adjs), dtype=np.int64, count=n),
                  out=offsets[1:])
        if int(offsets[-1]):
            # ``unsafe`` only so that an empty tuple row (which numpy
            # types float64) may sit beside int64 rows.
            adj_concat = np.concatenate(adjs, dtype=np.int64, casting="unsafe")
        else:
            adj_concat = _EMPTY_ROW
        return cls(
            src, dst,
            np.array(ids, dtype=np.int64), np.array(labels, dtype=np.int64),
            adj_concat, offsets,
        )

    def iter_rows(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Yield ``(v, label, adj)`` rows; ``adj`` is a zero-copy slice."""
        ids, labels = self.ids, self.labels
        adj_concat, offsets = self.adj_concat, self.offsets
        for i in range(len(ids)):
            yield (
                int(ids[i]),
                int(labels[i]),
                adj_concat[int(offsets[i]):int(offsets[i + 1])],
            )

    def size_bytes(self) -> int:
        return _HEADER_BYTES + 16 * len(self.ids) + 8 * len(self.adj_concat)


@dataclass
class TaskBatchTransfer(Message):
    """A batch of serialized tasks shipped by work stealing."""

    payload: bytes = b""
    num_tasks: int = 0

    def size_bytes(self) -> int:
        return _HEADER_BYTES + len(self.payload)
