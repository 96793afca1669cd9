"""Content digests for graphs — the cache-key identity of a dataset.

The job service keys its result cache by ``(graph_digest, app, params)``:
two submissions hit the same cache entry iff they name the same
computation on the same bytes.  The digest therefore covers exactly what
the miners see — the sorted adjacency structure plus vertex labels — and
nothing incidental (Python object identity, dict order, file paths).

For an in-memory :class:`~repro.graph.graph.Graph` the digest hashes the
CSR arrays that are the graph's store, so it costs one pass over
buffers that already exist.  For a :class:`~repro.graph.io.ShardedGraphStore`
it hashes the parsed rows shard by shard, giving the same digest a
``Graph`` with identical content would get only if the row sets match —
shard layout *is* part of a store's identity (it decides worker
placement), so the shard count is folded in.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .graph import Graph
from .io import ShardedGraphStore

__all__ = ["graph_digest"]


def _digest_graph(h, graph: Graph) -> None:
    vertex_ids, indptr, indices, labels = graph.csr_arrays()
    for arr in (vertex_ids, indptr, indices, labels):
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())


def _digest_store(h, store: ShardedGraphStore) -> None:
    h.update(int(store.num_shards).to_bytes(8, "little"))
    for shard in range(store.num_shards):
        for v, label, adj in store.read_shard(shard):
            row = np.empty(3 + len(adj), dtype="<i8")
            row[0], row[1], row[2] = v, label, len(adj)
            row[3:] = np.asarray(adj, dtype="<i8")
            h.update(row.tobytes())


def graph_digest(graph) -> str:
    """A stable hex digest of a graph's adjacency structure and labels.

    Equal content ⇒ equal digest, across processes and runs (the hash
    covers little-endian int64 buffers, never Python object state).
    Accepts a :class:`Graph` or a :class:`ShardedGraphStore`.
    """
    h = hashlib.sha256()
    if isinstance(graph, Graph):
        h.update(b"graph\x00")
        _digest_graph(h, graph)
    elif isinstance(graph, ShardedGraphStore):
        h.update(b"shards\x00")
        _digest_store(h, graph)
    else:
        raise TypeError(f"cannot digest graph source {type(graph)!r}")
    return h.hexdigest()
