"""Graph file formats and the sharded store that stands in for HDFS.

G-thinker loads the input from HDFS, where each line holds a vertex and
its adjacency list, and every worker parses the lines whose vertex hashes
to it.  We reproduce that contract on the local filesystem:

* :func:`write_adjacency` / :func:`read_adjacency` — single-file
  adjacency format, one ``v \\t label \\t n1 n2 ...`` line per vertex.
* :func:`write_edge_list` / :func:`read_edge_list` — SNAP-style edge
  lists (the format the paper's datasets ship in).
* :class:`ShardedGraphStore` — a directory of per-worker shard files
  (``part-00000`` …) hash-partitioned by vertex id.  Worker ``i`` loads
  exactly shard ``i``; this mirrors "each machine only loads a fraction
  of vertices along with their adjacency lists".
"""

from __future__ import annotations

import os
from array import array
from pathlib import Path
from typing import Dict, Iterable, Iterator, Tuple, Union

import numpy as np

from .graph import Graph
from .partition import hash_partition

__all__ = [
    "write_adjacency",
    "read_adjacency",
    "write_edge_list",
    "read_edge_list",
    "parse_adjacency_line",
    "format_adjacency_line",
    "ShardedGraphStore",
]

PathLike = Union[str, os.PathLike]


def format_adjacency_line(v: int, label: int, adj: Iterable[int]) -> str:
    """Render one vertex row: ``id<TAB>label<TAB>n1 n2 n3``."""
    return f"{v}\t{label}\t{' '.join(str(u) for u in adj)}"


def parse_adjacency_line(line: str) -> Tuple[int, int, Tuple[int, ...]]:
    """Parse a row produced by :func:`format_adjacency_line`.

    This is the default implementation of the paper's
    ``Worker`` data-import UDF ("how to parse a line on HDFS into a
    vertex object").
    """
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise ValueError(f"malformed adjacency line: {line!r}")
    v = int(parts[0])
    label = int(parts[1])
    adj = tuple(int(x) for x in parts[2].split()) if parts[2] else ()
    return v, label, adj


def write_adjacency(g: Graph, path: PathLike) -> None:
    """Write a whole graph as a single adjacency file."""
    with open(path, "w", encoding="ascii") as f:
        for v in g.sorted_vertices():
            f.write(format_adjacency_line(v, g.label(v), g.neighbors(v)))
            f.write("\n")


def read_adjacency(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_adjacency`."""
    adj: Dict[int, Tuple[int, ...]] = {}
    labels: Dict[int, int] = {}
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            if not line.strip():
                continue
            v, label, nbrs = parse_adjacency_line(line)
            adj[v] = nbrs
            if label:
                labels[v] = label
    return Graph(adj, labels=labels)


def write_edge_list(g: Graph, path: PathLike) -> None:
    """Write a SNAP-style edge list (``u<TAB>v``), one row per undirected edge."""
    with open(path, "w", encoding="ascii") as f:
        for u, v in g.edges():
            f.write(f"{u}\t{v}\n")


def read_edge_list(path: PathLike) -> Graph:
    """Read a SNAP-style edge list; ``#``-prefixed lines are comments.

    The endpoints are collected into one int64 buffer and handed to
    :meth:`Graph.from_edges` as an ``(m, 2)`` array.
    """
    ids = array("q")
    with open(path, "r", encoding="ascii") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            ids.append(int(parts[0]))
            ids.append(int(parts[1]))
    return Graph.from_edges(np.frombuffer(ids, dtype=np.int64).reshape(-1, 2))


class ShardedGraphStore:
    """A directory of hash-partitioned adjacency shards (local-HDFS stand-in).

    Layout::

        <root>/
          part-00000   # vertices with hash_partition(v, n) == 0
          part-00001
          ...
          _meta        # "num_shards num_vertices num_edges"
    """

    META_NAME = "_meta"

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # -- writing -------------------------------------------------------

    @classmethod
    def create(cls, root: PathLike, g: Graph, num_shards: int) -> "ShardedGraphStore":
        """Partition ``g`` into ``num_shards`` shard files under ``root``."""
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        store = cls(root)
        store.root.mkdir(parents=True, exist_ok=True)
        handles = [
            open(store._shard_path(i), "w", encoding="ascii")
            for i in range(num_shards)
        ]
        try:
            for v in g.sorted_vertices():
                shard = hash_partition(v, num_shards)
                handles[shard].write(
                    format_adjacency_line(v, g.label(v), g.neighbors(v)) + "\n"
                )
        finally:
            for h in handles:
                h.close()
        meta = store.root / cls.META_NAME
        meta.write_text(f"{num_shards} {g.num_vertices} {g.num_edges}\n")
        return store

    # -- reading -------------------------------------------------------

    def _shard_path(self, shard: int) -> Path:
        return self.root / f"part-{shard:05d}"

    @property
    def num_shards(self) -> int:
        return int((self.root / self.META_NAME).read_text().split()[0])

    def read_shard(self, shard: int) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
        """Yield ``(v, label, adjacency)`` rows of one shard."""
        path = self._shard_path(shard)
        with open(path, "r", encoding="ascii") as f:
            for line in f:
                if line.strip():
                    yield parse_adjacency_line(line)

    def load_full_graph(self) -> Graph:
        """Assemble the whole graph from every shard (for oracles/tests)."""
        adj: Dict[int, Tuple[int, ...]] = {}
        labels: Dict[int, int] = {}
        for shard in range(self.num_shards):
            for v, label, nbrs in self.read_shard(shard):
                adj[v] = nbrs
                if label:
                    labels[v] = label
        return Graph(adj, labels=labels)
