"""Shared-memory compressed sparse row (CSR) graph storage.

:class:`SharedCSR` is what the ``runtime="process"`` backend shares:
the flattened CSR arrays (plus labels) live in
:mod:`multiprocessing.shared_memory` blocks so every worker process maps
the graph read-only at zero copy.  Its ``indices`` array stores
*original vertex ids* (not dense positions), so worker processes serve
adjacency rows directly as neighbor-id views.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Sequence, Tuple

import numpy as np

from .graph import Graph

__all__ = ["SharedCSR", "SharedCSRMeta"]


@dataclass(frozen=True)
class SharedCSRMeta:
    """Picklable handle describing a :class:`SharedCSR`'s shm blocks.

    This is what crosses the process boundary: the parent builds the
    arrays once, ships the meta to every worker process, and each worker
    :meth:`SharedCSR.attach`\\ es — no per-worker graph copy.
    """

    indptr_name: str
    indices_name: str
    vertex_ids_name: str
    labels_name: str
    num_vertices: int
    num_entries: int


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Open an existing block without registering it for auto-unlink.

    The creator (parent process) owns the segment lifetime; attachers
    must not let their resource tracker unlink it a second time.  Python
    3.13 has ``track=False`` for this; on older versions we suppress the
    tracker's ``register`` call for the duration of the open — an
    ``unregister``-after-the-fact would race other attachers sharing the
    same (forked) tracker process and spew KeyErrors at interpreter
    exit.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _alloc_block(array: np.ndarray) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
    view[:] = array
    return shm


def _map_array(shm: shared_memory.SharedMemory, length: int) -> np.ndarray:
    arr = np.ndarray((length,), dtype=np.int64, buffer=shm.buf)
    arr.flags.writeable = False
    return arr


class SharedCSR:
    """Read-only CSR adjacency + labels in shared memory.

    Four int64 arrays: ``indptr`` (n+1), ``indices`` (original neighbor
    *ids*, row-sorted ascending), ``vertex_ids`` (sorted ascending) and
    ``labels``.  The creating process calls :meth:`from_graph` and later
    :meth:`close` + :meth:`unlink`; worker processes call
    :meth:`attach(meta)` and :meth:`close` only.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        vertex_ids: np.ndarray,
        labels: np.ndarray,
        blocks: Sequence[shared_memory.SharedMemory],
        meta: SharedCSRMeta,
        owner: bool,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.vertex_ids = vertex_ids
        self.labels = labels
        self._blocks = list(blocks)
        self.meta = meta
        self.owner = owner

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def from_graph(cls, g: Graph) -> "SharedCSR":
        """Build the arrays once and place them in shared memory."""
        # The arrays are the graph's own store: a job only pays the
        # copy into fresh shared-memory blocks below.
        verts, indptr, indices, labels = g.csr_arrays()
        n = len(verts)
        blocks = [_alloc_block(a) for a in (indptr, indices, verts, labels)]
        meta = SharedCSRMeta(
            indptr_name=blocks[0].name,
            indices_name=blocks[1].name,
            vertex_ids_name=blocks[2].name,
            labels_name=blocks[3].name,
            num_vertices=n,
            num_entries=len(indices),
        )
        return cls(
            indptr=_map_array(blocks[0], n + 1),
            indices=_map_array(blocks[1], len(indices)),
            vertex_ids=_map_array(blocks[2], n),
            labels=_map_array(blocks[3], n),
            blocks=blocks,
            meta=meta,
            owner=True,
        )

    @classmethod
    def attach(cls, meta: SharedCSRMeta) -> "SharedCSR":
        """Map an existing SharedCSR in this process (zero copy)."""
        blocks = [
            _attach_block(meta.indptr_name),
            _attach_block(meta.indices_name),
            _attach_block(meta.vertex_ids_name),
            _attach_block(meta.labels_name),
        ]
        return cls(
            indptr=_map_array(blocks[0], meta.num_vertices + 1),
            indices=_map_array(blocks[1], meta.num_entries),
            vertex_ids=_map_array(blocks[2], meta.num_vertices),
            labels=_map_array(blocks[3], meta.num_vertices),
            blocks=blocks,
            meta=meta,
            owner=False,
        )

    def close(self) -> None:
        """Drop this process's mapping (both creator and attachers)."""
        self.indptr = self.indices = self.vertex_ids = self.labels = None  # type: ignore[assignment]
        for shm in self._blocks:
            try:
                shm.close()
            except BufferError:  # a live numpy view still references it
                pass

    def unlink(self) -> None:
        """Destroy the segments; creator only, after every attach closed."""
        if not self.owner:
            raise ValueError("only the creating process may unlink a SharedCSR")
        for shm in self._blocks:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    # -- access -------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.meta.num_vertices

    def position_of(self, vertex_id: int) -> int:
        i = int(np.searchsorted(self.vertex_ids, vertex_id))
        if i >= self.num_vertices or self.vertex_ids[i] != vertex_id:
            raise KeyError(f"vertex {vertex_id} not in SharedCSR")
        return i

    def entry(self, vertex_id: int) -> Tuple[int, np.ndarray]:
        """``(label, adjacency)`` in the worker's ``T_local`` row format.

        The adjacency is a read-only zero-copy *view* into the shared
        ``indices`` block — no boxing, no tuple copy.  The view holds a
        reference to the shm buffer, so it stays valid for as long as any
        task keeps it, independent of cache eviction.
        """
        return self.entry_at(self.position_of(vertex_id))

    def entry_at(self, i: int) -> Tuple[int, np.ndarray]:
        """:meth:`entry` by row position — for callers that resolved the
        id -> position mapping up front (``Worker.load_shared``) and can
        skip the per-vertex ``searchsorted``."""
        row = self.indices[self.indptr[i]: self.indptr[i + 1]]
        return int(self.labels[i]), row
