"""Vertex-to-worker placement.

The paper explicitly avoids smart graph partitioning (G-Miner's costly
preprocessing step) and "adopt[s] the approach of Pregel to hash vertices
to machines by vertex ID".  :func:`hash_partition` is that function; it
is the single source of truth for vertex placement across the runtime,
the sharded store and the simulator.
"""

from __future__ import annotations

import numpy as np

__all__ = ["hash_partition", "hash_partition_array"]


def hash_partition(v: int, num_partitions: int) -> int:
    """Map vertex id ``v`` to a partition in ``[0, num_partitions)``.

    We mix the id with a Fibonacci-hash multiplier before reducing so
    that contiguous id ranges (common in generated graphs) spread evenly
    rather than striping — with plain ``v % n`` a planted clique on ids
    ``0..k`` would load partitions unevenly in pathological ways.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    # Coerce to a python int: numpy int64 ids (from ndarray adjacency)
    # would overflow on the 64-bit multiply below.
    v = int(v)
    # 64-bit Fibonacci hashing constant (2^64 / golden ratio), masked to
    # stay within 64 bits like the C++ implementation would.
    mixed = (v * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    return (mixed >> 32) % num_partitions


def hash_partition_array(ids, num_partitions: int) -> np.ndarray:
    """Vectorized :func:`hash_partition` over an id array.

    Bit-identical to the scalar function (uint64 multiply wraps exactly
    like the masked Python multiply); lets a worker classify a whole
    ``vertex_ids`` array in one pass instead of one Python call per
    vertex of the full graph.
    """
    if num_partitions < 1:
        raise ValueError("num_partitions must be >= 1")
    mixed = np.asarray(ids).astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((mixed >> np.uint64(32)) % np.uint64(num_partitions)).astype(
        np.int64
    )

