"""Graph substrate: representation, generators, sharded IO, partitioning."""

from . import kernels
from .graph import Graph, adjacency_suffix_gt, intersect_sorted, intersect_sorted_count
from .generators import (
    barabasi_albert,
    erdos_renyi,
    plant_clique,
    plant_cliques,
    ring_of_cliques,
    rmat,
    star_burst,
    with_random_labels,
)
from .io import (
    ShardedGraphStore,
    read_adjacency,
    read_edge_list,
    write_adjacency,
    write_edge_list,
)
from .partition import hash_partition
from .datasets import DATASETS, DatasetSpec, dataset_stats, make_dataset
from .kcore import core_numbers, degeneracy, degeneracy_order, greedy_clique_seed
from .csr import SharedCSR, SharedCSRMeta
from .digest import graph_digest

__all__ = [
    "Graph",
    "kernels",
    "adjacency_suffix_gt",
    "intersect_sorted",
    "intersect_sorted_count",
    "erdos_renyi",
    "barabasi_albert",
    "rmat",
    "plant_clique",
    "plant_cliques",
    "ring_of_cliques",
    "star_burst",
    "with_random_labels",
    "ShardedGraphStore",
    "read_adjacency",
    "read_edge_list",
    "write_adjacency",
    "write_edge_list",
    "hash_partition",
    "DATASETS",
    "DatasetSpec",
    "dataset_stats",
    "make_dataset",
    "core_numbers",
    "degeneracy",
    "degeneracy_order",
    "greedy_clique_seed",
    "SharedCSR",
    "SharedCSRMeta",
    "graph_digest",
]
