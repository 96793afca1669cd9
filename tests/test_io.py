"""Tests for graph file formats and the sharded store."""

import pytest

from repro.graph import (
    Graph,
    ShardedGraphStore,
    erdos_renyi,
    graph_digest,
    hash_partition,
    read_adjacency,
    read_edge_list,
    with_random_labels,
    write_adjacency,
    write_edge_list,
)
from repro.graph.io import format_adjacency_line, parse_adjacency_line


def test_adjacency_line_roundtrip():
    line = format_adjacency_line(7, 2, (1, 3, 9))
    assert parse_adjacency_line(line) == (7, 2, (1, 3, 9))


def test_adjacency_line_empty_adjacency():
    assert parse_adjacency_line(format_adjacency_line(4, 0, ())) == (4, 0, ())


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_adjacency_line("1 2 3")


def test_adjacency_file_roundtrip(tmp_path, er_graph):
    path = tmp_path / "g.adj"
    write_adjacency(er_graph, path)
    assert read_adjacency(path) == er_graph


def test_adjacency_file_preserves_labels(tmp_path):
    g = with_random_labels(erdos_renyi(20, 0.3, seed=1), 3, seed=2)
    path = tmp_path / "g.adj"
    write_adjacency(g, path)
    back = read_adjacency(path)
    assert all(back.label(v) == g.label(v) for v in g.vertices())


def test_edge_list_roundtrip(tmp_path, er_graph):
    path = tmp_path / "g.txt"
    write_edge_list(er_graph, path)
    # SNAP files open with '#' comment rows; the reader skips them, and
    # blank lines too.
    path.write_text("# test graph\n# second line\n\n"
                    + path.read_text().replace("\n", "\n  \n", 3))
    back = read_edge_list(path)
    # Isolated vertices are not representable in an edge list.
    connected = er_graph.induced_subgraph(
        [v for v in er_graph.vertices() if er_graph.degree(v) > 0]
    )
    assert back == connected


def test_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    path.write_text("0 1\n# fine\n2\n")  # after good lines too
    with pytest.raises(ValueError, match="malformed edge line"):
        read_edge_list(path)


class TestShardedStore:
    def test_create_and_reload(self, tmp_path, er_graph):
        store = ShardedGraphStore.create(tmp_path / "s", er_graph, num_shards=4)
        assert store.num_shards == 4
        assert store.load_full_graph() == er_graph

    def test_shards_partition_by_hash(self, tmp_path, er_graph):
        store = ShardedGraphStore.create(tmp_path / "s", er_graph, num_shards=3)
        seen = set()
        for shard in range(3):
            for v, _label, _adj in store.read_shard(shard):
                assert hash_partition(v, 3) == shard
                assert v not in seen
                seen.add(v)
        assert len(seen) == er_graph.num_vertices

    def test_single_shard(self, tmp_path, tiny_graph):
        store = ShardedGraphStore.create(tmp_path / "s", tiny_graph, num_shards=1)
        rows = list(store.read_shard(0))
        assert len(rows) == tiny_graph.num_vertices

    def test_rejects_zero_shards(self, tmp_path, tiny_graph):
        with pytest.raises(ValueError):
            ShardedGraphStore.create(tmp_path / "s", tiny_graph, num_shards=0)

    def test_labels_roundtrip(self, tmp_path):
        g = with_random_labels(erdos_renyi(25, 0.2, seed=3), 5, seed=4)
        store = ShardedGraphStore.create(tmp_path / "s", g, num_shards=2)
        back = store.load_full_graph()
        assert all(back.label(v) == g.label(v) for v in g.vertices())

    def test_digest_covers_content_and_shard_count(self, tmp_path, er_graph):
        def digest(name, g, shards):
            return graph_digest(ShardedGraphStore.create(tmp_path / name, g, num_shards=shards))

        three = digest("a", er_graph, 3)
        assert digest("b", er_graph, 3) == three
        assert digest("c", er_graph, 4) != three
        assert digest("d", erdos_renyi(er_graph.num_vertices, 0.5, seed=8), 3) != three
        assert graph_digest(er_graph) != three
