"""End-to-end serial-runtime jobs for all four applications, validated
against independent oracles across configurations."""

from functools import partial

import pytest

from repro.algorithms import (
    QueryGraph,
    count_matches,
    count_triangles,
    enumerate_quasi_cliques,
    list_triangles,
    max_clique_reference,
    path_query,
    triangle_query,
)
from repro.apps import (
    MaxCliqueComper,
    QuasiCliqueComper,
    SubgraphMatchComper,
    TriangleCountComper,
)
from repro.core import GThinkerConfig, run_job
from repro.graph import (
    Graph,
    ShardedGraphStore,
    erdos_renyi,
    plant_clique,
    ring_of_cliques,
    with_random_labels,
)


def cfg(**kw):
    base = dict(
        num_workers=3, compers_per_worker=2, task_batch_size=4,
        cache_capacity=64, cache_buckets=16, decompose_threshold=16,
        sync_every_rounds=16,
    )
    base.update(kw)
    return GThinkerConfig(**base)


class TestTriangleCounting:
    def test_er_graph(self, er_graph):
        res = run_job(TriangleCountComper, er_graph, cfg())
        assert res.aggregate == count_triangles(er_graph)

    def test_ring(self, clique_ring):
        res = run_job(TriangleCountComper, clique_ring, cfg())
        assert res.aggregate == count_triangles(clique_ring)

    def test_triangle_free_graph(self):
        g = Graph.from_edges([(i, i + 1) for i in range(20)])
        res = run_job(TriangleCountComper, g, cfg())
        assert res.aggregate == 0

    def test_single_worker(self, er_graph):
        res = run_job(TriangleCountComper, er_graph, cfg(num_workers=1))
        assert res.aggregate == count_triangles(er_graph)

    def test_many_workers(self, er_graph):
        res = run_job(TriangleCountComper, er_graph, cfg(num_workers=7))
        assert res.aggregate == count_triangles(er_graph)

    def test_listing_mode(self):
        g = erdos_renyi(30, 0.25, seed=3)
        res = run_job(lambda: TriangleCountComper(list_triangles=True), g, cfg())
        assert sorted(res.outputs) == list(list_triangles(g))
        assert res.aggregate == count_triangles(g)

    def test_from_sharded_store(self, tmp_path, er_graph):
        store = ShardedGraphStore.create(tmp_path / "g", er_graph, num_shards=3)
        res = run_job(TriangleCountComper, store, cfg(num_workers=3))
        assert res.aggregate == count_triangles(er_graph)

    def test_from_sharded_store_mismatched_shards(self, tmp_path, er_graph):
        store = ShardedGraphStore.create(tmp_path / "g", er_graph, num_shards=5)
        res = run_job(TriangleCountComper, store, cfg(num_workers=2))
        assert res.aggregate == count_triangles(er_graph)

    def test_tiny_cache_still_correct(self, er_graph):
        """Correctness must not depend on cache capacity."""
        res = run_job(TriangleCountComper, er_graph, cfg(cache_capacity=4))
        assert res.aggregate == count_triangles(er_graph)

    def test_tiny_batches_force_spills(self, er_graph):
        res = run_job(TriangleCountComper, er_graph, cfg(task_batch_size=1))
        assert res.aggregate == count_triangles(er_graph)


class TestMaxClique:
    def test_er_graph(self, er_graph):
        res = run_job(MaxCliqueComper, er_graph, cfg())
        assert len(res.aggregate) == len(max_clique_reference(er_graph))

    def test_result_is_a_clique(self, er_graph):
        res = run_job(MaxCliqueComper, er_graph, cfg())
        clique = res.aggregate
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                assert er_graph.has_edge(u, v)

    def test_planted(self):
        g, members = plant_clique(erdos_renyi(70, 0.06, seed=4), 10, seed=5)
        res = run_job(MaxCliqueComper, g, cfg())
        assert len(res.aggregate) == 10

    def test_decomposition_path(self):
        """τ = 2 forces deep task decomposition; answer must not change."""
        g = ring_of_cliques(4, 6)
        res = run_job(MaxCliqueComper, g, cfg(decompose_threshold=2))
        assert len(res.aggregate) == 6

    def test_no_decomposition(self):
        g = ring_of_cliques(4, 6)
        res = run_job(MaxCliqueComper, g, cfg(decompose_threshold=10_000))
        assert len(res.aggregate) == 6

    def test_edgeless_graph(self):
        g = Graph.from_edges([], extra_vertices=range(10))
        res = run_job(MaxCliqueComper, g, cfg())
        # No tasks are even spawned (Γ_> empty everywhere); the paper's
        # MCF never reports singleton cliques.
        assert res.aggregate is None or len(res.aggregate) <= 1

    def test_single_edge(self):
        g = Graph.from_edges([(3, 7)])
        res = run_job(MaxCliqueComper, g, cfg())
        assert res.aggregate == (3, 7)

    def test_small_tau_still_finds_max_clique(self, er_graph):
        res = run_job(MaxCliqueComper, er_graph, cfg(decompose_threshold=3))
        assert len(res.aggregate) == len(max_clique_reference(er_graph))

    @pytest.mark.parametrize("runtime", ["serial", "process"])
    def test_degree_peel_under_a_near_maximum_incumbent(self, runtime):
        """Seeded with a clique of ω - 1 vertices, every task with
        |S| < ω - 1 has a floor Δ = |S_max| - |S| > 0, so the degree peel
        runs at every level of decomposition (τ = 4) and must keep every
        member of a bigger clique."""
        g, _ = plant_clique(erdos_renyi(120, 0.25, seed=3), 9, seed=1)
        ref = max_clique_reference(g)
        res = run_job(partial(MaxCliqueComper, initial_clique=ref[:-1]), g,
                      cfg(decompose_threshold=4), runtime=runtime)
        assert len(res.aggregate) == len(ref) == 9
        for i, u in enumerate(res.aggregate):
            for v in res.aggregate[i + 1:]:
                assert g.has_edge(u, v)
        if runtime == "serial":
            # Fig. 5's size tests alone create 271 tasks here.
            assert res.metrics["tasks:created"] == 109


class TestSubgraphMatch:
    def test_labeled_triangle(self):
        g = with_random_labels(erdos_renyi(50, 0.15, seed=9), 3, seed=1)
        q = QueryGraph([(0, 1), (1, 2), (0, 2)], labels={0: 0, 1: 1, 2: 2})
        res = run_job(lambda: SubgraphMatchComper(q, data_labels=g.labels()), g, cfg())
        assert res.aggregate == count_matches(g, q)

    def test_unlabeled_triangle_counts_triangles(self, er_graph):
        res = run_job(lambda: SubgraphMatchComper(triangle_query()), er_graph, cfg())
        assert res.aggregate == count_triangles(er_graph)

    def test_path_query_radius_two(self):
        g = erdos_renyi(40, 0.12, seed=12)
        q = path_query(2)
        res = run_job(lambda: SubgraphMatchComper(q), g, cfg())
        assert res.aggregate == count_matches(g, q)

    def test_longer_path_query(self):
        g = erdos_renyi(25, 0.18, seed=13)
        q = path_query(3)
        res = run_job(lambda: SubgraphMatchComper(q), g, cfg())
        assert res.aggregate == count_matches(g, q)

    def test_collect_embeddings(self):
        g = erdos_renyi(20, 0.3, seed=14)
        q = triangle_query()
        res = run_job(
            lambda: SubgraphMatchComper(q, collect_embeddings=True), g, cfg()
        )
        assert len(res.outputs) == res.aggregate
        for emb in res.outputs:
            for (a, b) in q.graph.edges():
                assert g.has_edge(emb[a], emb[b])

    def test_no_matching_labels(self):
        g = with_random_labels(erdos_renyi(20, 0.3, seed=2), 2, seed=3)
        q = QueryGraph([(0, 1)], labels={0: 7, 1: 7})
        res = run_job(lambda: SubgraphMatchComper(q, data_labels=g.labels()), g, cfg())
        assert res.aggregate == 0


class TestQuasiClique:
    @pytest.mark.parametrize("gamma", [0.5, 0.7, 1.0])
    def test_matches_serial_enumeration(self, gamma):
        g = erdos_renyi(22, 0.3, seed=21)
        res = run_job(lambda: QuasiCliqueComper(gamma=gamma, min_size=4), g, cfg())
        expected = set(enumerate_quasi_cliques(g, gamma, min_size=4))
        assert set(res.outputs) == expected
        assert res.aggregate == len(expected)

    def test_rejects_low_gamma(self):
        with pytest.raises(ValueError):
            QuasiCliqueComper(gamma=0.3)
        with pytest.raises(ValueError):
            QuasiCliqueComper(gamma=1.2)


class TestJobResult:
    def test_metrics_present(self, er_graph):
        res = run_job(TriangleCountComper, er_graph, cfg())
        assert res.metrics["tasks:finished"] > 0
        assert res.metrics["tasks:iterations"] >= res.metrics["tasks:finished"]
        assert res.network_bytes > 0  # multi-worker jobs must communicate
        assert res.peak_memory_bytes > 0
        assert res.elapsed_s > 0
        assert res.num_workers == 3

    def test_unknown_runtime_rejected(self, er_graph):
        with pytest.raises(ValueError):
            run_job(TriangleCountComper, er_graph, cfg(), runtime="mpi")

    def test_unsupported_graph_source(self):
        with pytest.raises(TypeError):
            run_job(TriangleCountComper, [(0, 1)], cfg())

    def test_duplicate_requests_suppressed(self, er_graph):
        """Desirability 3: tasks share cached vertices."""
        res = run_job(TriangleCountComper, er_graph, cfg())
        hits = res.metrics.get("cache:hits", 0) + res.metrics.get(
            "cache:miss_duplicate", 0
        )
        assert hits > 0
