"""Tests for the baseline-system reimplementations."""

import pytest

from repro.algorithms import count_matches, count_triangles, max_clique_reference
from repro.baselines import (
    CostModel,
    DESIRABILITIES,
    FEATURE_MATRIX,
    arabesque_max_clique,
    arabesque_triangle_count,
    feature_rows,
    giraph_max_clique,
    giraph_triangle_count,
    gminer_max_clique,
    gminer_subgraph_match,
    gminer_triangle_count,
    lsh_signature,
    nuri_max_clique,
    rstream_disk_demand,
    rstream_triangle_count,
)
from repro.bench import gm_query
from repro.graph import erdos_renyi, make_dataset, with_random_labels


@pytest.fixture(scope="module")
def graph():
    return make_dataset("youtube", scale=0.25)


@pytest.fixture(scope="module")
def oracle(graph):
    return {"tri": count_triangles(graph), "mc": len(max_clique_reference(graph))}


class TestCostModel:
    def test_parallel_cpu_divides(self):
        c = CostModel(machines=4, threads=4)
        c.charge_parallel_cpu(16.0)
        assert c.total_time_s() == pytest.approx(1.0)

    def test_serial_cpu_does_not_divide(self):
        c = CostModel(machines=4, threads=4)
        c.charge_serial_cpu(2.0)
        assert c.total_time_s() >= 2.0

    def test_network_and_disk_terms(self):
        c = CostModel()
        c.charge_network(c.network.bandwidth_bytes_per_s, rounds=0)
        c.charge_disk(c.disk.bandwidth_bytes_per_s, ios=0)
        assert c.total_time_s() == pytest.approx(2.0)

    def test_memory_budget(self):
        c = CostModel(memory_budget_bytes=100)
        c.observe_memory(50)
        assert not c.memory_exceeded()
        c.observe_memory(150)
        assert c.memory_exceeded()
        assert c.peak_memory_bytes == 150

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CostModel(machines=0)


class TestGiraph:
    def test_tc_correct(self, graph, oracle):
        r = giraph_triangle_count(graph, machines=3, threads=2)
        assert r.ok and r.answer == oracle["tri"]

    def test_mcf_correct(self, graph, oracle):
        r = giraph_max_clique(graph, machines=3, threads=2)
        assert r.ok and len(r.answer) == oracle["mc"]

    def test_message_volume_quadratic_in_degree(self, graph):
        r = giraph_triangle_count(graph, machines=2)
        gt_sq = sum(
            len(graph.neighbors_gt(v)) ** 2 for v in graph.vertices()
        )
        # each Γ_> list goes to each larger neighbor: ~8 bytes/entry
        assert r.detail["network_bytes"] >= 4 * gt_sq

    def test_oom_with_small_budget(self, graph):
        r = giraph_triangle_count(graph, machines=1, memory_budget_bytes=1000)
        assert r.failed == "out of memory"
        assert r.answer is None

    def test_single_machine_no_network_charge(self, graph):
        r = giraph_triangle_count(graph, machines=1)
        assert r.detail["network_bytes"] == 0


class TestArabesque:
    def test_tc_correct(self, graph, oracle):
        r = arabesque_triangle_count(graph, machines=2, threads=2)
        assert r.ok and r.answer == oracle["tri"]

    def test_mcf_correct(self, graph, oracle):
        r = arabesque_max_clique(graph, machines=2, threads=2)
        assert r.ok and len(r.answer) == oracle["mc"]

    def test_materialization_blows_memory_on_big_cliques(self):
        g = make_dataset("orkut", scale=0.5)
        r = arabesque_max_clique(g, machines=2, memory_budget_bytes=1 << 20,
                                 embedding_cap=200_000)
        assert r.failed == "out of memory"

    def test_embedding_cap_reports_oom(self):
        g = make_dataset("orkut", scale=0.5)
        r = arabesque_max_clique(g, machines=2, embedding_cap=1000)
        assert r.failed == "out of memory"

    def test_memory_grows_with_level_width(self, graph):
        r = arabesque_triangle_count(graph, machines=1)
        assert r.peak_memory_bytes > graph.memory_estimate_bytes()


class TestGMiner:
    def test_tc_correct(self, graph, oracle):
        r = gminer_triangle_count(graph, machines=3, threads=2)
        assert r.ok and r.answer == oracle["tri"]

    def test_mcf_correct(self, graph, oracle):
        r = gminer_max_clique(graph, machines=3, threads=2)
        assert r.ok and len(r.answer) == oracle["mc"]

    def test_gm_correct(self):
        g = make_dataset("youtube", scale=0.2, labeled=3)
        q = gm_query()
        r = gminer_subgraph_match(g, q, machines=2, threads=2)
        assert r.ok and r.answer == count_matches(g, q)

    def test_disk_traffic_dominates(self, graph):
        """The disk-resident queue writes every task at least twice."""
        r = gminer_triangle_count(graph, machines=1)
        assert r.detail["disk_bytes"] > 0

    def test_lsh_signature_similarity(self):
        a = lsh_signature(tuple(range(100)))
        b = lsh_signature(tuple(range(100)))
        c = lsh_signature(tuple(range(5000, 5100)))
        assert a == b
        assert a != c
        assert lsh_signature(()) == (0, 0, 0, 0)

    def test_makespan_bounded_by_largest_task(self):
        """No decomposition: the hub task lower-bounds the makespan even
        with many machines/threads (the BTC failure mode)."""
        g = make_dataset("btc", scale=0.3)
        few = gminer_max_clique(g, machines=1, threads=1)
        many = gminer_max_clique(g, machines=16, threads=16)
        assert many.virtual_time_s >= 0.5 * (few.virtual_time_s / 300)
        assert many.ok


class TestRStream:
    def test_tc_correct(self, graph, oracle):
        r = rstream_triangle_count(graph)
        assert r.ok and r.answer == oracle["tri"]

    def test_partitions_sweep_same_answer(self, graph, oracle):
        for parts in (1, 2, 8):
            assert rstream_triangle_count(graph, partitions=parts).answer == oracle["tri"]

    def test_more_partitions_more_disk(self, graph):
        few = rstream_triangle_count(graph, partitions=1)
        many = rstream_triangle_count(graph, partitions=8)
        assert many.detail["disk_bytes"] > few.detail["disk_bytes"]

    def test_disk_budget_failure(self, graph):
        demand = rstream_disk_demand(graph)
        r = rstream_triangle_count(graph, disk_budget_bytes=demand // 2)
        assert r.failed == "used up all disk space"

    def test_rejects_bad_partitions(self, graph):
        with pytest.raises(ValueError):
            rstream_triangle_count(graph, partitions=0)


class TestNuri:
    def test_mcf_correct(self, graph, oracle):
        r = nuri_max_clique(graph)
        assert r.ok and len(r.answer) == oracle["mc"]

    def test_single_threaded_serial_time(self, graph):
        r = nuri_max_clique(graph)
        assert r.detail["serial_cpu_s"] > 0
        assert r.detail["parallel_cpu_s"] == 0

    def test_state_cap_failure(self, graph):
        r = nuri_max_clique(graph, max_states=1)
        assert r.failed is not None

    def test_best_first_on_planted(self):
        from repro.graph import plant_clique

        g, members = plant_clique(erdos_renyi(50, 0.08, seed=3), 8)
        r = nuri_max_clique(g)
        assert len(r.answer) == 8


class TestFeatureMatrix:
    def test_seven_desirabilities(self):
        assert len(DESIRABILITIES) == 7

    def test_gthinker_has_all(self):
        assert all(FEATURE_MATRIX["gthinker"].values())

    def test_every_system_scored_on_every_row(self):
        for system, feats in FEATURE_MATRIX.items():
            assert set(feats) == {d for d, _ in DESIRABILITIES}

    def test_rows_render(self):
        rows = feature_rows()
        assert len(rows) == len(FEATURE_MATRIX)
        assert all(len(marks) == 7 for _s, marks in rows)


class TestNScale:
    @pytest.fixture(scope="class")
    def nscale_runs(self, graph):
        from repro.baselines import nscale_max_clique

        return nscale_max_clique(graph, machines=3, threads=2)

    def test_mcf_correct(self, nscale_runs, oracle):
        assert nscale_runs.ok and len(nscale_runs.answer) == oracle["mc"]

    def test_phase_breakdown_recorded(self, nscale_runs):
        assert nscale_runs.detail["materialize_cpu_s"] > 0
        assert nscale_runs.detail["mine_cpu_s"] > 0
        assert nscale_runs.detail["materialize_net_bytes"] > 0

    def test_materialization_memory_scales_with_subgraphs(self, graph):
        from repro.baselines import nscale_max_clique

        one = nscale_max_clique(graph, machines=1)
        four = nscale_max_clique(graph, machines=4)
        assert one.peak_memory_bytes > four.peak_memory_bytes

    def test_oom_with_small_budget(self, graph):
        from repro.baselines import nscale_max_clique

        r = nscale_max_clique(graph, machines=1, memory_budget_bytes=100)
        assert r.failed == "out of memory"
        assert r.answer is None
