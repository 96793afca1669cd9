"""Tests for the discrete-event simulated runtime."""

import pytest

from repro.algorithms import count_triangles, max_clique_reference
from repro.apps import MaxCliqueComper, TriangleCountComper
from repro.core import GThinkerConfig
from repro.core.config import MachineModel, NetworkModel
from repro.graph import erdos_renyi
from repro.sim import EventQueue, run_simulated_job


def cfg(**kw):
    base = dict(
        num_workers=2, compers_per_worker=2, task_batch_size=4,
        cache_capacity=64, cache_buckets=16, decompose_threshold=16,
        aggregator_sync_period_s=0.005,
    )
    base.update(kw)
    return GThinkerConfig(**base)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(120, 0.1, seed=55)


class TestEventQueue:
    def test_ordering(self):
        q = EventQueue()
        q.push(2.0, "b")
        q.push(1.0, "a")
        q.push(2.0, "c")
        assert q.pop() == (1.0, "a")
        # Same-time events pop in insertion order (deterministic).
        assert q.pop() == (2.0, "b")
        assert q.pop() == (2.0, "c")

    def test_empty_pop(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")

    def test_peek_and_len(self):
        q = EventQueue()
        q.push(5.0, "x")
        assert len(q) == 1
        q.pop()
        assert q.events_processed == 1


class TestSimulatedJobs:
    def test_tc_answer_exact(self, graph):
        r = run_simulated_job(TriangleCountComper, graph, cfg())
        assert r.aggregate == count_triangles(graph)

    def test_mcf_answer_exact(self, graph):
        r = run_simulated_job(MaxCliqueComper, graph, cfg())
        assert len(r.aggregate) == len(max_clique_reference(graph))

    def test_virtual_time_positive_and_reported(self, graph):
        r = run_simulated_job(TriangleCountComper, graph, cfg())
        assert r.virtual_time_s > 0
        assert r.wall_time_s > 0
        assert r.events > 0
        assert r.num_workers == 2

    def test_cpu_speed_scales_virtual_time(self, graph):
        slow = run_simulated_job(
            TriangleCountComper, graph,
            cfg(machine=MachineModel(cpu_speed=50.0)),
        )
        fast = run_simulated_job(
            TriangleCountComper, graph,
            cfg(machine=MachineModel(cpu_speed=1.0)),
        )
        assert slow.virtual_time_s > fast.virtual_time_s

    def test_parallelism_reduces_virtual_time(self, graph):
        """More compers must help on a compute-heavy workload (robust
        margin: 1 core vs 8 cores at high cpu_speed)."""
        mm = MachineModel(cpu_speed=50.0)
        one = run_simulated_job(
            MaxCliqueComper, graph, cfg(num_workers=1, compers_per_worker=1, machine=mm)
        )
        eight = run_simulated_job(
            MaxCliqueComper, graph, cfg(num_workers=1, compers_per_worker=8, machine=mm)
        )
        assert eight.virtual_time_s < one.virtual_time_s

    def test_slow_network_costs_virtual_time(self, graph):
        fast_net = run_simulated_job(
            TriangleCountComper, graph,
            cfg(network=NetworkModel(latency_s=1e-6, bandwidth_bytes_per_s=1e12)),
        )
        slow_net = run_simulated_job(
            TriangleCountComper, graph,
            cfg(network=NetworkModel(latency_s=5e-3, bandwidth_bytes_per_s=1e5)),
        )
        assert slow_net.virtual_time_s > fast_net.virtual_time_s

    def test_single_machine_no_network(self, graph):
        r = run_simulated_job(TriangleCountComper, graph, cfg(num_workers=1))
        assert r.network_bytes == 0

    def test_metrics_and_memory(self, graph):
        r = run_simulated_job(TriangleCountComper, graph, cfg())
        assert r.peak_memory_bytes > 0
        assert r.metrics["tasks:finished"] > 0

    def test_outputs_flow_through(self):
        g = erdos_renyi(30, 0.25, seed=3)
        r = run_simulated_job(
            lambda: TriangleCountComper(list_triangles=True), g, cfg()
        )
        assert len(r.outputs) == count_triangles(g)

    def test_work_stealing_metric_possible(self, graph):
        """With stealing on and skewed spawn cursors the master may move
        batches; at minimum the run completes correctly."""
        r = run_simulated_job(
            TriangleCountComper, graph, cfg(num_workers=4, steal_batches=8)
        )
        assert r.aggregate == count_triangles(graph)


class TestUtilization:
    def test_utilization_in_unit_range(self, graph):
        r = run_simulated_job(TriangleCountComper, graph, cfg())
        assert 0.0 < r.cpu_utilization <= 1.0

    def test_single_busy_core_high_utilization(self, graph):
        """One comper with plenty of local work should rarely idle."""
        r = run_simulated_job(
            MaxCliqueComper, graph,
            cfg(num_workers=1, compers_per_worker=1,
                machine=MachineModel(cpu_speed=20.0)),
        )
        assert r.cpu_utilization > 0.6

    def test_cores_cannot_exceed_realtime(self, graph):
        """The busy-until clamp: total busy time <= makespan x cores."""
        r = run_simulated_job(MaxCliqueComper, graph, cfg())
        # cpu_utilization is exactly busy/(makespan*cores), pre-clamped;
        # the invariant is that the raw value never needed clamping far
        # beyond rounding.
        assert r.cpu_utilization <= 1.0
