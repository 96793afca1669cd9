"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing as mp
import pickle
import socket

import pytest

from repro.apps import TriangleCountComper
from repro.core.config import GThinkerConfig
from repro.core.controlplane import ControlPlaneMaster
from repro.graph import Graph, erdos_renyi, ring_of_cliques
from repro.net.tcp import ControlChannel


@pytest.fixture
def no_unpickling(monkeypatch):
    """Any ``pickle.loads`` during the test is a failure: the data
    plane must refuse foreign bytes *before* handing them to pickle,
    and a task image never holds a pickle."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("pickle.loads called on a data-plane payload")

    monkeypatch.setattr(pickle, "loads", refuse)


@pytest.fixture(params=["pipe", "channel"])
def endpoint_pair(request):
    """A factory of connected ``(master end, node end)`` control
    endpoints, one kind per parametrisation: a ``multiprocessing`` pipe
    (``runtime="process"``) or two :class:`ControlChannel`\\ s over a
    socketpair (``runtime="cluster"``).  Every end is closed afterwards."""
    made = []

    def make():
        if request.param == "pipe":
            pair = mp.Pipe()
        else:
            pair = tuple(ControlChannel(s) for s in socket.socketpair())
        made.extend(pair)
        return pair

    yield make
    for end in made:
        end.close()


@pytest.fixture
def endpoint_master():
    """Builds a bare :class:`ControlPlaneMaster` over master-side
    endpoints (``make(*channels, **config)``).  It started no node
    processes, so no liveness check runs."""

    def make(*channels, **config):
        master = ControlPlaneMaster(GThinkerConfig(**config),
                                    TriangleCountComper, join_timeout_s=30.0)
        master.channels = list(channels)
        return master

    return make


@pytest.fixture
def small_config() -> GThinkerConfig:
    """A config sized for tests: small batches so spills/refills happen."""
    return GThinkerConfig(
        num_workers=3,
        compers_per_worker=2,
        task_batch_size=4,
        cache_capacity=64,
        cache_buckets=16,
        decompose_threshold=16,
        sync_every_rounds=16,
        aggregator_sync_period_s=0.002,
    )


@pytest.fixture
def tiny_graph() -> Graph:
    """The 4-vertex graph of the paper's Fig. 1 (a<b<c<d as 0<1<2<3)."""
    return Graph.from_edges([(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])


@pytest.fixture
def er_graph() -> Graph:
    return erdos_renyi(80, 0.12, seed=17)


@pytest.fixture
def clique_ring() -> Graph:
    return ring_of_cliques(5, 6)
