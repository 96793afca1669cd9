"""Output records hold python ints, whatever the rows were.

A task's rows are int64 arrays (in ``t.g`` and in the frontier), so an
app that copies an id out of a row without ``tolist()`` would leak an
``np.int64`` into its outputs.  Each job here runs on a skewed graph
with ``C = 1``: tasks are stolen (and land in ``L_file`` as GTTASK1
files), and the multi-iteration QC tasks also spill.
"""

import functools

import pytest

from repro.algorithms import (
    QueryGraph,
    enumerate_maximal_cliques,
    enumerate_quasi_cliques,
    list_triangles,
    match_subgraph,
)
from repro.apps import (
    MaximalCliqueComper,
    QuasiCliqueComper,
    SubgraphMatchComper,
    TriangleCountComper,
)
from repro.core import GThinkerConfig, run_job
from repro.graph import erdos_renyi
from tests.oracles import skewed

GRAPH = skewed(erdos_renyi(36, 0.12, seed=5), 2)
QUERY = QueryGraph([(0, 1), (1, 2), (0, 2), (2, 3)])

# app -> (factory, oracle records, the ids of one record)
_APPS = {
    "tc": (functools.partial(TriangleCountComper, list_triangles=True),
           lambda: list_triangles(GRAPH), tuple),
    "maximal_cliques": (MaximalCliqueComper,
                        lambda: enumerate_maximal_cliques(GRAPH), tuple),
    "qc": (functools.partial(QuasiCliqueComper, gamma=0.6, min_size=4),
           lambda: enumerate_quasi_cliques(GRAPH, 0.6, min_size=4), tuple),
    "gm": (functools.partial(SubgraphMatchComper, QUERY,
                             collect_embeddings=True),
           lambda: match_subgraph(GRAPH, QUERY),
           lambda emb: (*emb.keys(), *emb.values())),
}


def _canonical(record):
    return frozenset(record.items()) if isinstance(record, dict) else record


@pytest.mark.parametrize("app", sorted(_APPS))
def test_output_ids_are_python_ints_after_steal_and_spill(app):
    factory, oracle, ids = _APPS[app]
    config = GThinkerConfig(
        num_workers=2, compers_per_worker=2, task_batch_size=1,
        cache_capacity=64, cache_buckets=8, steal_batches=8,
        sync_every_rounds=1, inline_iteration_limit=1)
    res = run_job(factory, GRAPH, config, runtime="serial")
    assert res.metrics.get("steal:tasks", 0) > 0
    if app == "qc":
        assert res.metrics.get("tasks:spilled", 0) > 0
    assert res.outputs
    for record in res.outputs:
        assert all(type(x) is int for x in ids(record)), record
    assert sorted(map(_canonical, res.outputs), key=repr) == sorted(
        map(_canonical, oracle()), key=repr)
