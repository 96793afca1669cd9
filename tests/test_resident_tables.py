"""Resident local tables: a Session partitions and trims its graph once.

The serial, threaded and checked runtimes attach the same immutable
:class:`~repro.core.worker.LocalTable` objects to every job that shares
``(num_workers, trimmer class)`` with an earlier one, when the trimmer
is None or declares itself stateless.  These tests prove that sharing
changes nothing a job reports: repeated jobs match the first job and a
one-shot ``run_job`` in answer, outputs and every non-``time:`` metric;
a per-job trimmer (``LabelTrimmer``) still gets tables of its own;
concurrent jobs leave the shared tables untouched; and ``close()``
frees them.
"""

from __future__ import annotations

import functools
import gc
import sys
import weakref
from collections import Counter

import pytest

from repro import GThinkerConfig, Session, run_job
from repro.algorithms import (
    QueryGraph,
    count_matches,
    count_triangles,
    enumerate_maximal_cliques,
    enumerate_quasi_cliques,
    max_clique_reference,
    triangle_query,
)
from repro.apps import (
    BundledTriangleCountComper,
    MaxCliqueComper,
    MaximalCliqueComper,
    QuasiCliqueComper,
    SubgraphMatchComper,
    TriangleCountComper,
)
from repro.apps.common import GtTrimmer, LabelTrimmer
from repro.core import job as core_job
from repro.core.api import Trimmer
from repro.core.worker import LocalTableMemo, build_local_table
from repro.graph import erdos_renyi, with_random_labels

GRAPH = with_random_labels(erdos_renyi(24, 0.25, seed=9), 3, seed=1)
LABELLED_TRIANGLE = QueryGraph([(0, 1), (1, 2), (0, 2)],
                               labels={0: 0, 1: 1, 2: 2})
QC_GAMMA = 0.8

#: name -> (factory, answer oracle, tables shared across jobs?)
APPS = {
    "tc": (functools.partial(TriangleCountComper, list_triangles=True),
           lambda: count_triangles(GRAPH), True),
    "tc_bundled": (BundledTriangleCountComper,
                   lambda: count_triangles(GRAPH), True),
    "mcf": (MaxCliqueComper,
            lambda: len(max_clique_reference(GRAPH)), True),
    "cliques": (MaximalCliqueComper,
                lambda: sum(1 for _ in enumerate_maximal_cliques(GRAPH)), True),
    "qc": (functools.partial(QuasiCliqueComper, gamma=QC_GAMMA, min_size=4),
           lambda: len(set(enumerate_quasi_cliques(GRAPH, QC_GAMMA,
                                                   min_size=4))), True),
    "gm": (functools.partial(SubgraphMatchComper, triangle_query(),
                             collect_embeddings=True),
           lambda: count_matches(GRAPH, triangle_query()), True),
    "gm_labelled": (functools.partial(SubgraphMatchComper, LABELLED_TRIANGLE,
                                      data_labels=GRAPH.labels(),
                                      collect_embeddings=True),
                    lambda: count_matches(GRAPH, LABELLED_TRIANGLE), False),
}

#: Runtimes whose every counter repeats exactly from run to run; the
#: threaded runtime's interleaving moves its peaks and cache counters.
DETERMINISTIC = {"serial", "checked"}


@functools.lru_cache(maxsize=None)
def oracle(app: str):
    return APPS[app][1]()


def cfg(num_workers: int) -> GThinkerConfig:
    return GThinkerConfig(num_workers=num_workers, compers_per_worker=2,
                          task_batch_size=4, cache_capacity=64,
                          cache_buckets=16, sync_every_rounds=8)


def answer(result):
    """The aggregate, with a maximum clique reduced to its size (any of
    several equal cliques may win the race on the threaded runtime)."""
    if isinstance(result.aggregate, tuple):
        return len(result.aggregate)
    return result.aggregate


def _canonical(record):
    if isinstance(record, dict):
        return tuple(sorted(record.items()))
    return tuple(record)


def fingerprint(result, runtime: str):
    """What two runs of one job must agree on."""
    metrics = {k: v for k, v in result.metrics.items()
               if not k.startswith("time:")}
    if runtime not in DETERMINISTIC:
        metrics = {k: v for k, v in metrics.items()
                   if k.endswith("local_table_bytes")}
    return (answer(result), Counter(map(_canonical, result.outputs)),
            metrics)


@pytest.fixture
def built_tables(monkeypatch):
    """Every in-process cluster's attached tables, in build order."""
    built = []
    real = core_job.build_cluster

    def recording(*args, **kwargs):
        cluster = real(*args, **kwargs)
        built.append([w.table for w in cluster.workers])
        return cluster

    monkeypatch.setattr(core_job, "build_cluster", recording)
    return built


@pytest.mark.parametrize("num_workers", [1, 3])
@pytest.mark.parametrize("runtime", ["serial", "threaded", "checked"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_repeated_jobs_match_first_job_and_one_shot(app, runtime, num_workers,
                                                    built_tables):
    factory, _, shared = APPS[app]
    with Session(GRAPH, cfg(num_workers), runtime=runtime) as session:
        results = [session.submit(factory).result(timeout=60)
                   for _ in range(3)]
    results.append(run_job(factory, GRAPH, cfg(num_workers), runtime=runtime))

    assert answer(results[0]) == oracle(app)
    first = fingerprint(results[0], runtime)
    for result in results[1:]:
        assert fingerprint(result, runtime) == first

    job1, job2, job3, one_shot = built_tables
    assert len(job2) == num_workers
    if shared:
        assert all(a is b is c for a, b, c in zip(job1, job2, job3))
    else:
        assert all(a is not b for a, b in zip(job1, job2))
        assert all(b is not c for b, c in zip(job2, job3))
    # A new Session builds its own tables: equal rows, other objects.
    assert all(a is not d for a, d in zip(job1, one_shot))
    assert [t.spawn_order for t in job1] == [t.spawn_order for t in one_shot]


def test_concurrent_mixed_jobs_leave_the_shared_tables_unchanged(built_tables):
    names = ["tc", "mcf", "gm_labelled", "cliques", "tc_bundled", "gm",
             "qc", "tc"]
    with Session(GRAPH, cfg(3), runtime="serial",
                 max_concurrent=None) as session:
        session.submit(TriangleCountComper).result(timeout=60)
        session.submit(MaximalCliqueComper).result(timeout=60)
        gt_tables, plain_tables = built_tables
        before = [(t, dict(t.views), t.spawn_order, t.nbytes)
                  for t in gt_tables + plain_tables]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the 8 runner threads finely
        try:
            handles = [(name, session.submit(APPS[name][0]))
                       for name in names]
            for name, handle in handles:
                assert answer(handle.result(timeout=120)) == oracle(name), name
        finally:
            sys.setswitchinterval(interval)

    for table, views, spawn_order, nbytes in before:
        assert len(table.views) == len(views)
        assert all(table.views[v] is view for v, view in views.items())
        assert table.spawn_order == spawn_order
        assert table.nbytes == nbytes
        assert not any(view.adj.flags.writeable for view in views.values())
    # Every job but the labelled-GM one attached a resident table.
    attached = [tables for tables in built_tables[2:]
                if tables[0] is gt_tables[0] or tables[0] is plain_tables[0]]
    assert len(attached) == len(names) - 1


def test_close_frees_the_resident_tables(built_tables):
    session = Session(GRAPH, cfg(3))
    session.submit(TriangleCountComper).result(timeout=60)
    refs = [weakref.ref(t) for tables in built_tables for t in tables]
    built_tables.clear()
    gc.collect()
    assert all(ref() is not None for ref in refs)  # held by the Session
    session.close()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_memo_keys_and_close():
    memo = LocalTableMemo()
    assert memo.key(None, 2) == memo.key(None, 2) != memo.key(None, 3)
    assert memo.key(GtTrimmer(), 2) == memo.key(GtTrimmer(), 2)
    assert memo.key(GtTrimmer(), 2) != memo.key(None, 2)
    assert memo.key(LabelTrimmer({0}, lambda u: 0), 2) is None
    assert memo.key(Trimmer(), 2) is None  # undeclared: per job

    first, second = [build_local_table([(0, 0, [1])], None)], []
    memo.put(("k",), first)
    memo.put(("k",), second)
    assert memo.get(("k",)) is first  # the first write wins
    memo.close()
    memo.put(("k",), second)
    assert memo.get(("k",)) is None
