"""Ablation: low-degree task bundling (the paper's future-work item).

Paper §VI: "the improvement from 8 VMs to 16 is not significant because
tasks spawned from many low-degree vertices do not generate large enough
subgraphs to hide IO cost in the computation, but this can be solved by
bundling tasks of low-degree vertices into big tasks as done in [38]".
We implemented the bundling; this bench measures it on TC and GM at
16x16.
"""

import functools

from repro.algorithms import triangle_query
from repro.apps import (
    BundledTriangleCountComper,
    SubgraphMatchComper,
    TriangleCountComper,
)
from repro.bench import bench_config, emit, format_seconds, render_table
from repro.graph import make_dataset
from repro.sim import run_simulated_job


class OneAnchorPerTask(SubgraphMatchComper):
    """GM in the paper's one-task-per-vertex shape."""

    BUNDLE_SIZE = 1


def test_bundling_ablation(benchmark):
    g = make_dataset("youtube", scale=2.0)
    out = {}

    def run_all():
        cfg = bench_config(16, 16)
        out["plain"] = run_simulated_job(TriangleCountComper, g, cfg)
        out["bundled"] = run_simulated_job(
            lambda: BundledTriangleCountComper(bundle_size=64, heavy_threshold=24),
            g, cfg,
        )
        query = triangle_query()
        out["gm_plain"] = run_simulated_job(
            functools.partial(OneAnchorPerTask, query), g, cfg)
        out["gm_bundled"] = run_simulated_job(
            functools.partial(SubgraphMatchComper, query), g, cfg)
        return out

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    plain, bundled = out["plain"], out["bundled"]
    gm_plain, gm_bundled = out["gm_plain"], out["gm_bundled"]
    assert plain.aggregate == bundled.aggregate
    assert gm_plain.aggregate == gm_bundled.aggregate == plain.aggregate
    rows = [
        [label, format_seconds(r.virtual_time_s),
         int(r.metrics["tasks:created"]), int(r.metrics["net:messages"])]
        for label, r in (
            ("TC per-vertex tasks (paper's TC)", plain),
            ("TC bundled low-degree tasks", bundled),
            ("GM triangle, one anchor per task", gm_plain),
            ("GM triangle, bundled anchors", gm_bundled),
        )
    ]
    emit(render_table(
        "Ablation - low-degree task bundling (youtube-like x2, 16x16)",
        ["strategy", "time", "tasks", "messages"], rows),
        out_path="benchmarks/results/ablation_bundling.txt")
    assert bundled.metrics["tasks:created"] < plain.metrics["tasks:created"] / 3
    assert gm_bundled.metrics["tasks:created"] < gm_plain.metrics["tasks:created"] / 3
