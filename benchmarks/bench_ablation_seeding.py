"""Ablation: degeneracy-based accelerations for MCF.

Not in the paper's evaluation, but standard practice the framework can
host without engine changes: precomputed core numbers prune spawns, and
a greedy degeneracy clique seeds the aggregator so branch-and-bound
starts with a tight incumbent instead of warming up.
"""

from repro.apps import MaxCliqueComper
from repro.bench import bench_config, emit, format_seconds, render_table
from repro.graph import core_numbers, greedy_clique_seed, make_dataset
from repro.sim import run_simulated_job


def test_seeding_ablation(benchmark):
    g = make_dataset("friendster", scale=1.5)
    out = {}

    def run_all():
        cfg = bench_config(4, 4)
        out["fig5"] = run_simulated_job(MaxCliqueComper, g, cfg)
        cores = core_numbers(g)
        seed = greedy_clique_seed(g)
        out["seeded"] = run_simulated_job(
            lambda: MaxCliqueComper(core_numbers=cores, initial_clique=seed),
            g, cfg,
        )
        out["seed_size"] = len(seed)
        return out

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    fig5, seeded = out["fig5"], out["seeded"]
    assert len(seeded.aggregate) == len(fig5.aggregate)
    rows = [
        ["Fig. 5 + degree peel", format_seconds(fig5.virtual_time_s),
         int(fig5.metrics.get("tasks:created", 0))],
        [f"+ core pruning + greedy seed (size {out['seed_size']})",
         format_seconds(seeded.virtual_time_s),
         int(seeded.metrics.get("tasks:created", 0))],
    ]
    emit(render_table("Ablation - degeneracy accelerations (MCF, friendster-like x1.5, 4x4)",
                      ["variant", "time", "tasks spawned"], rows),
         out_path="benchmarks/results/ablation_seeding.txt")
    assert seeded.metrics.get("tasks:created", 0) <= fig5.metrics.get("tasks:created", 0)
