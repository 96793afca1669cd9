"""Micro + end-to-end benchmark of the numpy adjacency path
(``BENCH_kernels.json``).

Two sections:

* **kernels** — pure-Python ``intersect_sorted`` / ``intersect_sorted_count``
  vs the vectorized :mod:`repro.graph.kernels` at sizes {8, 64, 1k, 64k}
  under balanced (1:1) and skewed (1:100) operand shapes.  The skewed
  shape is the one the galloping searchsorted path targets.
* **mcf_end_to_end** — the same maximum-clique workload as
  ``bench_single_machine.py`` (er(160, 0.12, seed 13), 4x2, tau=12) on
  the serial / threaded / process runtimes, so the numbers are directly
  comparable against ``BENCH_process_runtime.json``.

Run::

    python benchmarks/bench_kernels.py [--quick]

Exit status is non-zero if the numpy kernel fails to beat the
pure-Python oracle at the 64k size (the CI perf-smoke gate).
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.algorithms import max_clique_reference
from repro.apps import MaxCliqueComper
from repro.core import GThinkerConfig, run_job
from repro.graph import erdos_renyi, kernels
from repro.graph.graph import intersect_sorted, intersect_sorted_count

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

SIZES = (8, 64, 1024, 65536)
SKEWS = ((1, 1), (1, 100))  # |a|:|b| operand-size ratios


def _make_pair(rng, size, skew):
    """Two sorted unique int64 arrays with ~30% overlap."""
    small = size
    large = size * skew[1] // skew[0]
    universe = max(4 * large, 16)
    a = np.unique(rng.integers(0, universe, size=small, dtype=np.int64))
    b = np.unique(rng.integers(0, universe, size=large, dtype=np.int64))
    # Force some overlap so the kernels do real work.
    b = np.unique(np.concatenate([b, a[: max(1, a.size // 3)]]))
    return a, b


def _time(fn, args, min_repeat, budget_s=0.25):
    """Best-of-k seconds per call, k sized to a small time budget."""
    best = float("inf")
    elapsed = 0.0
    repeats = 0
    while repeats < min_repeat or elapsed < budget_s:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        best = min(best, dt)
        elapsed += dt
        repeats += 1
        if repeats >= 10_000:
            break
    return best


def bench_kernels(quick: bool) -> list:
    rng = np.random.default_rng(20260806)
    min_repeat = 3 if quick else 10
    rows = []
    for size in SIZES:
        for skew in SKEWS:
            a, b = _make_pair(rng, size, skew)
            a_list, b_list = a.tolist(), b.tolist()
            py_s = _time(intersect_sorted, (a_list, b_list), min_repeat)
            np_s = _time(kernels.intersect, (a, b), min_repeat)
            py_count_s = _time(intersect_sorted_count, (a_list, b_list),
                               min_repeat)
            np_count_s = _time(kernels.intersect_count, (a, b), min_repeat)
            rows.append({
                "size": size,
                "skew": f"{skew[0]}:{skew[1]}",
                "operands": [int(a.size), int(b.size)],
                "python_intersect_s": py_s,
                "numpy_intersect_s": np_s,
                "intersect_speedup": round(py_s / np_s, 2),
                "python_count_s": py_count_s,
                "numpy_count_s": np_count_s,
                "count_speedup": round(py_count_s / np_count_s, 2),
            })
    return rows


def bench_mcf(quick: bool) -> dict:
    """End-to-end MCF, comparable to BENCH_process_runtime.json."""
    if quick:
        n, workers = 90, 2
    else:
        n, workers = 160, 4
    graph = erdos_renyi(n, 0.12, seed=13)
    config = GThinkerConfig(
        num_workers=workers,
        compers_per_worker=2,
        task_batch_size=8,
        cache_capacity=4096,
        cache_buckets=64,
        decompose_threshold=12,
        aggregator_sync_period_s=0.005,
    )
    oracle_size = len(max_clique_reference(graph))
    repeats = 1 if quick else 3
    runs = {}
    for runtime in ("serial", "threaded", "process"):
        best = float("inf")
        for _ in range(repeats):  # best-of-k: scheduler jitter dominates
            started = time.perf_counter()
            result = run_job(MaxCliqueComper, graph, config, runtime=runtime)
            best = min(best, time.perf_counter() - started)
        runs[runtime] = {
            "wall_s": round(best, 4),
            "clique_size": len(result.aggregate or ()),
        }
    return {
        "graph": {"model": "erdos_renyi", "n": n, "p": 0.12, "seed": 13},
        "config": {"num_workers": workers, "compers_per_worker": 2,
                   "decompose_threshold": 12},
        "oracle_clique_size": oracle_size,
        "answers_equal": all(r["clique_size"] == oracle_size
                             for r in runs.values()),
        "runtimes": runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="numpy kernel benchmark"
    )
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats / smaller end-to-end graph (CI)")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT),
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)

    kernel_rows = bench_kernels(quick=args.quick)
    mcf = bench_mcf(quick=args.quick)
    report = {
        "benchmark": "numpy_adjacency_path",
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        # Marks whether the *parallel* wall-clock ratios (the
        # mcf_end_to_end section) are meaningful; the kernel speedups
        # compare numpy vs pure python on one thread and are valid on
        # any core count.
        "speedup_valid": (os.cpu_count() or 1) >= 2,
        "kernels": kernel_rows,
        "mcf_end_to_end": mcf,
    }
    with open(args.output, "w", encoding="ascii") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

    for row in kernel_rows:
        print(f"size={row['size']:<6d} skew={row['skew']:<6s} "
              f"intersect {row['intersect_speedup']:>8.2f}x  "
              f"count {row['count_speedup']:>8.2f}x")
    for name, run in mcf["runtimes"].items():
        print(f"mcf {name:9s} wall={run['wall_s']:.3f}s "
              f"clique={run['clique_size']}")
    print(f"wrote {args.output}")

    ok = mcf["answers_equal"]
    # CI gate: numpy must win at the largest size, in every skew.
    for row in kernel_rows:
        if row["size"] == 65536 and row["intersect_speedup"] < 1.0:
            print(f"FAIL: numpy slower than python at 64k "
                  f"(skew {row['skew']}: {row['intersect_speedup']}x)")
            ok = False
    if not mcf["answers_equal"]:
        print("FAIL: runtimes disagree on the MCF answer")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
