#!/usr/bin/env python3
"""The repository's benchmark: one command, named metrics, checked answers.

Three forms (see README.md next to this file):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process.  Prints every metric by name with its
    unit, then — as the last line of standard output — one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
    reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
    the per-layer ones.  Exits non-zero if any job failed or any answer
    was wrong.

``run.py [--seed N] [--rounds R] [--trace] [--out DIR]``
    Every workload, ``R`` rounds, one workload active at a time, the
    order rotated per round and round ``r`` seeded ``N + r``; writes
    ``DIR/report.json`` with each metric's values, median and spread
    (interquartile range over median).  ``--trace`` adds the per-layer
    run and one Chrome-trace JSON per workload.

``run.py compare A.json B.json``
    Two reports side by side against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_SEED = 20200420
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _prepare_environment() -> Path:
    """Pin the interpreter state the numbers depend on, then re-exec.

    ``PYTHONHASHSEED=0`` makes set/dict iteration repeat, ``PYTHONPATH``
    lets spawned nodes import the program, and ``TMPDIR`` keeps spill
    files inside the checkout (the runtimes spill under ``tempfile``).
    """
    if not (SRC / "repro").is_dir():
        sys.exit(f"{Path(__file__).name}: the program under test is missing "
                 f"({SRC / 'repro'}); run from a full checkout")
    if "E2E_BENCH_TMP" not in os.environ:
        tmp = ROOT / ".bench_tmp" / str(os.getpid())
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ.update(
            PYTHONHASHSEED="0", TMPDIR=str(tmp), E2E_BENCH_TMP=str(tmp),
            PYTHONPATH=os.pathsep.join(
                [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]),
        )
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [str(SRC), str(HERE)]
    return Path(os.environ["E2E_BENCH_TMP"])


def _adopt_orphans() -> None:
    """Become the reaper of every descendant (Linux ``PR_SET_CHILD_SUBREAPER``),
    so a grandchild whose parent dies first is handed to this process —
    and to :func:`_reap_processes` — instead of to init."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list:
    me, found = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # "pid (comm) state ppid ...": comm may hold spaces and parens.
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[1]) == me:
            found.append(int(stat.parent.name))
    return found


def _reap_processes(grace_s: float = 10.0) -> None:
    """Leave no process behind: stop multiprocessing's resource tracker
    (started by the shared-memory graph of the process and cluster
    runtimes; left alone it outlives its parent by a moment), then wait
    for every child, killing whatever is still alive after ``grace_s``."""
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:
        pass
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:  # and again for any it orphans
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def fingerprint() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": find_spec("numba") is not None,
    }


# ---------------------------------------------------------------------------
# One workload, this process (the form the driver calls)
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    from harness import log, measure_end_to_end, measure_layers
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]
    if args.trace:
        trace_path = None
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            trace_path = Path(args.out) / f"trace_{w.name}.json"
        outcome = measure_layers(w, args.seed, args.smoke, trace_path)
        declared = SPEC["per_layer"]
    else:
        outcome = measure_end_to_end(w, args.seed, args.seconds, args.smoke)
        declared = SPEC["end_to_end"]
    log(f"{w.name}: inputs {json.dumps(outcome.inputs)}")
    units = {m["name"]: m["unit"] for m in declared}
    complete = set(outcome.metrics) == set(units)
    if not complete:
        log(f"{w.name}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(outcome.metrics) ^ set(units))}")
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items() if name in outcome.metrics}
    for name, cell in metrics.items():
        print(f"{w.name:22s} {name:34s} {cell['value']:14.6g} {cell['unit']}")
    print(f"{w.name:22s} {'jobs_attempted':34s} {outcome.attempted:14d} count")
    print(f"{w.name:22s} {'jobs_failed':34s} {outcome.failed:14d} count")
    correct = complete and outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, outcome.attempted),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# Every workload, interleaved (one child process per workload and round)
# ---------------------------------------------------------------------------


def _child(name: str, seed: int, args, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--workload", name,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace and args.out:
        cmd += ["--out", args.out]
    started = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: no result (exit code {done.returncode})")
    print(f"  {name} seed {seed} trace {trace}: "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr, flush=True)
    return json.loads(lines[-1])


def _summary(values: list) -> dict:
    median = statistics.median(values)
    spread = 0.0
    if len(values) >= 2 and median:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(median)
    return {"values": values, "median": median, "spread": spread}


def run_all(args) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    runs = {name: [] for name in names}
    for r in range(args.rounds):
        k = r % len(names)
        for name in names[k:] + names[:k]:
            runs[name].append(_child(name, args.seed + r, args, trace=0))
    layers = {name: _child(name, args.seed, args, trace=1)
              for name in names} if args.trace else {}

    report = {
        "fingerprint": fingerprint(), "seed": args.seed, "rounds": args.rounds,
        "seconds": args.seconds, "smoke": args.smoke, "workloads": {},
    }
    for name in names:
        cell = {
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "correct": all(r["correct"] for r in runs[name]),
            "end_to_end": {},
        }
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[name]
                      if m["name"] in r["metrics"]]
            if values:
                cell["end_to_end"][m["name"]] = {"unit": m["unit"], **_summary(values)}
        if name in layers:
            cell["correct"] = cell["correct"] and layers[name]["correct"]
            cell["failed"] += layers[name]["failed"]
            cell["per_layer"] = layers[name]["metrics"]
        report["workloads"][name] = cell

    for name, cell in report["workloads"].items():
        for metric, s in cell["end_to_end"].items():
            print(f"{name:22s} {metric:16s} {s['median']:12.6g} {s['unit']:5s}"
                  f" spread {s['spread']:.3f}  n={len(s['values'])}")
        for metric, s in cell.get("per_layer", {}).items():
            print(f"{name:22s} {metric:34s} {s['value']:14.6g} {s['unit']}")
        print(f"{name:22s} jobs_attempted {cell['attempted']}  "
              f"jobs_failed {cell['failed']}")
    out = Path(args.out or HERE / "out")
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {out / 'report.json'}")
    return 0 if all(c["correct"] for c in report["workloads"].values()) else 1


# ---------------------------------------------------------------------------
# compare A.json B.json
# ---------------------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("seed", "smoke", "seconds"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} differs ({a[key]} vs {b[key]})")
            return 2
    if a["smoke"]:
        print("refusing to compare --smoke reports: their sizes measure nothing")
        return 2
    for key in ("nproc", "numpy", "numba"):
        if a["fingerprint"][key] != b["fingerprint"][key]:
            print(f"refusing to compare: {key} differs "
                  f"({a['fingerprint'][key]} vs {b['fingerprint'][key]})")
            return 2
    worse = 0
    for name, cell_a in a["workloads"].items():
        cell_b = b["workloads"][name]
        for m in SPEC["end_to_end"]:
            sa, sb = (c["end_to_end"][m["name"]] for c in (cell_a, cell_b))
            va, vb = sa["median"], sb["median"]
            # Signed so that positive is worse, as a share of A.
            change = (vb - va) / va if m["better"] == "lower" else (va - vb) / va
            flag = "WORSE" if change > m["bound"] else ""
            worse += bool(flag)
            print(f"{name:22s} {m['name']:14s} {va:10.5g} -> {vb:10.5g} {m['unit']:4s}"
                  f" {change:+7.1%} (bound {m['bound']:.0%})  spread"
                  f" {sa['spread']:.3f} / {sb['spread']:.3f} {flag}")
        if cell_b["failed"] > cell_a["failed"]:
            worse += 1
            print(f"{name:22s} jobs_failed rose {cell_a['failed']} -> {cell_b['failed']}")
    return 1 if worse else 0


def main() -> int:
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            sys.exit("usage: run.py compare A.json B.json")
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs: exercises the harness, measures nothing")
    parser.add_argument("--out", help="directory for report.json and traces")
    args = parser.parse_args()
    tmp = _prepare_environment()
    _adopt_orphans()
    # A terminated run unwinds through the ``finally`` below as well; the
    # program's forked workers keep the default action, as without us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    try:
        return run_one(args) if args.workload else run_all(args)
    finally:
        _reap_processes()
        if tmp.name == str(os.getpid()):  # children share their parent's
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
