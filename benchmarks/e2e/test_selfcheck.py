"""Self-check of the benchmark harness (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Uses
``--smoke`` (tiny graphs, short runs): it proves the harness emits what
``BENCHMARK.json`` declares and that its inputs and counters repeat; it
measures nothing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from harness import p95_or_zero  # noqa: E402
from workloads import WORKLOADS, make_edges, service_plan, spec_key  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def session_members(sid: int) -> list:
    """Processes (zombies too) whose session is ``sid``: ``(pid, state)``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append((int(stat.parent.name), fields[0]))
    return found


def run(workload: str, trace: int, seed: int = 7) -> dict:
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True,
    ) as proc:
        stdout, _ = proc.communicate(timeout=300)
    # The run is its own session, so whatever it started is found there.
    assert session_members(proc.pid) == [], "the run left a process behind"
    assert proc.returncode == 0, stdout
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(name, trace): run(name, trace) for name in NAMES for trace in (0, 1)}


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert set(NAMES) == set(WORKLOADS) and 2 <= len(NAMES) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in every] + NAMES
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) for n in names)
    assert all(m["better"] in ("lower", "higher") for m in every)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_exactly_the_declared_metrics(results, trace, section):
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in NAMES:
        result = results[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared, name
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())


def test_end_to_end_metrics_are_never_zero(results):
    for name in NAMES:
        for metric, cell in results[name, 0]["metrics"].items():
            assert cell["value"] > 0, (name, metric)


def test_no_percentile_without_ten_samples_beyond_it(results):
    assert p95_or_zero([1.0] * 199) == 0.0
    values = list(range(200))
    p95 = p95_or_zero(values)
    assert sum(v > p95 for v in values) >= 9 and p95 > values[100]
    # The smoke segments hold fewer than 200 jobs: no p95 may appear.
    assert results["svc_mixed_closed2", 1]["metrics"][
        "service.job_wall_p95_s"]["value"] == 0.0
    for name in NAMES:
        if name != "svc_mixed_closed2":
            layers = results[name, 1]["metrics"]
            assert layers["service.job_wall_p95_s"]["value"] == 0.0


def test_layers_each_workload_bypasses_read_zero(results):
    rmat = results["tc_rmat_serial1", 1]["metrics"]
    for metric, cell in rmat.items():
        if metric.startswith(("cache.", "transport.")) or (
                metric.startswith("comm.") and metric != "comm.step_self_s"):
            assert cell["value"] == 0, metric
    value = lambda w, m: results[w, 1]["metrics"][m]["value"]  # noqa: E731
    assert value("tc_er_evict_serial2", "cache.evictions") > value(
        "tc_er_evict_serial2", "cache.hits")
    assert value("tc_er_pull_process2", "cache.evictions") == 0
    for name in NAMES:
        assert (value(name, "transport.ipc_batches") > 0) == (
            name == "tc_er_pull_process2")
        assert (value(name, "transport.tcp_frames") > 0) == (
            name == "mcf_dense_cluster2")
    assert value("svc_mixed_closed2", "service.deduped") == 0
    assert value("svc_mixed_closed2", "service.cache_hit_rate") == 0.25


def test_deterministic_workload_repeats_its_counters(results):
    first = results["tc_er_evict_serial2", 1]["metrics"]
    second = run("tc_er_evict_serial2", 1)["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] in ("count", "B") and not m["name"].startswith("trace.")]
    assert len(counts) > 30
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_seed_drives_the_inputs_and_nothing_else():
    for w in WORKLOADS.values():
        edges, n = make_edges(w, 1, True)
        assert (edges, n) == make_edges(w, 1, True)
        assert len(edges) != len(make_edges(w, 2, True)[0]), w.name


def test_service_mix_is_fixed_and_disjoint():
    sequences, distinct = service_plan()
    keys = [{spec_key(*spec) for spec in seq} for seq in sequences]
    assert not keys[0] & keys[1]
    assert len(distinct) == len(keys[0]) + len(keys[1])
    for seq in sequences:  # 48 jobs: 36 distinct cold specs + 12 repeats of 2 hot
        counts = sorted(seq.count(spec) for spec in {spec_key(*s): s for s in seq}.values())
        assert counts == [1] * 36 + [6, 6]
    assert all(not any(app == "qc" for app, _ in seq) for seq in sequences)
