"""Seeded interleaving fuzzing: :class:`CheckedRuntime`.

The serial runtime steps every component in one fixed round-robin order,
so whole families of interleavings (a comm response landing between two
comper rounds, GC starving a comper, one comper racing far ahead) are
never exercised — and the threaded runtime exercises them *randomly*,
so a protocol bug surfaces as a flake.  ``CheckedRuntime`` sits in
between: a single-threaded scheduler that perturbs the comper/comm/GC
step order **deterministically from a seed**.  A seed that trips a
protocol violation trips it on every run.

Perturbations per round, all drawn from the seeded RNG:

* the step order of all components (compers, comm services, GC) is
  reshuffled;
* each component is randomly *starved* for the round with probability
  ``STARVE_PROB``, letting queues/caches build pressure;
* unless the config pins ``inline_iteration_limit``, every comper gets
  a random inline-yield limit, forcing the yield → re-queue →
  spill/steal identity handoffs that only long tasks normally take.

After termination the runtime asserts end-of-job quiescence on every
enabled checker (empty lock ledger, no pending R-table entries, no
tracked tasks).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..core.api import Comper, SumAggregator, Task
from ..core.errors import GThinkerError

__all__ = ["CheckedRuntime", "FuzzReport", "run_fuzz_suite"]


class HopSumComper(Comper):
    """Fuzz workload: greedy max-neighbor walks, one per edge endpoint.

    Unlike the mining apps (whose compute() usually finishes in one
    iteration), every walk pulls exactly one vertex per iteration for
    ``HOPS`` iterations, so under small inline limits tasks constantly
    park, resume, *yield*, re-queue, spill and get stolen — the identity
    handoffs the lifecycle checker exists to validate.  The endpoint sum
    has a trivial serial oracle.
    """

    HOPS = 3

    def make_aggregator(self):
        return SumAggregator()

    def task_spawn(self, v):
        for n in v.adj:
            task = Task(context=self.HOPS)
            task.pull(n)
            self.add_task(task)

    def compute(self, task, frontier):
        view = frontier[0]
        task.context -= 1
        if task.context == 0:
            self.aggregate(view.id)
            return False
        task.pull(max(view.adj))
        return True


def hop_sum_oracle(graph):
    total = 0
    for v in graph.vertices():
        for cur in graph.neighbors(v):
            for _ in range(HopSumComper.HOPS - 1):
                cur = max(graph.neighbors(cur))
            total += cur
    return total


class CheckedRuntime:
    """Deterministic interleaving fuzzer (single thread, seeded order)."""

    #: Per-round probability that a component is skipped (starved).
    STARVE_PROB = 0.25

    #: A job still running after this many rounds is a livelock.
    MAX_ROUNDS = 5_000_000

    #: Inline-yield limits sampled per comper when the config leaves
    #: ``inline_iteration_limit`` unset: mostly aggressive (forcing the
    #: yield path) with the engine default mixed in.
    INLINE_LIMIT_CHOICES = (1, 1, 2, 3, 5, 8, 64)

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def run(self, cluster) -> None:
        cfg = cluster.config
        rng = random.Random(self.seed)

        steps = []
        for w in cluster.workers:
            steps.append(w.comm.step)
            steps.append(w.gc_step)
            for engine in w.engines:
                if cfg.inline_iteration_limit is None:
                    engine.inline_limit = rng.choice(self.INLINE_LIMIT_CHOICES)
                steps.append(engine.step)

        order = list(range(len(steps)))
        rounds = 0
        while True:
            rounds += 1
            rng.shuffle(order)
            worked = False
            for i in order:
                if rng.random() < self.STARVE_PROB:
                    continue
                worked = steps[i]() or worked
            if rounds % cfg.sync_every_rounds == 0 or not worked:
                if cluster.master.sync():
                    break
            if rounds > self.MAX_ROUNDS:
                raise GThinkerError(
                    f"checked job did not terminate within "
                    f"{self.MAX_ROUNDS} rounds (seed {self.seed})"
                )
        self._assert_quiescent(cluster)

    def _assert_quiescent(self, cluster) -> None:
        """End-of-job protocol state: everything released and finished."""
        for w in cluster.workers:
            w.cache.check_invariants()
            if hasattr(w.cache, "assert_quiescent"):
                w.cache.assert_quiescent()
            if w.checker is not None:
                w.checker.assert_quiescent()


@dataclass
class FuzzRun:
    app: str
    seed: int
    ok: bool
    detail: str = ""


@dataclass
class FuzzReport:
    runs: List[FuzzRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs)

    @property
    def failures(self) -> List[FuzzRun]:
        return [r for r in self.runs if not r.ok]

    def summary(self) -> str:
        n_fail = len(self.failures)
        lines = [
            f"{len(self.runs)} fuzz runs, {len(self.runs) - n_fail} passed, "
            f"{n_fail} failed"
        ]
        for r in self.failures:
            lines.append(f"  FAIL {r.app} seed={r.seed}: {r.detail}")
        return "\n".join(lines)


def run_fuzz_suite(
    seeds=range(20),
    num_vertices: int = 80,
    verbose: bool = False,
) -> FuzzReport:
    """Fuzz the example apps (TC + MCF) under the protocol checkers.

    Every (app, seed) pair runs a full job on :class:`CheckedRuntime`
    (2 workers x 2 compers) with checkers enabled over one
    ``erdos_renyi(num_vertices, 0.1, seed=7)`` graph, and validates the
    answer against the serial oracle.  Used by ``python -m repro check``
    and the test suite.
    """
    from ..algorithms import count_triangles, max_clique_reference
    from ..apps import MaxCliqueComper, TriangleCountComper
    from ..core.config import GThinkerConfig
    from ..core.job import run_job
    from ..graph import erdos_renyi

    graph = erdos_renyi(num_vertices, 0.1, seed=7)
    expected_triangles = count_triangles(graph)
    expected_clique = len(max_clique_reference(graph))
    expected_hops = hop_sum_oracle(graph)

    def check_tc(result):
        if result.aggregate != expected_triangles:
            return f"triangle count {result.aggregate} != {expected_triangles}"
        return ""

    def check_mcf(result):
        got = len(result.aggregate or ())
        if got != expected_clique:
            return f"max clique size {got} != {expected_clique}"
        return ""

    def check_hop(result):
        if result.aggregate != expected_hops:
            return f"hop sum {result.aggregate} != {expected_hops}"
        return ""

    apps = [
        ("tc", TriangleCountComper, check_tc),
        ("mcf", MaxCliqueComper, check_mcf),
        ("hop", HopSumComper, check_hop),
    ]

    report = FuzzReport()
    for app_name, factory, validate in apps:
        for seed in seeds:
            cfg = GThinkerConfig(
                num_workers=2,
                compers_per_worker=2,
                task_batch_size=2,
                cache_capacity=64,
                cache_buckets=16,
                decompose_threshold=16,
                check_protocols=True,
                seed=seed,
            )
            try:
                result = run_job(factory, graph, cfg, runtime="checked")
                detail = validate(result)
            except GThinkerError as exc:
                detail = f"{type(exc).__name__}: {exc}"
            run = FuzzRun(app=app_name, seed=seed, ok=not detail, detail=detail)
            report.runs.append(run)
            if verbose:
                status = "ok  " if run.ok else "FAIL"
                print(f"  {status} {app_name} seed={seed} {detail}")
    return report
