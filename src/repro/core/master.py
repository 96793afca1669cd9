"""The master: progress sync, aggregator sync, stealing plans, termination.

The paper's main threads "periodically synchronize job status to monitor
progress, and to decide task stealing plans among workers", gathered at
a master worker.  We centralize that logic here; the runtimes call
:meth:`Master.sync` periodically.

Termination uses a double snapshot: the job is done when two consecutive
syncs observe (a) zero tasks in memory, on disk and unspawned, (b) zero
in-flight messages and queued requests, and (c) an unchanged global
progress counter between the two observations — the counter rules out a
task being mid-flight between containers during the first snapshot.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Optional, Tuple

from ..net.message import TaskBatchTransfer
from .aggregator import GlobalAggregator
from .worker import Worker

__all__ = ["Master", "plan_steals"]


def plan_steals(
    workloads: Iterable[Tuple[int, int]],
    batch: int,
    steal_batches: int,
    prev_pairs: FrozenSet[Tuple[int, int]],
    move: Callable[[int, int, int], int],
) -> FrozenSet[Tuple[int, int]]:
    """Workload-proportional stealing with ping-pong hysteresis.

    The one steal policy of every runtime.  ``workloads`` is
    ``(estimate, worker_id)`` per worker; up to ``steal_batches`` times
    the most loaded worker (victim) gives to the least loaded (thief)
    through ``move(victim, thief, amount) -> moved``.  The amount is
    about a quarter of the gap (moving ``m`` tasks shrinks the gap by
    ``2m``, so ``gap // 4`` halves it without overshooting), at least
    one batch, capped at ``steal_batches`` batches.  Planning stops when
    the gap is within two batches, when ``move`` reports nothing moved,
    or when the pair moved work the other way in the previous plan
    (``prev_pairs``) — so near-balanced workers stop trading the same
    batch back and forth.  Returns this plan's ``(victim, thief)``
    pairs, the next call's ``prev_pairs``.
    """
    estimates = [[estimate, wid] for estimate, wid in workloads]
    cap = steal_batches * batch
    pairs = set()
    for _ in range(steal_batches):
        estimates.sort()
        low, high = estimates[0], estimates[-1]
        gap = high[0] - low[0]
        if gap <= 2 * batch or (low[1], high[1]) in prev_pairs:
            break
        moved = move(high[1], low[1], max(batch, min(gap // 4, cap)))
        if moved == 0:
            break
        pairs.add((high[1], low[1]))
        low[0] += moved
        high[0] -= moved
    return frozenset(pairs)


class Master:
    def __init__(self, workers: List[Worker], transport, config, metrics) -> None:
        self.workers = workers
        self.transport = transport
        self.config = config
        self.metrics = metrics
        self.global_aggregator = GlobalAggregator(
            workers[0].aggregator._agg if workers else None
        )
        self.done = False
        self._prev_idle = False
        self._prev_progress = -1
        self._sync_count = 0
        self._last_steal_pairs = frozenset()
        self.checkpoint_hook = None  # set by the job when checkpointing is on
        #: Cooperative-cancellation token (``AbortToken`` or None), set
        #: by the executor before driving.  Checked at the top of every
        #: sync — the barrier every in-process runtime already hits — so
        #: a cancel lands within one sync round on serial, threaded,
        #: checked and simulated runtimes alike.
        self.abort = None

    # -- one synchronization round ----------------------------------------

    def sync(self, now: float = 0.0) -> bool:
        """Aggregate, plan steals, refresh gauges, detect termination.

        Returns True when the job has completed.  Raises
        :class:`~repro.core.errors.JobCancelledError` when the job's
        abort token was set since the last sync.
        """
        if self.done:
            return True
        if self.abort is not None:
            self.abort.raise_if_set()
        self._sync_count += 1
        self.global_aggregator.sync([w.aggregator for w in self.workers])
        for w in self.workers:
            # Commit this thread's pending ±δ so an idle cluster's
            # s_cache converges to the exact size, and publish the
            # bucket-lock acquisition totals gathered since last sync.
            w.cache.flush_local_counter()
            w.cache.commit_lock_metrics()
            w.update_memory_gauge()
        # Checkpoint before stealing: a batch stolen in this sync is on
        # the wire until the thief's next comm step, where no snapshot
        # would see it.
        if (
            self.checkpoint_hook is not None
            and self.config.checkpoint_every_syncs > 0
            and self._sync_count % self.config.checkpoint_every_syncs == 0
        ):
            self.checkpoint_hook()
        if self.config.steal_batches and len(self.workers) > 1:
            self._plan_and_execute_steals(now)
        if self._check_termination():
            # Final aggregator synchronization before the job terminates
            # ("another synchronization is performed to make sure data
            # from all tasks are aggregated").
            self.global_aggregator.sync([w.aggregator for w in self.workers])
            self.done = True
        return self.done

    # -- work stealing --------------------------------------------------------

    def _plan_and_execute_steals(self, now: float) -> None:
        """Run :func:`plan_steals` over the workers' current estimates."""

        def move(victim_id: int, thief_id: int, amount: int) -> int:
            moved = self._steal_one_batch(
                self.workers[victim_id], thief_id, now, amount
            )
            if moved:
                self.metrics.add("steal:batches")
                self.metrics.add("steal:tasks", moved)
            return moved

        self._last_steal_pairs = plan_steals(
            [(w.remaining_workload_estimate(), w.worker_id)
             for w in self.workers],
            self.config.task_batch_size,
            self.config.steal_batches,
            self._last_steal_pairs,
            move,
        )

    def _steal_one_batch(
        self, victim: Worker, thief_id: int, now: float,
        max_tasks: Optional[int] = None,
    ) -> int:
        """Move one task batch from victim to thief over the transport."""
        payload_info = victim.l_file.take_payload()
        if payload_info is None:
            payload_info = victim.spawn_batch_payload(
                max_tasks if max_tasks is not None else self.config.task_batch_size
            )
        if payload_info is None:
            return 0
        payload, count = payload_info
        self.transport.send(
            TaskBatchTransfer(
                src=victim.worker_id, dst=thief_id, payload=payload, num_tasks=count
            ),
            now=now,
        )
        return count

    # -- termination detection ------------------------------------------------------

    def _snapshot(self) -> Tuple[bool, int]:
        tasks = sum(w.tasks_in_memory() for w in self.workers)
        on_disk = sum(len(w.l_file) for w in self.workers)
        unspawned = sum(w.unspawned_count() for w in self.workers)
        outgoing = sum(w.comm.pending_outgoing() for w in self.workers)
        in_flight = self.transport.in_flight
        idle = tasks == 0 and on_disk == 0 and unspawned == 0 and outgoing == 0 and in_flight == 0
        progress = sum(w.progress.value for w in self.workers)
        return idle, progress

    def _check_termination(self) -> bool:
        idle, progress = self._snapshot()
        result = idle and self._prev_idle and progress == self._prev_progress
        self._prev_idle = idle
        self._prev_progress = progress
        return result
