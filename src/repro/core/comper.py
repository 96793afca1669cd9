"""The comper engine: pop/push rounds over the task containers (paper §V-B).

Every round a comper:

* **push()** — takes a ready task from ``B_task`` (all requested
  vertices cached and locked), resolves its frontier, and computes; and
* **pop()** — *if memory permits* (cache not overflowed, pending tasks
  under the ``D`` threshold), refills ``Q_task`` when ``|Q| <= C``
  (spilled files first, then fresh spawns) and starts the next task:
  its pulls are resolved against the local table and the vertex cache,
  and the task either computes inline (everything local or a cache hit)
  or parks in ``T_task`` until its responses arrive.

Deviation from the paper noted in DESIGN.md: our push() computes a ready
task until it either finishes or needs to wait again, instead of exactly
one iteration followed by a re-queue through ``Q_task``; tasks are
independent so only intra-comper interleaving differs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .api import Comper, Task, VertexView
from .containers import (
    PendingTable,
    ReadyBuffer,
    TaskQueue,
    comper_of_task_id,
    make_task_id,
)
from .errors import TaskError

__all__ = ["ComperEngine"]


class ComperEngine:
    """One mining thread's state and logic; owned by a worker."""

    def __init__(self, global_id: int, worker, app: Comper) -> None:
        self.global_id = global_id
        self.worker = worker
        self.app = app
        app.bind_engine(self)

        cfg = worker.config
        # The checker is None unless protocol checking is enabled, so
        # every hook below costs one attribute load + None test.
        self.checker = worker.checker
        if self.checker is not None:
            from ..check import CheckedTaskQueue

            self.q_task = CheckedTaskQueue(
                cfg.task_batch_size, name=f"Q_task[comper {global_id}]"
            )
        else:
            self.q_task = TaskQueue(cfg.task_batch_size)
        self.b_task = ReadyBuffer()
        self.t_task = PendingTable()
        self.inline_limit = (
            cfg.inline_iteration_limit
            if cfg.inline_iteration_limit is not None
            else self.INLINE_ITERATION_LIMIT
        )
        self._seq = 0
        # Monotone task counters written by this comper's thread only;
        # termination reads nothing else (DESIGN.md §13).  A task retires
        # as ``finished`` or, re-queued and so born again, in ``yields``.
        self.born = self.finished = self.yields = self.iterations = 0
        # False from this comper's first take from the spawn cursor until
        # its spawn_flush() after the cursor ran out has returned.
        self.spawn_flushed = True

    # -- services exposed to the app (via Comper base class) ---------------

    @property
    def config(self):
        return self.worker.config

    def add_task(self, task: Task) -> None:
        self.born += 1  # before the task can be seen anywhere
        if self.checker is not None:
            self.checker.on_queued(task, self.global_id)
        spill = self.q_task.append(task)
        if spill is not None:
            if self.checker is not None:
                self.checker.on_spilled(spill, self.global_id)
            self.worker.l_file.spill(spill)

    def aggregate(self, value) -> None:
        self.worker.aggregator.aggregate(value)

    def aggregator_view(self):
        return self.worker.aggregator.view()

    def output(self, record) -> None:
        self.worker.add_output(record)

    # -- status (gating) ----------------------------------------------------

    def pending_load(self) -> int:
        """|T_task| + |B_task|, gated against the paper's D threshold."""
        return len(self.t_task) + len(self.b_task)

    # -- the comper round ----------------------------------------------------

    def step(self) -> bool:
        """One round: push(), then (memory permitting) pop().

        Returns True if any task progress was made.
        """
        worked = self._push()
        if self._may_pop():
            worked = self._pop() or worked
        return worked

    def _may_pop(self) -> bool:
        if self.worker.cache.overflowed():
            self.worker.metrics.add("comper:pop_blocked_cache")
            return False
        if self.pending_load() > self.config.effective_pending_threshold:
            self.worker.metrics.add("comper:pop_blocked_pending")
            return False
        return True

    # -- push: consume ready tasks -----------------------------------------

    def _push(self) -> bool:
        task = self.b_task.get()
        if task is None:
            return False
        if self.checker is not None:
            self.checker.on_resumed(task, self.global_id)
        views, task.views_in_flight = task.views_in_flight, None
        self._process(task, self._frontier(task.pulls_in_flight, views))
        return True

    def _frontier(self, pulls: Sequence[int],
                  views: Dict[int, VertexView]) -> List[VertexView]:
        """The iteration's frontier in pull order: ``views`` of the
        remote pulls (handed over locked at hit or arrival time), the
        rest from ``T_local``."""
        if len(views) < len(pulls):
            local = [v for v in pulls if v not in views]
            views.update(zip(local, self.worker.local_views(local)))
        return [views[v] for v in pulls]

    # -- pop: start new tasks --------------------------------------------------

    def _pop(self) -> bool:
        refilled = False
        if self.q_task.needs_refill():
            refilled = self._refill()
        task = self.q_task.pop()
        if task is None:
            # Advancing the spawn cursor is progress even when every
            # candidate vertex was pruned by task_spawn.
            return refilled
        if self.checker is not None:
            self.checker.on_started(task, self.global_id)
        self._start(task)
        return True

    def _refill(self) -> bool:
        """Prioritized refill: spilled/stolen files first, then spawns.

        Returns True if any refill source yielded work (tasks loaded or
        spawn cursor advanced).
        """
        tasks = self.worker.l_file.take_file()
        if tasks is not None:
            if self.checker is not None:
                self.checker.on_adopted(tasks, self.global_id)
            self.q_task.prepend(tasks)
            return True
        room = self.q_task.refill_room()
        if room > 0:
            return self.worker.spawn_into(self, room) > 0
        return False

    def _start(self, task: Task) -> None:
        """Resolve a task fresh from ``Q_task`` (no locks held yet)."""
        pulls = task.take_pulls()
        task.pulls_in_flight = pulls
        frontier = self._next_frontier(task, pulls)
        if frontier is not None:
            self._process(task, frontier)

    def _next_frontier(
        self, task: Task, pulls: Sequence[int]
    ) -> Optional[List[VertexView]]:
        """Resolve the pulls of ``task``'s next iteration, once.

        Splits them by table membership and parks the task if any are
        remote.  Returns the frontier when every pull is local or a
        cache hit; otherwise the task waits (push() continues it) and
        None is returned.  The remote list is kept on the task until the
        iteration's release, so no pull is classified twice.
        """
        remote = self.worker.remote_of(pulls)
        if not remote:
            return self.worker.local_views(pulls)
        task.remote_in_flight = remote
        views = self._park(task, remote)
        if views is None:
            return None
        return self._frontier(pulls, views)

    def _park(self, task: Task, remote: List[int]
              ) -> Optional[Dict[int, VertexView]]:
        """Park ``task`` in ``T_task`` and request its remote pulls.

        Park-first protocol: the task enters ``T_task`` *before* the
        cache requests are issued, so a response racing in from another
        thread always finds the pending entry.  The cache hits' views
        are delivered in one call; when the last view is delivered (ours
        or the receiver's) the task is ready.  A task whose every pull
        hit has no response in flight, so nothing else can reach its
        entry: it leaves ``T_task`` at once and its views are returned
        for the caller to compute on.  Otherwise the task moves to
        ``B_task`` when ready and None is returned.
        """
        if task.task_id == -1:
            task.task_id = make_task_id(self.global_id, self._seq)
            self._seq += 1
        if self.checker is not None:
            self.checker.on_parked(task, self.global_id)
        self.t_task.insert(task.task_id, task, req=len(remote))
        # Bulk OP1: one pass over the pulls, one comm-lock acquisition
        # for all first misses.
        batch = self.worker.cache.request_batch(remote, task.task_id)
        ready = (self.deliver(task.task_id, {
            v: e.view for v, e in batch.entries.items()
        }) if batch.hits else None)
        if batch.to_send:
            self.worker.comm.queue_requests(batch.to_send)
        # duplicates: the in-flight responses will be delivered to us.
        if ready is None:
            return None
        if batch.hits < len(remote):
            # Every duplicate's response landed before the hits counted.
            self.b_task.put(task)
            return None
        if self.checker is not None:
            self.checker.on_resumed(task, self.global_id)
        views, task.views_in_flight = task.views_in_flight, None
        return views

    # -- the compute loop -----------------------------------------------------

    #: A task whose pulls keep resolving locally computes inline, but
    #: yields the comper after this many consecutive iterations (it goes
    #: back to Q_task) so one task cannot monopolize its thread and the
    #: runtime's round accounting (livelock guards, sync cadence) stays
    #: live.  ``GThinkerConfig.inline_iteration_limit`` overrides this
    #: default (tests and the interleaving fuzzer lower it).
    INLINE_ITERATION_LIMIT = 64

    def _process(self, task: Task, frontier: List[VertexView]) -> None:
        """Run compute() iterations until the task finishes or must wait."""
        cache = self.worker.cache
        iterations = 0
        while True:
            iterations += 1
            try:
                more = self.app.compute(task, frontier)
            except Exception as exc:
                raise TaskError(task.task_id, repr(exc)) from exc
            self.iterations += 1
            # Release every remote vertex of the iteration just finished
            # ("a task always releases all its previously requested
            # non-local vertices from T_cache after each iteration"):
            # the list park time computed.
            remote = task.remote_in_flight
            if remote:
                task.remote_in_flight = ()
                cache.release_batch(remote, task.task_id)
            pulls = task.take_pulls()
            task.pulls_in_flight = pulls
            if not more:
                if self.checker is not None:
                    self.checker.on_finished(task, self.global_id)
                self.finished += 1
                return
            if iterations >= self.inline_limit:
                # Yield: return the task (with its pulls restored) to the
                # queue; a later pop re-resolves them.
                task.pulls_in_flight = []
                for v in pulls:
                    task.pull(v)
                # Invalidate the task id: it encodes the comper that
                # minted it at park time, but a re-queued task may be
                # spilled and refilled by a different comper, or stolen
                # by another worker, and the arrival receiver routes
                # responses by this id.  The next park mints a fresh
                # local id on whichever comper then owns the task.
                task.task_id = -1
                if self.checker is not None:
                    self.checker.on_yielded(task, self.global_id)
                self.add_task(task)
                self.yields += 1
                return
            frontier = self._next_frontier(task, pulls)
            if frontier is None:
                return

    # -- receiver-side hooks ------------------------------------------------------

    def deliver(self, task_id: int,
                views: Dict[int, VertexView]) -> Optional[Task]:
        """Hand parked task ``task_id`` the locked views of arrived
        pulls (its own cache hits at park time, or the receiver's
        arrivals from one response batch).  Returns the task once its
        last pull is delivered; the caller computes it or puts it in
        ``B_task``."""
        if self.checker is not None:
            self.worker.cache.check_delivery(task_id, views)
        ready = self.t_task.notify_arrival(task_id, views)
        if ready is not None and self.checker is not None:
            self.checker.on_ready(ready)
        return ready
