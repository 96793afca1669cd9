"""The user-facing programming API (paper Fig. 4).

Users write a subgraph-mining algorithm by subclassing :class:`Comper`
and implementing two serial UDFs:

* :meth:`Comper.task_spawn` — how to create task(s) from a vertex in the
  local vertex table (call :meth:`Comper.add_task` per created task);
* :meth:`Comper.compute` — one iteration of a task; return ``True`` to
  be scheduled for another iteration (after requested vertices arrive),
  ``False`` when the task is finished.

Supporting classes mirror the paper's: :class:`VertexView` (a pulled
vertex with its adjacency list), :class:`Task` (owns a
:class:`~repro.core.subgraph.Subgraph` ``g``, a ``context``, and the
``pull`` primitive), :class:`Aggregator` and :class:`Trimmer`.
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Dict, Generic, Iterable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .subgraph import Subgraph

__all__ = ["VertexView", "Task", "Comper", "Aggregator", "Trimmer", "MaxAggregator", "SumAggregator"]

A = TypeVar("A")


class VertexView(NamedTuple):
    """A read-only view of a vertex: id, label, and adjacency list.

    Elements of ``frontier`` in :meth:`Comper.compute`.  ``adj`` is a
    sorted read-only ``numpy.ndarray`` of int64 neighbor ids — a
    zero-copy view into the local vertex table / ``SharedCSR`` partition
    for local vertices, an owned array for cached remote ones.  (Plain
    tuples are still accepted when views are constructed by hand, e.g.
    in tests.)  UDFs must treat it as immutable and *copy what they need
    into the task's subgraph* if needed beyond the current iteration —
    the cache may evict the entry afterwards (the paper's contract: "the
    vertices in frontier are released by G-thinker right after compute()
    returns").  Because a live ndarray view keeps its backing buffer
    referenced, eviction never invalidates an array a task still holds.
    """

    id: int
    label: int
    adj: Sequence[int]  # numpy.ndarray[int64] on the hot path


class Task:
    """A unit of mining work: a subgraph ``g`` plus app-defined ``context``.

    ``g``'s rows are read-only int64 ndarrays, like ``VertexView.adj``;
    rows a task keeps beyond an iteration go there.  ``context`` is
    ``None``, an int or a tuple of ints, the kinds the task image
    encodes (docs/API.md, "The task context").

    ``pull(v)`` requests the adjacency list of ``v`` for the *next*
    iteration (the paper's task-based vertex pulling); ``pull_many(ids)``
    requests a whole adjacency array in one call.  Pulls are
    deduplicated per iteration.  The pulled adjacency arrives in the
    next iteration's ``frontier`` as a :class:`VertexView` whose ``adj``
    is an int64 ndarray (see the VertexView immutability contract).
    """

    __slots__ = ("g", "context", "_pulls", "_pull_set", "task_id",
                 "pulls_in_flight", "remote_in_flight", "views_in_flight")

    def __init__(self, context: Any = None) -> None:
        self.g = Subgraph()
        self.context = context
        self._pulls: List[int] = []
        self._pull_set: set = set()
        self.task_id: int = -1  # assigned by the engine on first park
        # Engine bookkeeping: the P(t) of the iteration in progress.
        # Remote entries hold locks in the vertex cache while non-empty.
        self.pulls_in_flight: List[int] = []
        # The subset of ``pulls_in_flight`` the parking worker does not
        # own, computed once per iteration.  Only meaningful on that
        # worker: empty whenever the task sits in ``Q_task``, so it never
        # travels through a yield, spill, steal or checkpoint.
        self.remote_in_flight: Sequence[int] = ()
        # The locked cache views of ``remote_in_flight`` handed over so
        # far (hits at park time, arrivals since), keyed by vertex; the
        # resumed task's frontier is built from them.  A map only while
        # the task is parked or ready, on the worker that parked it.
        self.views_in_flight: Optional[Dict[int, VertexView]] = None

    def pull(self, v: int) -> None:
        """Request ``Gamma(v)`` to be available in the next iteration."""
        v = int(v)  # normalize np.int64 ids iterated out of ndarray adjacency
        if v not in self._pull_set:
            self._pull_set.add(v)
            self._pulls.append(v)

    def pull_many(self, ids: Iterable[int]) -> None:
        """``pull(v)`` for every ``v`` in ``ids``, in one call.

        Same contract as the loop (per-iteration dedup, first-seen
        order, ids stored as Python ``int``).  Prefer it when you hold
        an adjacency array: a duplicate-free batch on a task with no
        pulls yet — the spawn-time shape — costs one ``tolist()`` and
        one ``set()`` instead of a call per neighbor.
        """
        if isinstance(ids, np.ndarray):
            ids = ids.astype(np.int64, copy=False).tolist()
        else:
            ids = [int(v) for v in ids]
        if not self._pulls:
            seen = set(ids)
            if len(seen) == len(ids):
                self._pulls, self._pull_set = ids, seen
                return
        for v in ids:
            self.pull(v)

    def take_pulls(self) -> List[int]:
        """Engine hook: drain the pulls requested during this iteration."""
        pulls, self._pulls, self._pull_set = self._pulls, [], set()
        return pulls

    def pending_pulls(self) -> Tuple[int, ...]:
        return tuple(self._pulls)

    def all_pending_pulls(self) -> Tuple[int, ...]:
        """Every vertex this task still needs (dedup, order-preserving).

        The union of ``pulls_in_flight`` — the P(t) of a parked
        iteration — and the pulls requested but not yet taken by the
        engine.  A task can hold both at once (parked on remote pulls
        while its compute queued more), so checkpointing must snapshot
        the union; either list alone silently drops vertices.
        """
        return tuple(dict.fromkeys(
            tuple(self.pulls_in_flight) + tuple(self._pulls)
        ))

    def memory_estimate_bytes(self) -> int:
        return 64 + self.g.memory_estimate_bytes() + 8 * len(self._pulls)


class Aggregator(abc.ABC, Generic[A]):
    """Commutative-monoid aggregation across all tasks of a job.

    Each worker holds a local partial; the master periodically folds the
    partials into a global value and republishes it (paper: aggregator
    threads synchronize "at a user-specified frequency, 1 s by default",
    plus a final synchronization before the job terminates).
    """

    @abc.abstractmethod
    def identity(self) -> A:
        """The monoid identity (empty partial)."""

    @abc.abstractmethod
    def combine(self, a: A, b: A) -> A:
        """Fold two partials; must be associative and commutative."""


class MaxAggregator(Aggregator[Any]):
    """Keeps the maximum element under a key function (default: len).

    Used by maximum-clique finding to track :math:`S_{max}`.
    """

    def __init__(self, key=len) -> None:
        self._key = key

    def identity(self):
        return None

    def combine(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return a if self._key(a) >= self._key(b) else b


class SumAggregator(Aggregator[int]):
    """Integer sum (used by triangle counting and match counting)."""

    def identity(self) -> int:
        return 0

    def combine(self, a: int, b: int) -> int:
        return a + b


class Trimmer:
    """Adjacency-list trimming applied once, right after graph loading.

    The default keeps lists intact.  Subclasses override :meth:`trim`;
    e.g. the set-enumeration apps keep only larger-id neighbors
    (:class:`GtTrimmer` in :mod:`repro.apps.common`), and subgraph
    matching drops neighbors whose labels do not occur in the query.
    Trimming also shrinks what gets *responded to remote pulls*, which is
    the paper's stated motivation (reduce communication).

    ``adj`` may be a tuple or a sorted int64 ndarray (possibly a
    zero-copy ``SharedCSR`` view); implementations should return the
    same kind they were given — returning an ndarray *slice* keeps the
    trim zero-copy.

    ``stateless`` declares that :meth:`trim` depends on nothing but its
    arguments, so every instance of the class trims alike and a
    :class:`~repro.core.session.Session` may build the trimmed local
    tables once and share them across jobs.  A trimmer that closes over
    per-job data (a query's labels, a caller's lookup) must leave it
    False: its tables are then rebuilt for every job.
    """

    stateless: ClassVar[bool] = False

    def trim(self, v: int, label: int, adj: Sequence[int]) -> Sequence[int]:
        return adj


class Comper(abc.ABC):
    """Base class for user algorithms (one instance per mining thread).

    The engine injects itself before any UDF runs; UDFs may use:

    * :meth:`add_task` — queue a newly created task,
    * :attr:`aggregator_value` / :meth:`aggregate` — read the latest
      globally synced aggregate / fold a value into the local partial,
    * :meth:`output` — emit a final result record,
    * :attr:`config` — the job's :class:`~repro.core.config.GThinkerConfig`.
    """

    def __init__(self) -> None:
        self._engine = None  # set by the runtime (ComperEngine)

    # -- wiring (engine-side) ------------------------------------------

    def bind_engine(self, engine) -> None:
        self._engine = engine

    # -- services available inside UDFs ----------------------------------

    def add_task(self, task: Task) -> None:
        """Add a created task to this comper's ``Q_task``."""
        self._engine.add_task(task)

    def aggregate(self, value: Any) -> None:
        """Fold ``value`` into this worker's local aggregator partial."""
        self._engine.aggregate(value)

    @property
    def aggregator_value(self) -> Any:
        """Latest *globally synced* aggregate combined with the local partial.

        For monotone aggregators (max-clique size) this is the freshest
        bound available for pruning.
        """
        return self._engine.aggregator_view()

    def output(self, record: Any) -> None:
        """Emit a result record (collected per worker, merged at job end)."""
        self._engine.output(record)

    @property
    def config(self):
        return self._engine.config

    # -- UDFs --------------------------------------------------------------

    @abc.abstractmethod
    def task_spawn(self, v: VertexView) -> None:
        """Create zero or more tasks from local vertex ``v``."""

    @abc.abstractmethod
    def compute(self, task: Task, frontier: Sequence[VertexView]) -> bool:
        """Process one iteration of ``task``.

        ``frontier[i]`` is the view of the ``i``-th vertex pulled in the
        previous iteration (same order as the ``pull`` calls).  Return
        ``True`` to run another iteration once newly pulled vertices
        arrive; ``False`` when the task is finished.
        """

    def spawn_flush(self) -> None:
        """Called once the local spawn cursor is exhausted, on a comper
        that took vertices from it.

        Apps that *bundle* several spawned vertices into one task (the
        paper's future-work item for low-degree vertices, after [38])
        buffer state across ``task_spawn`` calls; this hook lets them
        emit the final partial bundle.  The default does nothing.
        """

    # -- optional plug-ins ---------------------------------------------------

    def make_aggregator(self) -> Optional[Aggregator]:
        """Override to enable aggregation (return an Aggregator)."""
        return None

    def make_trimmer(self) -> Optional[Trimmer]:
        """Override to trim adjacency lists at load time."""
        return None
