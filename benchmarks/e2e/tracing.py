"""Span recorder installed *from the benchmark's files* around the
program's public callables (spans inside ``src/`` are a later issue).

A span is ``(id, parent id, name, start, end)``; names are
``<layer>.<what>``.  Spans stay in memory while the traced job runs and
are reduced afterwards: a span's *self time* is its duration minus the
part its child spans cover, a layer's self time is the sum over its
spans, and whatever the root ``job.execute`` span keeps for itself is
the budget's unaccounted remainder.  End-to-end numbers are never taken
with these wrappers installed.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro import apps as repro_apps
from repro.apps import maxclique as app_maxclique
from repro.core import comm, comper, containers, master, runtime, session, worker
from repro.core import job as core_job
from repro.core import vertex_cache
from repro.core.api import Comper
from repro.graph import kernels
from repro.service import cache as service_cache
from repro.service import server as service_server

__all__ = ["Tracer", "ROOT_SPAN"]

ROOT_SPAN = "job.execute"


def _pair(a, b):
    return (a, b), len(a) + len(b)


def _many(arrays):
    arrays = list(arrays)  # may be a generator: size it without eating it
    return (arrays,), sum(map(len, arrays))


def _one_and_many(a, arrays):
    arrays = list(arrays)
    return (a, arrays), len(a) + sum(map(len, arrays))


#: kernel name -> ``args -> (args to pass on, Σ input lengths)``; the sum
#: over a run is ``kernels.elements``.
_KERNEL_ELEMENTS: Dict[str, Callable[..., Tuple[tuple, int]]] = {
    "intersect": _pair,
    "intersect_count": _pair,
    "intersect_many": _many,
    "intersect_count_many": _one_and_many,
    "suffix_gt": lambda adj, v: ((adj, v), len(adj)),
    "bitset_and_counts": lambda rows, mask: ((rows, mask),
                                             int(rows.size + mask.size)),
}

#: (owner, attribute, span name) for every wrapped method or function.
_TARGETS: Tuple[Tuple[object, str, str], ...] = (
    (core_job.ClusterRuntimeExecutor, "execute", ROOT_SPAN),
    (core_job, "build_cluster", "engine.build"),
    (worker.Worker, "load_rows", "engine.load_rows"),
    (worker.Worker, "spawn_into", "engine.spawn"),
    (runtime.SerialRuntime, "run", "engine.run_loop"),
    (comper.ComperEngine, "step", "engine.step"),
    (containers.TaskFileList, "spill", "engine.spill"),
    (containers.TaskFileList, "take_file", "engine.spill"),
    (vertex_cache.VertexCache, "request", "cache.request"),
    (vertex_cache.VertexCache, "request_batch", "cache.request"),
    (vertex_cache.VertexCache, "get_locked", "cache.get"),
    (vertex_cache.VertexCache, "insert_response", "cache.insert"),
    (vertex_cache.VertexCache, "insert_responses", "cache.insert"),
    (vertex_cache.VertexCache, "release", "cache.release"),
    (vertex_cache.VertexCache, "release_batch", "cache.release"),
    (vertex_cache.VertexCache, "evict", "cache.evict"),
    (comm.CommService, "step", "comm.step"),
    (master.Master, "sync", "control.sync"),
    # The serial branch-and-bound miner is a kernel in the paper's sense
    # (apps.maxclique binds it by name at import, hence the patch there).
    (app_maxclique, "max_clique", "kernels.max_clique"),
    (session.Session, "submit", "service.session_submit"),
    (service_server.GraphService, "submit", "service.admission"),
    (service_cache.ResultCache, "get", "service.result_cache"),
    (service_cache.ResultCache, "put", "service.result_cache"),
)


class Tracer:
    """Install with :meth:`install`, run jobs, :meth:`uninstall`, reduce."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.kernel_elements = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _traced(self, fn: Callable, name: str,
                elements: Optional[Callable[..., Tuple[tuple, int]]] = None
                ) -> Callable:
        local, spans, ids, clock = (self._local, self.spans, self._ids,
                                    time.perf_counter)

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if elements is not None:  # kernels are called positionally
                args, count = elements(*args)
                self.kernel_elements += count
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_kernels(self) -> None:
        for key in kernels.DISPATCHED_KERNELS:
            fn = getattr(kernels, key)
            if not hasattr(fn, "__wrapped__"):
                setattr(kernels, key, self._traced(
                    fn, f"kernels.{key}", _KERNEL_ELEMENTS.get(key)))

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            self._patch(owner, attr, self._traced(getattr(owner, attr), name))
        for cls in vars(repro_apps).values():
            if isinstance(cls, type) and issubclass(cls, Comper):
                for attr, name in (("task_spawn", "apps.spawn"),
                                   ("compute", "apps.compute")):
                    if attr in cls.__dict__:
                        self._patch(cls, attr,
                                    self._traced(cls.__dict__[attr], name))
        # Every job start calls select_backend, which rebinds the
        # dispatched kernel globals: re-wrap after each rebind.
        select_backend, compiled_kernel = (kernels.select_backend,
                                           kernels.compiled_kernel)

        def traced_select_backend(name="auto"):
            chosen = select_backend(name)
            self._wrap_kernels()
            return chosen

        def traced_compiled_kernel(name):
            fn = compiled_kernel(name)
            return None if fn is None else self._traced(fn, f"kernels.{name}")

        self._patch(kernels, "select_backend", traced_select_backend)
        self._patch(kernels, "compiled_kernel", traced_compiled_kernel)
        self._wrap_kernels()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        kernels.select_backend(kernels.current_backend())  # unwrapped bindings

    # -- reduction -----------------------------------------------------

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}`` over every span."""
        covered: Dict[int, float] = defaultdict(float)
        for _sid, parent, _name, t0, t1 in self.spans:
            if parent:
                covered[parent] += t1 - t0
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        for sid, _parent, name, t0, t1 in self.spans:
            cell = out[name]
            cell[0] += 1
            cell[1] += (t1 - t0) - covered.get(sid, 0.0)
        return {name: (int(c), s) for name, (c, s) in out.items()}

    def root_wall(self) -> float:
        return sum(t1 - t0 for _s, _p, name, t0, t1 in self.spans
                   if name == ROOT_SPAN)

    def write_chrome_trace(self, path) -> None:
        """One Chrome-trace JSON (``chrome://tracing`` / Perfetto).

        ``tid`` is the job: spans of one job share the id of their root
        ``job.execute`` span (parents precede children in id order)."""
        job_of: Dict[int, int] = {}
        for sid, parent, name, _t0, _t1 in sorted(self.spans):
            job_of[sid] = sid if name == ROOT_SPAN else job_of.get(parent, 0)
        origin = min((s[3] for s in self.spans), default=0.0)
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": 0,
             "tid": job_of[sid], "ts": (t0 - origin) * 1e6,
             "dur": (t1 - t0) * 1e6, "args": {"id": sid, "parent": parent}}
            for sid, parent, name, t0, t1 in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
