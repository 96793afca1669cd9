"""Job specs, the named-app registry, and result-cache keys.

A job crosses the service wire as a :class:`JobSpec`: an *app name*
plus a flat ``params`` dict — never a pickled callable, so the server
alone decides what code runs (and a CLI submitter can spell any job).
The registry maps each name to a builder that validates the params and
returns the picklable factory ``run_job`` expects; the same builders
back ``repro submit``'s flags.

Cache identity: :func:`cache_key` canonicalizes ``(graph_digest, app,
params)`` — params are JSON-serialized with sorted keys and defaults
filled in, so ``{"gamma": 0.8}`` and ``{"gamma": 0.8, "min_size": 4}``
name the same computation and hit the same cache entry.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..algorithms.matching import QueryGraph
from ..apps import (
    BundledTriangleCountComper,
    MaxCliqueComper,
    MaximalCliqueComper,
    QuasiCliqueComper,
    SubgraphMatchComper,
    TriangleCountComper,
    query_radius,
)
from ..core.errors import JobRejectedError

__all__ = [
    "JobSpec",
    "admit",
    "available_apps",
    "build_app_factory",
    "cache_key",
    "canonical_params",
    "register_service_app",
]


@dataclass(frozen=True)
class JobSpec:
    """One unit of admission: what to run, for whom, with which quota."""

    app: str
    params: Dict[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    #: Requested worker quota; ``None`` takes the server's default.  The
    #: scheduler caps it at ``max_workers_per_job`` either way.
    num_workers: Optional[int] = None


def _reject(app: str, message: str) -> JobRejectedError:
    return JobRejectedError(f"app {app!r}: {message}")


def _take(app: str, params: Dict[str, Any], known: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``params`` over ``known`` defaults; unknown keys reject."""
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise _reject(app, f"unknown parameter(s) {unknown}; "
                           f"accepted: {sorted(known)}")
    merged = dict(known)
    merged.update(params)
    return merged


def _build_tc(params: Dict[str, Any]):
    p = _take("tc", params, {"list_triangles": False, "bundle": 0})
    if p["bundle"]:
        return functools.partial(BundledTriangleCountComper,
                                 bundle_size=int(p["bundle"]))
    return functools.partial(TriangleCountComper,
                             list_triangles=bool(p["list_triangles"]))


def _build_mcf(params: Dict[str, Any]):
    _take("mcf", params, {})
    return MaxCliqueComper


def _build_cliques(params: Dict[str, Any]):
    p = _take("cliques", params, {"min_size": 3})
    return functools.partial(MaximalCliqueComper, min_size=int(p["min_size"]))


def _build_qc(params: Dict[str, Any]):
    p = _take("qc", params, {"gamma": 0.8, "min_size": 4})
    gamma = float(p["gamma"])
    if not 0.0 < gamma <= 1.0:
        raise _reject("qc", f"gamma must be in (0, 1], got {gamma}")
    return functools.partial(QuasiCliqueComper, gamma=gamma,
                             min_size=int(p["min_size"]))


def _build_gm(params: Dict[str, Any]):
    p = _take("gm", params, {"query_edges": None, "query_labels": None})
    edges = p["query_edges"]
    if not edges:
        raise _reject("gm", "query_edges is required, e.g. [[0,1],[1,2],[0,2]]")
    try:
        edge_list = [(int(u), int(v)) for u, v in edges]
    except (TypeError, ValueError):
        raise _reject("gm", f"query_edges must be [u,v] pairs, got {edges!r}") from None
    labels = None
    if p["query_labels"]:
        # JSON object keys arrive as strings; normalize to int vertex ids.
        labels = {int(k): int(v) for k, v in dict(p["query_labels"]).items()}
    try:
        query = QueryGraph(edge_list, labels=labels)
        query_radius(query)  # the app needs a connected query
    except ValueError as exc:
        raise _reject("gm", str(exc)) from None
    return functools.partial(SubgraphMatchComper, query)


#: app name -> (builder, one-line description, param defaults).  Builders
#: validate the params dict and return a picklable zero-arg Comper
#: factory; the defaults are what :func:`canonical_params` fills in so
#: omitting a default and spelling it out name the same computation.
_APP_BUILDERS: Dict[
    str, Tuple[Callable[[Dict[str, Any]], Any], str, Dict[str, Any]]
] = {
    "tc": (_build_tc, "triangle counting (params: list_triangles, bundle)",
           {"list_triangles": False, "bundle": 0}),
    "mcf": (_build_mcf, "maximum clique finding", {}),
    "cliques": (_build_cliques, "maximal clique enumeration (params: min_size)",
                {"min_size": 3}),
    "qc": (_build_qc, "quasi-clique enumeration (params: gamma, min_size)",
           {"gamma": 0.8, "min_size": 4}),
    "gm": (_build_gm, "subgraph matching (params: query_edges, query_labels)",
           {"query_edges": None, "query_labels": None}),
}


def register_service_app(
    name: str,
    builder: Callable[[Dict[str, Any]], Any],
    description: str = "",
    defaults: Optional[Dict[str, Any]] = None,
) -> None:
    """Register a custom named app with the service registry.

    ``builder(params)`` must validate its params (raise
    :class:`~repro.core.errors.JobRejectedError` on bad input) and
    return a picklable zero-arg Comper factory.  ``defaults`` are the
    param values :func:`cache_key` fills in for omitted keys.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"app name must be a non-empty string, got {name!r}")
    if name in _APP_BUILDERS:
        raise ValueError(f"app {name!r} is already registered")
    _APP_BUILDERS[name] = (builder, description, dict(defaults or {}))


def available_apps() -> Dict[str, str]:
    """``{name: description}`` of every submittable app."""
    return {name: desc for name, (_b, desc, _d) in sorted(_APP_BUILDERS.items())}


def _entry(app: str):
    entry = _APP_BUILDERS.get(app)
    if entry is None:
        raise JobRejectedError(
            f"unknown app {app!r}; available: {sorted(_APP_BUILDERS)}"
        )
    return entry


def build_app_factory(app: str, params: Optional[Dict[str, Any]] = None):
    """Resolve a named app + params into a run_job factory.

    Raises :class:`~repro.core.errors.JobRejectedError` for unknown
    names or invalid params — admission errors, not crashes.
    """
    builder, _desc, _defaults = _entry(app)
    return builder(dict(params or {}))


def _canonical_json(app: str, params: Optional[Dict[str, Any]]) -> str:
    merged = dict(_entry(app)[2])
    merged.update(params or {})
    return json.dumps(merged, sort_keys=True, default=str)


def _key(graph_digest: str, app: str, canonical: str) -> str:
    blob = f"{graph_digest}|{app}|{canonical}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def canonical_params(app: str, params: Optional[Dict[str, Any]] = None) -> str:
    """The params dict as canonical JSON (defaults filled, keys sorted).

    Validates via the app's builder first, so only well-formed specs get
    a canonical form; defaults are merged in so ``{"gamma": 0.8}`` and
    an explicit ``{"gamma": 0.8, "min_size": 4}`` canonicalize alike.
    """
    build_app_factory(app, params)  # validate / reject early
    return _canonical_json(app, params)


def cache_key(graph_digest: str, app: str,
              params: Optional[Dict[str, Any]] = None) -> str:
    """The result-cache key for ``(graph, app, params)``."""
    return _key(graph_digest, app, canonical_params(app, params))


def admit(graph_digest: str, app: str,
          params: Optional[Dict[str, Any]] = None) -> Tuple[Any, str]:
    """``(build_app_factory(...), cache_key(...))`` from one builder
    run — admission's path, so a spec is validated (and a ``gm`` query
    compiled) once per submit."""
    factory = build_app_factory(app, params)
    return factory, _key(graph_digest, app, _canonical_json(app, params))
