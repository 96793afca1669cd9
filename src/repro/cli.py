"""Command-line interface: run G-thinker jobs from the shell.

Examples::

    # triangle counting on an edge-list file, 4 workers x 2 compers
    python -m repro tc --graph edges.txt --workers 4 --compers 2

    # maximum clique on a built-in dataset stand-in
    python -m repro mcf --dataset friendster --scale 0.5

    # quasi-cliques, emitting results to a file
    python -m repro qc --dataset youtube --scale 0.2 --gamma 0.8 \
        --min-size 4 --output qcs.txt

    # simulate a 16x16 cluster instead of running in-process
    python -m repro mcf --dataset friendster --simulate \
        --workers 16 --compers 16

    # shard a graph into a local "HDFS" directory
    python -m repro shard --graph edges.txt --out shards/ --num-shards 8
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from .apps import (
    BundledTriangleCountComper,
    MaxCliqueComper,
    MaximalCliqueComper,
    QuasiCliqueComper,
    TriangleCountComper,
)
from .core.config import GThinkerConfig
from .core.session import Session
from .core.job import available_runtimes
from .graph import (
    DATASETS,
    ShardedGraphStore,
    dataset_stats,
    make_dataset,
    read_adjacency,
    read_edge_list,
)
from .sim import run_simulated_job

__all__ = ["main", "build_parser"]


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("graph source (pick one)")
    src.add_argument("--graph", help="edge-list or adjacency file")
    src.add_argument("--format", choices=["edges", "adjacency"], default="edges",
                     help="file format of --graph (default: edges)")
    src.add_argument("--shards", help="ShardedGraphStore directory")
    src.add_argument("--dataset", choices=sorted(DATASETS),
                     help="built-in synthetic stand-in")
    src.add_argument("--scale", type=float, default=0.5,
                     help="dataset scale factor (default 0.5)")


def _add_common(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)

    run = p.add_argument_group("execution")
    run.add_argument("--workers", type=int, default=2)
    run.add_argument("--compers", type=int, default=2)
    run.add_argument("--runtime", choices=list(available_runtimes()),
                     default="serial")
    run.add_argument("--simulate", action="store_true",
                     help="run on the discrete-event simulated cluster")
    run.add_argument("--hosts",
                     help="comma-separated host:port data addresses, one per "
                          "worker, for runtime=cluster attach mode (nodes "
                          "started with 'repro node'); omit to spawn all "
                          "nodes locally")
    run.add_argument("--cluster-bind", default="127.0.0.1:0",
                     help="host:port the cluster master's control listener "
                          "binds (default 127.0.0.1:0 — loopback, ephemeral "
                          "port; use 0.0.0.0:PORT for attach mode)")
    run.add_argument("--cache-capacity", type=int, default=50_000)
    run.add_argument("--batch-size", type=int, default=32)
    run.add_argument("--tau", type=int, default=None,
                     help="decomposition threshold (MCF)")
    run.add_argument("--output", help="write result records to this file")
    run.add_argument("--profile", action="store_true",
                     help="run the job under cProfile and print the top 20 "
                          "functions by cumulative time; profiles the thread "
                          "that executes the job (serial, checked, --simulate; "
                          "threaded: its master loop only) — process/cluster "
                          "worker children are not profiled")

    ft = p.add_argument_group("fault tolerance")
    ft.add_argument("--checkpoint-dir",
                    help="write periodic checkpoints under this directory "
                         "(serial and process runtimes)")
    ft.add_argument("--checkpoint-every", type=int, default=4,
                    help="checkpoint every N syncs when --checkpoint-dir "
                         "is set (default 4)")
    ft.add_argument("--resume", action="store_true",
                    help="resume from the checkpoint in --checkpoint-dir "
                         "instead of starting fresh")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="G-thinker (ICDE 2020) reproduction - distributed subgraph mining",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, blurb in [
        ("tc", "triangle counting"),
        ("mcf", "maximum clique finding"),
        ("cliques", "maximal clique enumeration"),
        ("qc", "maximal quasi-clique enumeration"),
    ]:
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        if name == "tc":
            p.add_argument("--list", action="store_true", help="emit each triangle")
            p.add_argument("--bundle", type=int, default=0,
                           help="bundle low-degree vertices (bundle size; 0 = off)")
        if name == "qc":
            p.add_argument("--gamma", type=float, default=0.8)
            p.add_argument("--min-size", type=int, default=4)
        if name == "cliques":
            p.add_argument("--min-size", type=int, default=3)

    shard = sub.add_parser("shard", help="partition a graph into shard files")
    shard.add_argument("--graph", required=True)
    shard.add_argument("--format", choices=["edges", "adjacency"], default="edges")
    shard.add_argument("--out", required=True)
    shard.add_argument("--num-shards", type=int, required=True)

    node = sub.add_parser(
        "node",
        help="run one runtime=cluster worker node and attach to a master",
    )
    node.add_argument("--master", required=True,
                      help="host:port of the driver's --cluster-bind listener")
    node.add_argument("--bind", default="127.0.0.1",
                      help="host/interface this node's data listener binds "
                           "and advertises to its peers (default 127.0.0.1)")
    node.add_argument("--node-id", type=int, default=-1,
                      help="worker slot to claim (default: master assigns)")
    node.add_argument("--connect-timeout", type=float, default=30.0,
                      help="seconds to keep retrying the master connection")

    serve = sub.add_parser(
        "serve",
        help="run the resident-graph job service (load once, serve many jobs)",
    )
    _add_graph_source(serve)
    serve.add_argument("--bind", default="127.0.0.1:0",
                       help="host:port for the job listener (default "
                            "127.0.0.1:0 — loopback, ephemeral port)")
    serve.add_argument("--runtime", choices=list(available_runtimes()),
                       default="serial",
                       help="runtime submitted jobs execute on")
    serve.add_argument("--workers", type=int, default=2,
                       help="default worker quota per job")
    serve.add_argument("--compers", type=int, default=2)
    serve.add_argument("--worker-budget", type=int, default=None,
                       help="total worker quota running at once "
                            "(default: CPU count)")
    serve.add_argument("--max-workers-per-job", type=int, default=None,
                       help="per-job quota cap (default: --workers)")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="queued jobs beyond this are rejected (default 64)")
    serve.add_argument("--tenant-weight", action="append", default=[],
                       metavar="TENANT=WEIGHT",
                       help="fair-share weight for a tenant (repeatable; "
                            "unlisted tenants weigh 1)")
    serve.add_argument("--cache-size", type=int, default=128,
                       help="result-cache entries (default 128; 0 disables)")
    serve.add_argument("--cache-dir", default=None,
                       help="persist finished results under this directory "
                            "so a restarted server serves warm repeats "
                            "with zero mining rounds")

    submit = sub.add_parser(
        "submit",
        help="submit a job to a running 'repro serve' and print the answer",
    )
    submit.add_argument("--server", required=True,
                        help="host:port printed by 'repro serve'")
    submit.add_argument("--app", required=True,
                        help="app name (tc, mcf, cliques, qc, gm, ...)")
    submit.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="single param (repeatable; VALUE parsed as "
                             "JSON, falling back to string)")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--num-workers", type=int, default=None,
                        help="requested worker quota (server caps it)")
    submit.add_argument("--timeout", type=float, default=None,
                        help="seconds to wait for the answer")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return without waiting")
    submit.add_argument("--output", help="write result records to this file")

    cancel = sub.add_parser(
        "cancel",
        help="cancel a queued or running job on a 'repro serve' server",
    )
    cancel.add_argument("--server", required=True,
                        help="host:port printed by 'repro serve'")
    cancel.add_argument("job_id", help="job id printed by 'repro submit'")

    jobs = sub.add_parser(
        "jobs",
        help="list jobs (and admission stats) on a running 'repro serve'",
    )
    jobs.add_argument("--server", required=True,
                      help="host:port printed by 'repro serve'")
    jobs.add_argument("--stats", action="store_true",
                      help="also print admission/cache statistics")
    jobs.add_argument("--shutdown", action="store_true",
                      help="ask the server to stop instead of listing")

    info = sub.add_parser("datasets", help="list built-in dataset stand-ins")
    info.add_argument("--scale", type=float, default=0.5)

    check = sub.add_parser(
        "check",
        help="fuzz the concurrency protocols (seeded interleavings + checkers)",
    )
    check.add_argument("--seeds", type=int, default=20,
                       help="number of interleaving seeds per app (default 20)")
    check.add_argument("--vertices", type=int, default=80,
                       help="Erdos-Renyi graph size (default 80)")
    check.add_argument("--quiet", action="store_true",
                       help="only print the final summary")
    return parser


def _load_graph(args):
    sources = [bool(args.graph), bool(args.shards), bool(args.dataset)]
    if sum(sources) != 1:
        raise SystemExit("exactly one of --graph, --shards, --dataset is required")
    if args.graph:
        if args.format == "edges":
            return read_edge_list(args.graph)
        return read_adjacency(args.graph)
    if args.shards:
        return ShardedGraphStore(args.shards)
    return make_dataset(args.dataset, scale=args.scale)


def _make_config(args) -> GThinkerConfig:
    kwargs = dict(
        num_workers=args.workers,
        compers_per_worker=args.compers,
        cache_capacity=args.cache_capacity,
        task_batch_size=args.batch_size,
    )
    if args.tau is not None:
        kwargs["decompose_threshold"] = args.tau
    if getattr(args, "checkpoint_dir", None):
        kwargs["checkpoint_every_syncs"] = args.checkpoint_every
    if getattr(args, "hosts", None):
        kwargs["cluster_hosts"] = tuple(
            h.strip() for h in args.hosts.split(",") if h.strip()
        )
    if getattr(args, "cluster_bind", None):
        kwargs["cluster_bind"] = args.cluster_bind
    return GThinkerConfig(**kwargs)


def _checkpoint_file(args) -> str:
    import os.path

    return os.path.join(args.checkpoint_dir, f"{args.command}.ckpt")


def _app_factory(args):
    # functools.partial, not lambdas: runtime="process" pickles the
    # factory into every worker process.
    if args.command == "tc":
        if args.bundle:
            return functools.partial(BundledTriangleCountComper,
                                     bundle_size=args.bundle)
        return functools.partial(TriangleCountComper, list_triangles=args.list)
    if args.command == "mcf":
        return MaxCliqueComper
    if args.command == "cliques":
        return functools.partial(MaximalCliqueComper, min_size=args.min_size)
    if args.command == "qc":
        return functools.partial(QuasiCliqueComper, gamma=args.gamma,
                                 min_size=args.min_size)
    raise SystemExit(f"unknown command {args.command}")


def _emit_outputs(outputs, path: Optional[str]) -> None:
    if not path:
        return
    with open(path, "w", encoding="ascii") as f:
        for rec in outputs:
            f.write(f"{rec}\n")
    print(f"wrote {len(outputs)} records to {path}")


def _cmd_serve(args) -> int:
    from .service import GraphService

    weights = {}
    for spec in args.tenant_weight:
        tenant, sep, weight = spec.partition("=")
        if not sep:
            raise SystemExit(f"--tenant-weight wants TENANT=WEIGHT, got {spec!r}")
        weights[tenant] = float(weight)

    graph = _load_graph(args)
    config = GThinkerConfig(num_workers=args.workers,
                            compers_per_worker=args.compers)
    service = GraphService(
        graph,
        config=config,
        runtime=args.runtime,
        bind=args.bind,
        worker_budget=args.worker_budget,
        max_workers_per_job=args.max_workers_per_job,
        max_queue_depth=args.max_queue_depth,
        tenant_weights=weights or None,
        result_cache_size=args.cache_size,
        cache_dir=args.cache_dir,
    )
    service.start()
    host, port = service.address
    info = service.server_info()
    size = (f"{info['num_vertices']} vertices / {info['num_edges']} edges"
            if "num_vertices" in info else "sharded store")
    print(f"serving {size} on {host}:{port} "
          f"(runtime={args.runtime}, budget={info['worker_budget']} workers)",
          flush=True)
    print(f"submit with: repro submit --server {host}:{port} --app tc",
          flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.close()
    return 0


def _parse_submit_params(args) -> dict:
    import json

    params = {}
    for spec in args.param:
        key, sep, value = spec.partition("=")
        if not sep:
            raise SystemExit(f"--param wants KEY=VALUE, got {spec!r}")
        try:
            params[key] = json.loads(value)
        except ValueError:
            params[key] = value
    return params


def _cmd_submit(args) -> int:
    from .core.errors import JobRejectedError, ServiceError
    from .service import ServiceClient

    params = _parse_submit_params(args)
    with ServiceClient(args.server) as client:
        try:
            handle = client.submit(args.app, params, tenant=args.tenant,
                                   num_workers=args.num_workers)
        except JobRejectedError as exc:
            print(f"rejected: {exc}", file=sys.stderr)
            return 1
        record = handle.record
        print(f"{record['job_id']}  app={record['app']}  "
              f"tenant={record['tenant']}  status={record['status']}"
              f"{'  (cached)' if record['cached'] else ''}")
        if args.no_wait:
            return 0
        try:
            result = handle.result(timeout=args.timeout)
        except TimeoutError:
            print(f"still running after {args.timeout}s; fetch later with "
                  f"repro jobs --server {args.server}", file=sys.stderr)
            return 1
        except ServiceError as exc:
            print(f"failed: {exc}", file=sys.stderr)
            return 1
        record = handle.record
        print(f"wall time    : {result.elapsed_s:.4f} s"
              f"{'  (served from cache)' if record['cached'] else ''}")
        if args.app == "mcf":
            clique = result.aggregate or ()
            print(f"max clique   : size {len(clique)}  {clique}")
        else:
            print(f"aggregate    : {result.aggregate}")
        _emit_outputs(result.outputs, args.output)
    return 0


def _cmd_cancel(args) -> int:
    from .core.errors import ServiceError
    from .service import ServiceClient

    with ServiceClient(args.server) as client:
        try:
            cancelled, record = client.cancel(args.job_id)
        except ServiceError as exc:
            print(f"cancel failed: {exc}", file=sys.stderr)
            return 1
        if cancelled:
            # A queued job is already settled; a running one aborts at
            # its next sync boundary and the record catches up then.
            print(f"{record['job_id']}  cancel accepted  "
                  f"status={record['status']}")
            return 0
        print(f"{record['job_id']}  not cancellable  "
              f"status={record['status']}", file=sys.stderr)
        return 1


def _cmd_jobs(args) -> int:
    from .service import ServiceClient

    with ServiceClient(args.server) as client:
        if args.shutdown:
            client.shutdown()
            print("shutdown requested")
            return 0
        records = client.jobs()
        if not records:
            print("no jobs submitted yet")
        for rec in records:
            rounds = rec["mining_rounds"]
            print(f"{rec['job_id']:10s} {rec['app']:8s} "
                  f"tenant={rec['tenant']:10s} quota={rec['quota']} "
                  f"status={rec['status']:9s} "
                  f"{'cached' if rec['cached'] else f'rounds={rounds}'}")
        if args.stats:
            for key, value in sorted(client.stats().items()):
                print(f"{key:20s} {value}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "datasets":
        for name in sorted(DATASETS):
            stats = dataset_stats(make_dataset(name, scale=args.scale))
            print(f"{name:12s} {stats}")
        return 0

    if args.command == "check":
        from .check import run_fuzz_suite

        report = run_fuzz_suite(
            seeds=range(args.seeds),
            num_vertices=args.vertices,
            verbose=not args.quiet,
        )
        print(report.summary())
        return 0 if report.ok else 1

    if args.command == "node":
        from .core.clusterruntime import serve_node

        serve_node(
            args.master,
            bind_host=args.bind,
            node_id=args.node_id,
            connect_timeout_s=args.connect_timeout,
        )
        return 0

    if args.command == "shard":
        g = read_edge_list(args.graph) if args.format == "edges" else read_adjacency(args.graph)
        ShardedGraphStore.create(args.out, g, num_shards=args.num_shards)
        print(f"sharded {g.num_vertices} vertices / {g.num_edges} edges "
              f"into {args.num_shards} shards under {args.out}")
        return 0

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "submit":
        return _cmd_submit(args)

    if args.command == "cancel":
        return _cmd_cancel(args)

    if args.command == "jobs":
        return _cmd_jobs(args)

    if getattr(args, "resume", False):
        if not getattr(args, "checkpoint_dir", None):
            raise SystemExit("--resume requires --checkpoint-dir")
        if args.simulate:
            raise SystemExit("--resume is not supported with --simulate")

    graph = _load_graph(args)
    config = _make_config(args)
    factory = _app_factory(args)

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
    resume = getattr(args, "resume", False)
    if args.simulate:
        # The DES runs on this thread.
        if profiler is not None:
            profiler.enable()
        result = run_simulated_job(factory, graph, config)
        if profiler is not None:
            profiler.disable()
    else:
        # What run_job / resume_job do, spelled out so the profiler can
        # ride along to the thread that executes the job.
        checkpoint_file = (_checkpoint_file(args)
                           if resume or getattr(args, "checkpoint_dir", None)
                           else None)
        with Session(graph, config=config, runtime=args.runtime) as session:
            result = session.submit(
                factory,
                checkpoint_path=None if resume else checkpoint_file,
                resume_from=checkpoint_file if resume else None,
                profiler=profiler,
            ).result()
    if profiler is not None:
        import pstats

        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)

    if args.simulate:
        print(f"virtual time : {result.virtual_time_s:.4f} s "
              f"({config.num_workers} machines x {config.compers_per_worker} compers)")
        print(f"peak memory  : {result.peak_memory_bytes / (1 << 20):.2f} MB/machine")
    else:
        print(f"wall time    : {result.elapsed_s:.4f} s")

    if args.command == "mcf":
        clique = result.aggregate or ()
        print(f"max clique   : size {len(clique)}  {clique}")
    else:
        print(f"aggregate    : {result.aggregate}")
    _emit_outputs(result.outputs, args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
