"""One measured process of the benchmark, spawned by run.py.

Modes (each prints JSON lines on stdout):

``env``
    the environment record: CPU count, python, numpy, and which
    matching and property kernel ``auto`` resolves to.  Loading the
    kernels compiles them into the cache on the first run.
``generate``
    compile one generation workload, print ``READY`` (the parent times
    spawn -> READY as set-up), run it like ``scenario run``, and print
    the run's wall time, CPU, peak RSS, row count, export digest and,
    with ``--trace``, the per-layer spans.
``replay``
    rebuild the served graph in-process and replay a request list
    against :class:`repro.serve.VirtualGraph`, timing each call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time

from layers import Tracer, percentile
from workloads import GENERATION, SERVE


def _emit(obj):
    print(json.dumps(obj), flush=True)


def _cpu_and_rss():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    # ru_maxrss is in KiB on Linux.
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def tree_files(root):
    """Sorted ``(relative path, absolute path)`` of every file."""
    found = []
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            found.append((os.path.relpath(path, root), path))
    return sorted(found)


def tree_digest(root):
    """-> (sha256 over names and bytes of every file, total bytes)."""
    digest = hashlib.sha256()
    total = 0
    for rel, path in tree_files(root):
        digest.update(rel.encode() + b"\0")
        with open(path, "rb") as handle:
            while True:
                block = handle.read(1 << 20)
                if not block:
                    break
                total += len(block)
                digest.update(block)
        digest.update(b"\0")
    return digest.hexdigest(), total


def tree_bytes(root):
    return sum(os.path.getsize(path) for _, path in tree_files(root))


def cmd_env(args):
    import numpy

    from repro.core.matching.kernel import resolve_impl as match_impl
    from repro.properties._ckernel import resolve_impl as property_impl

    _emit({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "match_kernel": match_impl("auto"),
        "property_kernel": property_impl(),
    })


def layer_metrics(tracer, wall):
    """Per-layer numbers of one traced scenario run."""
    seconds = tracer.seconds
    structure_perm = tracer.nested_seconds(
        "prng.permutation", {"structure"})
    match_perm = tracer.nested_seconds(
        "prng.permutation", {"matching.prepare", "matching.match"})
    export_s = seconds("io.export")
    out = {
        "properties.node_s": seconds("properties.node"),
        "properties.edge_s": seconds("properties.edge"),
        "structure.s": seconds("structure"),
        "structure.self_s": seconds("structure") - structure_perm,
        "prng.permutation_s": seconds("prng.permutation"),
        "matching.prepare_s": seconds("matching.prepare"),
        "matching.match_s": seconds("matching.match"),
        "matching.self_s": seconds("matching.prepare")
        + seconds("matching.match") - match_perm,
        "io.export_s": export_s,
        "report.audit_s": seconds("report.audit"),
        "procpool.wait_s": seconds("procpool.wait"),
        "checkpoint.save_s": seconds("checkpoint.save"),
        "trace.coverage": tracer.top_level_seconds() / wall,
    }
    out.update(tracer.counts)
    return out


def cmd_generate(args):
    workload = GENERATION[args.workload]
    audit = workload["audit"] and not args.export_only
    sharded = workload["sharded"]
    tracer = Tracer().install() if args.trace else None
    from repro.scenarios import compile_scenario, load_zoo, run_scenario

    start = time.perf_counter()
    compiled = compile_scenario(
        load_zoo(workload["recipe"]), scale=workload["scale"],
        seed=args.seed,
    )
    compile_s = time.perf_counter() - start
    print("READY", flush=True)
    if args.setup_only:
        return

    cpu0, _ = _cpu_and_rss()
    started_at = time.monotonic()
    start = time.perf_counter()
    graph, report, _ = run_scenario(
        compiled, out_dir=args.out, validate=audit, **(sharded or {})
    )
    wall = time.perf_counter() - start
    cpu1, peak_rss_mb = _cpu_and_rss()
    if tracer is not None:
        tracer.uninstall()

    rows = sum(graph.node_counts.values()) + sum(
        len(table) for table in graph.edge_tables.values()
    )
    spool_bytes = 0
    if sharded:
        spool_bytes = tree_bytes(graph.spool.directory)
        graph.cleanup()
    digest, export_bytes = tree_digest(args.out)
    result = {
        "started_at": started_at,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "rows": rows,
        "digest": digest,
        "grade": report.overall_grade if report is not None else None,
        "passed": report.passed if report is not None else True,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, wall)
        layers.update({
            "scenarios.compile_s": compile_s,
            "io.export_bytes": export_bytes,
            "spool.bytes": spool_bytes,
        })
        result["layers"] = layers
    _emit(result)


def cmd_replay(args):
    """Time the VirtualGraph call behind each replayed request."""
    import numpy as np

    with open(args.requests, encoding="utf-8") as handle:
        requests = json.load(handle)
    tracer = Tracer().install()
    from repro.scenarios import compile_scenario, load_zoo
    from repro.serve import VirtualGraph

    start = time.perf_counter()
    compiled = compile_scenario(
        load_zoo(SERVE["recipe"]), scale=SERVE["scale"], seed=args.seed
    )
    compile_s = time.perf_counter() - start
    start = time.perf_counter()
    graph = VirtualGraph.from_scenario(compiled)
    construct_s = time.perf_counter() - start
    try:
        start = time.perf_counter()
        graph.warm()
        warm_s = time.perf_counter() - start
        tracer.uninstall()
        limit = SERVE["limit"]
        calls = {
            "neighbors": lambda arg: graph.neighbors_of(
                "knows", arg, "both")[:limit],
            "node": lambda arg: graph.node_records(
                "Person", np.array([arg], dtype=np.int64)),
            "properties": lambda arg: graph.node_properties_of(
                "Message", "text",
                np.arange(arg, arg + limit, dtype=np.int64)),
            "edges": lambda arg: graph.edges_range(
                "knows", arg, arg + limit),
            "nodes": lambda arg: graph.node_records(
                "Person", np.arange(arg, arg + limit, dtype=np.int64)),
        }
        compute = {route: [] for route in calls}
        loop_start = time.perf_counter()
        for route, arg in requests:
            t0 = time.perf_counter()
            calls[route](arg)
            compute[route].append((time.perf_counter() - t0) * 1000.0)
        loop_s = time.perf_counter() - loop_start
    finally:
        graph.close()
    layers = {
        "scenarios.compile_s": compile_s,
        "serve.virtual.construct_s": construct_s,
        "serve.virtual.warm_s": warm_s,
        "prng.permutation_s": tracer.seconds("prng.permutation"),
        "trace.coverage": sum(map(sum, compute.values())) / 1000.0
        / loop_s,
    }
    layers.update(tracer.counts)
    for route, samples in compute.items():
        layers[f"serve.virtual.compute_ms.{route}.p50"] = percentile(
            samples, 50)
        layers[f"serve.virtual.compute_ms.{route}.p99"] = percentile(
            samples, 99)
    _emit({"layers": layers})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("env")
    gen = sub.add_parser("generate")
    gen.add_argument("--workload", required=True, choices=list(GENERATION))
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out")
    gen.add_argument("--trace", action="store_true")
    gen.add_argument("--setup-only", action="store_true",
                     help="exit once the scenario is compiled")
    gen.add_argument("--export-only", action="store_true",
                     help="skip the graded audit")
    rep = sub.add_parser("replay")
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--requests", required=True)
    args = parser.parse_args(argv)
    {"env": cmd_env, "generate": cmd_generate,
     "replay": cmd_replay}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
