"""End-to-end and per-layer benchmark of the generator and its server.

Run from the repository root::

    python3 perfbench/run.py --workload social_inmem --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` wraps each layer's public entry points (see layers.py)
and prints the per-layer metrics instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The lines before it give the
environment, every metric with its unit, the error rate and the
correctness checks.  Workloads and the layer -> end-to-end predictions
are described in README.md beside this file.

Every measured process is a fresh child: generation iterations run
``worker.py generate``, the serving workload runs ``repro serve`` and
drives it over keep-alive HTTP/1.1.  Children write only below
``.perfbench_work/`` in the checkout (``TMPDIR`` points there) and the
compiled C kernels are cached in ``.perfbench_build/``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from layers import percentile
from speed import HostSpeed, ProbeError
from workloads import (
    GENERATION,
    SERVE,
    WORKLOADS,
    request_path,
    request_stream,
    scale_args,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: hard wall-clock budget of one benchmark run (the contract is 180 s).
RUN_BUDGET_S = 170.0
#: set-up samples per run: generation probes beyond the iterations'
#: own READY times, and server starts for the serving workload.
SETUP_PROBES = 3
SERVE_STARTS = 2
#: responses re-requested after the serving window to check bytes.
REPLAY_SAMPLE = 16

END_TO_END_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}

SERVE_ROUTES = list(SERVE["mix"])

PER_LAYER_UNITS = {
    "scenarios.compile_s": "s",
    "properties.node_s": "s",
    "properties.edge_s": "s",
    "properties.rows": "count",
    "structure.s": "s",
    "structure.self_s": "s",
    "structure.edges": "count",
    "structure.pair_stubs_calls": "count",
    "prng.permutation_calls": "count",
    "prng.permutation_elems": "count",
    "prng.permutation_s": "s",
    "matching.prepare_s": "s",
    "matching.match_s": "s",
    "matching.self_s": "s",
    "io.export_s": "s",
    "io.export_bytes": "bytes",
    "io.export_mb_per_s": "MB/s",
    "report.audit_s": "s",
    "procpool.shards": "count",
    "procpool.wait_s": "s",
    "procpool.retries": "count",
    "checkpoint.saves": "count",
    "checkpoint.save_s": "s",
    "spool.bytes": "bytes",
    "serve.virtual.construct_s": "s",
    "serve.virtual.warm_s": "s",
    **{f"serve.virtual.compute_ms.{route}.{q}": "ms"
       for route in SERVE_ROUTES for q in ("p50", "p99")},
    **{f"serve.http.overhead_ms.{route}.{q}": "ms"
       for route in SERVE_ROUTES for q in ("p50", "p99")},
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

#: per-layer counts that must repeat exactly across traced runs at one
#: seed, so later changes can cite them as counts.
EXACT_COUNTS = [
    "prng.permutation_calls",
    "prng.permutation_elems",
    "structure.pair_stubs_calls",
    "structure.edges",
    "properties.rows",
    "procpool.shards",
    "procpool.retries",
    "checkpoint.saves",
    "io.export_bytes",
    "spool.bytes",
]


def source_hash():
    """SHA-256 over the names and bytes of the program's source tree."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class BenchError(RuntimeError):
    """A measured process failed; the run has no result to print."""


def git_sha():
    """HEAD's commit from ``.git`` in the checkout, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    """One benchmark run: its children, checks and error accounting."""

    def __init__(self, seed, seconds):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "TMPDIR": str(self.work),
            "REPRO_CKERNEL_CACHE": str(ROOT / ".perfbench_build" / "ckernel"),
        })
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self._outputs = 0
        self.speed = HostSpeed(self.work / "speed.txt", ROOT)

    def close(self):
        self.speed.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    def check(self, ok, what):
        """Count one correctness check; a violation is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    # -- worker children ---------------------------------------------------

    def worker(self, *args):
        """Run ``worker.py`` to completion.

        -> (``time.monotonic`` at spawn, seconds from spawn to its
        ``READY`` line or None, the JSON lines it printed).  A child
        that fails counts as a failed operation and aborts the run.
        """
        self.attempted += 1
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
            text=True, cwd=ROOT, env=self.env,
        )
        watchdog = threading.Timer(self.remaining(), proc.kill)
        watchdog.start()
        ready_s, lines = None, []
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready_s = time.monotonic() - start
                elif line.strip():
                    lines.append(json.loads(line))
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0:
            self.failed += 1
            raise BenchError(f"worker {args[0]} exited with code {code}")
        return start, ready_s, lines

    def scaled(self, start, seconds):
        """``seconds`` measured from ``start`` in reference seconds."""
        return seconds * self.speed.factor(start, start + seconds)

    def environment(self):
        _, _, lines = self.worker("env")
        env = lines[-1]
        env["git_sha"] = git_sha()
        return env

    def generation_run(self, workload, trace=False, export_only=False,
                       setup_only=False):
        args = ["generate", "--workload", workload,
                "--seed", str(self.seed)]
        out = None
        if setup_only:
            args.append("--setup-only")
        else:
            self._outputs += 1
            out = self.work / f"export-{self._outputs}"
            args += ["--out", str(out)]
        if trace:
            args.append("--trace")
        if export_only:
            args.append("--export-only")
        try:
            spawned, ready_s, lines = self.worker(*args)
        finally:
            if out is not None:
                shutil.rmtree(out, ignore_errors=True)
        result = lines[-1] if lines else {}
        result["setup_s"] = self.scaled(spawned, ready_s)
        if "wall_s" in result:
            result["speed"] = self.speed.factor(
                result["started_at"],
                result["started_at"] + result["wall_s"])
        return result

    def reference_digest(self, workload, own=None):
        """The export digest of the in-memory ``workload`` at this seed
        and source tree.

        Cached in ``.perfbench_build/reference/``: a run of ``workload``
        records the digest of its own runs (``own``), and a run of a
        workload that must equal it reads the record, or computes it
        with one untimed, audit-free run when there is none.
        """
        path = (ROOT / ".perfbench_build" / "reference"
                / f"{workload}-{self.seed}-{source_hash()}")
        if path.exists():
            return path.read_text().strip()
        if own is not None and len(own) == 1:
            digest = next(iter(own))
        else:
            digest = self.generation_run(
                workload, export_only=True)["digest"]
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(digest + "\n")
        os.replace(tmp, path)
        return digest

    # -- generation workloads ------------------------------------------------

    def generation(self, workload, trace):
        """Repeat the scenario run for ``seconds`` (at least
        ``min_runs`` times).

        Untraced: set-up is the median spawn -> READY time of the probes
        and iterations.  Traced: iterations alternate traced/untraced,
        traced first and last, so the tracing overhead is measured in
        the same run.  Times are in reference seconds (speed.py).
        """
        spec = GENERATION[workload]
        setup, runs = [], []
        if not trace:
            for _ in range(SETUP_PROBES):
                setup.append(
                    self.generation_run(workload, setup_only=True)
                    ["setup_s"])
        start = time.monotonic()
        traced = trace
        while (len(runs) < spec["min_runs"]
               or time.monotonic() - start < self.seconds
               or (trace and not runs[-1]["traced"])):
            result = self.generation_run(workload, trace=traced)
            result["traced"] = traced
            runs.append(result)
            setup.append(result["setup_s"])
            traced = trace and not traced

        for run in runs:
            run["wall_ref_s"] = run["wall_s"] * run["speed"]
        self.notes.append("run walls (s, x host speed factor): " + ", ".join(
            f"{run['wall_s']:.2f}{'T' if run['traced'] else ''}"
            f" x{run['speed']:.3f}" for run in runs))
        digests = {run["digest"] for run in runs}
        self.check(len(digests) == 1,
                   f"{workload}: export digest differs across runs at "
                   f"seed {self.seed}")
        if spec["audit"]:
            grades = {run["grade"] for run in runs}
            self.check(
                len(grades) == 1 and all(run["passed"] for run in runs),
                f"{workload}: audit grades {sorted(grades)}")
            self.notes.append(f"audit grade {runs[0]['grade']}")
        reference = spec.get("reference", workload)
        cached = self.reference_digest(
            reference, digests if reference == workload else None)
        self.check(cached in digests,
                   f"{workload}: export differs from {reference}'s "
                   f"at seed {self.seed}")
        if trace:
            return self._generation_layers(runs)
        return self._generation_end_to_end(runs, setup)

    def _generation_end_to_end(self, runs, setup):
        walls = [run["wall_ref_s"] for run in runs]
        return {
            "setup_s": statistics.median(setup),
            "rows_per_s": statistics.median(
                run["rows"] / run["wall_ref_s"] for run in runs),
            "cpu_s": statistics.median(
                run["cpu_s"] * run["speed"] for run in runs),
            "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
            "req_per_s": len(runs) / sum(walls),
            "latency_p50_ms": statistics.median(walls) * 1000.0,
            "latency_p99_ms": percentile(walls, 99) * 1000.0,
        }

    def _generation_layers(self, runs):
        traced = [run for run in runs if run["traced"]]
        plain = [run for run in runs if not run["traced"]]
        layers = [run["layers"] for run in traced]
        for run, layer in zip(traced, layers):
            for name, unit in PER_LAYER_UNITS.items():
                if unit == "s" and name in layer:
                    layer[name] *= run["speed"]
        for name in EXACT_COUNTS:
            values = {layer.get(name, 0) for layer in layers}
            self.check(len(values) == 1,
                       f"count {name} differs across traced runs: "
                       f"{sorted(values)}")
        metrics = {}
        for name in PER_LAYER_UNITS:
            values = [layer.get(name, 0) for layer in layers]
            metrics[name] = (values[0] if name in EXACT_COUNTS
                             else statistics.median(values))
        metrics["io.export_mb_per_s"] = statistics.median(
            layer["io.export_bytes"] / 1e6 / layer["io.export_s"]
            for layer in layers)
        metrics["trace.overhead_s"] = (
            statistics.median(run["wall_ref_s"] for run in traced)
            - statistics.median(run["wall_ref_s"] for run in plain))
        return metrics

    # -- serving workload ----------------------------------------------------

    def start_server(self):
        """Spawn ``repro serve``; -> (process, host, port, seconds from
        spawn to the first ``/readyz`` 200 in reference seconds)."""
        self.attempted += 1
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", SERVE["recipe"],
             *scale_args(SERVE["scale"]), "--seed", str(self.seed),
             "--port", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=self.env,
        )
        watchdog = threading.Timer(self.remaining(), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://([^:/]+):(\d+)/", line)
            if match is None:
                raise BenchError(f"server did not start: {line!r}")
            host, port = match.group(1), int(match.group(2))
            while True:
                self.remaining()
                if proc.poll() is not None:
                    raise BenchError("server exited while warming")
                conn = http.client.HTTPConnection(host, port, timeout=10)
                try:
                    conn.request("GET", "/readyz")
                    response = conn.getresponse()
                    response.read()
                finally:
                    conn.close()
                if response.status == 200:
                    break
                time.sleep(0.01)
            ready_s = self.scaled(start, time.monotonic() - start)
        except BaseException:
            self.failed += 1
            self.stop_server(proc)
            raise
        finally:
            watchdog.cancel()
        return proc, host, port, ready_s

    def stop_server(self, proc):
        """SIGTERM (graceful drain), reap; -> the server's peak RSS MB."""
        if proc.poll() is not None:
            return 0.0
        proc.send_signal(signal.SIGTERM)
        limit = time.monotonic() + 10.0
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > limit:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        return usage.ru_maxrss / 1024.0

    def serve(self, trace):
        setup = []
        if not trace:
            for _ in range(SERVE_STARTS - 1):
                proc, _, _, ready_s = self.start_server()
                setup.append(ready_s)
                self.stop_server(proc)
        proc, host, port, ready_s = self.start_server()
        setup.append(ready_s)
        try:
            meta = json.loads(_get(host, port, "/")[1])
            counts = {
                "persons": meta["classification"]["nodes"]["Person"]
                ["count"],
                "messages": meta["classification"]["nodes"]["Message"]
                ["count"],
                "knows": meta["classification"]["edges"]["knows"]["count"],
            }
            server_cpu0 = _process_cpu_s(proc.pid)
            window_start = time.monotonic()
            records, window_s = self._closed_loop(host, port, counts)
            server_cpu = _process_cpu_s(proc.pid) - server_cpu0
            window_speed = self.speed.factor(
                window_start, window_start + window_s)
            self._replay_check(host, port, records[0])
        finally:
            peak_rss_mb = self.stop_server(proc)
        flat = [r for conn in records for r in conn]
        ok = [r for r in flat if r["ok"]]
        self.attempted += len(flat)
        self.failed += len(flat) - len(ok)
        if len(flat) > len(ok):
            self.notes.append(
                f"{len(flat) - len(ok)} of {len(flat)} requests failed")
        if not ok:
            raise BenchError("no request succeeded")
        latencies = [r["latency_ms"] for r in ok]
        self.notes.append(f"{len(ok)} responses in {window_s:.2f} s "
                          f"over {SERVE['connections']} keep-alive "
                          f"connections")
        if trace:
            return self._serve_layers(ok)
        # Rates and latencies stay in measured seconds: the transport's
        # waits set them, not the host's CPU speed.
        return {
            "setup_s": statistics.median(setup),
            "rows_per_s": sum(r["rows"] for r in ok) / window_s,
            # Server CPU per 1000 responses, so a faster server does
            # not read as a costlier one.
            "cpu_s": server_cpu * window_speed * 1000.0 / len(ok),
            "peak_rss_mb": peak_rss_mb,
            "req_per_s": len(ok) / window_s,
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p99_ms": percentile(latencies, 99),
        }

    def _closed_loop(self, host, port, counts):
        """``connections`` clients, each sending its next request when
        the previous response is read, for ``seconds``."""
        deadline = time.perf_counter() + self.seconds
        records = [[] for _ in range(SERVE["connections"])]

        def client(index):
            stream = request_stream(self.seed, index, counts)
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                while time.perf_counter() < deadline:
                    route, arg = next(stream)
                    records[index].append(
                        _timed_request(conn, route, arg))
                    if not records[index][-1]["ok"]:
                        conn.close()
                        conn = http.client.HTTPConnection(
                            host, port, timeout=30)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(index,),
                                    daemon=True)
                   for index in range(SERVE["connections"])]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(self.remaining())
            if thread.is_alive():
                raise BenchError("serving client did not finish")
        return records, time.perf_counter() - start

    def _replay_check(self, host, port, records):
        """Re-request the first responses; bodies must be identical."""
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            for record in [r for r in records if r["ok"]][:REPLAY_SAMPLE]:
                again = _timed_request(conn, record["route"],
                                       record["arg"])
                self.check(
                    again["ok"] and again["sha1"] == record["sha1"],
                    f"replayed {request_path(record['route'], record['arg'])}"
                    " differs")
        finally:
            conn.close()

    def _serve_layers(self, ok):
        requests = self.work / "requests.json"
        requests.write_text(json.dumps([[r["route"], r["arg"]]
                                        for r in ok]))
        _, _, lines = self.worker("replay", "--seed", str(self.seed),
                               "--requests", str(requests))
        layers = lines[-1]["layers"]
        metrics = {name: layers.get(name, 0) for name in PER_LAYER_UNITS}
        for route in SERVE_ROUTES:
            client = [r["latency_ms"] for r in ok if r["route"] == route]
            for q, p in (("p50", 50), ("p99", 99)):
                metrics[f"serve.http.overhead_ms.{route}.{q}"] = (
                    percentile(client, p)
                    - layers[f"serve.virtual.compute_ms.{route}.{q}"])
        # The server runs unwrapped in both modes; tracing only adds
        # the offline replay, so it costs the measured path nothing.
        metrics["trace.overhead_s"] = 0.0
        return metrics


def _get(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _timed_request(conn, route, arg):
    """One request on a keep-alive connection, timed from send until
    the body is read.  OK means a 200 with a non-empty body."""
    start = time.perf_counter()
    try:
        conn.request("GET", request_path(route, arg))
        response = conn.getresponse()
        body = response.read()
    except (OSError, http.client.HTTPException):
        return {"route": route, "arg": arg, "ok": False}
    latency_ms = (time.perf_counter() - start) * 1000.0
    ok = response.status == 200 and len(body) > 0
    rows = body.count(b"\n") if ok else 0
    if ok and route == "neighbors":
        try:
            rows = len(json.loads(body)["neighbors"])
        except (ValueError, KeyError, TypeError):
            ok = False
    return {"route": route, "arg": arg, "ok": ok, "latency_ms": latency_ms,
            "rows": rows, "sha1": hashlib.sha1(body).hexdigest()}


def _process_cpu_s(pid):
    """utime + stime of another process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="DataSynth end-to-end / per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    bench = Bench(args.seed, args.seconds)
    try:
        env = bench.environment()
        print("env " + json.dumps(env, sort_keys=True))
        if args.workload in GENERATION:
            metrics = bench.generation(args.workload, bool(args.trace))
        else:
            metrics = bench.serve(bool(args.trace))
    except (BenchError, ProbeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for note in bench.notes:
        print(note)
    for name, unit in units.items():
        value = metrics[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{args.workload} {name} = {shown} {unit}")
    print(f"{args.workload} error_rate = "
          f"{bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed}/{bench.attempted})")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
