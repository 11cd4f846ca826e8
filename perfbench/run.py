"""The LYCOS pipeline benchmark: Table 1 passes and the exploration service.

Run from the repository root:

    python3 perfbench/run.py --workload table1_cold --seed 1 --seconds 20 \
        --trace 0

Workloads (README.md says why each exists and what it loads):

* ``table1_cold``    one ``table1_rows()`` pass, no store, fresh interpreter;
* ``table1_warm``    the same pass against a store a set-up pass filled;
* ``service_local``  closed-loop TCP + HTTP clients against
                     ``python -m repro serve`` with one local engine;
* ``service_joined`` the same clients against a pure coordinator with one
                     ``serve --join`` worker.

Passes repeat while the next one still fits in ``--seconds`` (at least
one).  Every timing is in reference seconds, host-normalised by
``hostclock.py``.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` adds one traced pass and prints the per-layer metrics.
Every pass is checked for correctness.  The last stdout line is the
result object; the line before it is the detailed report (provenance,
samples, deterministic counters).
"""

import argparse
import functools
import itertools
import json
import os
import platform
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

from tracer import LAYERS, Tracer, coverage, merge_layers  # noqa: E402

#: One service pass: 200 closed-loop jobs of 8 points keep ten job
#: latencies beyond p95.
JOBS_PER_PASS = 200
POINTS_PER_JOB = 8
#: The service grid: 4 apps x 20 area fractions x 4 policies x 2 quanta.
AREA_FRACTIONS = tuple(step / 20 for step in range(1, 21))
POLICIES = (None, "fastest", "cheapest", "balanced")
QUANTA = (80, 150)
#: Upper bound on any one child process or service pass, in seconds.
CHILD_TIMEOUT = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
}

COUNTERS = {
    "engine.cache.hit_rate": "ratio",
    "engine.cache.compile.misses": "count",
    "engine.cache.alloc.misses": "count",
    "engine.cache.eval.misses": "count",
    "engine.cache.partition.misses": "count",
    "engine.cache.table.misses": "count",
    "engine.cache.cost.misses": "count",
    "core.exhaustive.evaluations": "count",
    "core.exhaustive.bound_evaluations": "count",
    "frontend.compiles": "count",
    "engine.store.bytes_written": "bytes",
    "store_bytes": "bytes",
    "service.delta.raw_bytes": "bytes",
    "service.delta.compressed_bytes": "bytes",
    "service.engine.utilization": "ratio",
    "client.first_result_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "counters.mismatched": "count",
}

#: Layers wrapped in the benchmark process itself during service passes.
CLIENT_LAYERS = ("client.tcp.submit", "client.tcp.collect",
                 "client.http.submit", "client.http.collect",
                 "io.serialize.decode", "service.protocol.encode")


class BenchError(Exception):
    """A pass could not run; the benchmark exits without a result."""


# ----------------------------------------------------------------------
# Processes and files
# ----------------------------------------------------------------------
class Bench:
    """One run: its scratch directory and every process it starts."""

    def __init__(self, root, seed, seconds):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.work = os.path.join(root, ".perfbench_work",
                                 "run-%d" % os.getpid())
        os.makedirs(self.work)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.processes = []
        self._names = itertools.count()

    def path(self, stem):
        return os.path.join(self.work, "%s-%d" % (stem, next(self._names)))

    def repeat(self, one_pass):
        """Run passes while the next one, costed like the last, still
        fits in ``--seconds``; at least one.  A pass costs its measured
        reference seconds, so the count does not follow the host's
        load."""
        passes = []
        spent = 0.0
        while True:
            passes.append(one_pass())
            cost = passes[-1]["reference_s"]
            spent += cost
            if spent + cost > self.seconds:
                return passes

    def spawn(self, argv, stem):
        log_path = self.path(stem) + ".log"
        with open(log_path, "wb") as log:
            process = subprocess.Popen([sys.executable] + argv,
                                       cwd=self.root, env=self.env,
                                       stdout=log, stderr=subprocess.STDOUT)
        process.log_path = log_path
        self.processes.append(process)
        return process

    def reap(self, process, timeout=CHILD_TIMEOUT):
        """Wait for ``process``; its peak RSS in MB.  Raises on failure."""
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                process.kill()
                pid, status, usage = os.wait4(process.pid, 0)
                process.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError("%s timed out after %.0f s"
                                 % (process.args, timeout))
            time.sleep(0.005)
        process.returncode = os.waitstatus_to_exitcode(status)
        if process.returncode != 0:
            with open(process.log_path, "rb") as log:
                tail = log.read()[-2000:].decode("utf-8", "replace")
            raise BenchError("%s exited %d:\n%s"
                             % (process.args, process.returncode, tail))
        return usage.ru_maxrss / 1024.0

    def close(self):
        for process in self.processes:
            if process.returncode is None and process.poll() is None:
                process.kill()
                process.wait()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run's directory is still there


def _tree_files(root):
    """``{path: (size, mtime_ns, inode)}`` of every file under root."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            info = os.stat(path)
            files[path] = (info.st_size, info.st_mtime_ns, info.st_ino)
    return files


def _bytes_written(before, after):
    """Size of the files a pass created or replaced."""
    return sum(size for path, (size, mtime, inode) in after.items()
               if before.get(path) != (size, mtime, inode))


def _read(path):
    with open(path) as handle:
        return handle.read()


def _load_json(path):
    return json.loads(_read(path))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _job_percentiles(passes_ms):
    """``job_p50_ms`` and ``job_p95_ms``: medians over the passes of
    each pass's own percentile of its job latencies."""
    return {"job_p%d_ms" % percent: statistics.median(
        statistics.quantiles(ms, n=100, method="inclusive")[percent - 1]
        for ms in passes_ms) for percent in (50, 95)}


def _mismatched(counter_sets):
    """Names of counters that differ between passes of one run."""
    return sorted(name for name in set().union(*counter_sets)
                  if len({repr(counters.get(name))
                          for counters in counter_sets}) > 1)


def _per_layer(traced, passes, stats, hit_rate, counters):
    """Every per-layer metric of a traced pass; absent layers read 0.

    ``stats`` and ``hit_rate`` are the cache accounting of the process
    that ran the pipeline; ``counters`` the workload's own counters.
    """
    metrics = {name: 0 for name in COUNTERS}
    for name in LAYERS:
        calls, self_s, _ = traced["layers"].get(name, (0, 0.0, 0.0))
        metrics[name + ".calls"] = calls
        metrics[name + ".self_s"] = self_s
    metrics["engine.cache.hit_rate"] = hit_rate
    for stage in ("compile", "alloc", "eval", "partition", "table", "cost"):
        metrics["engine.cache.%s.misses" % stage] = \
            stats.get(stage, (0, 0))[1]
    metrics.update({
        "frontend.compiles": traced["compiles"],
        "engine.store.bytes_written": traced["bytes_written"],
        "store_bytes": traced["store_bytes"],
        "trace.coverage": traced["coverage"],
        "trace.overhead": traced["wall_s"] / statistics.median(
            document["wall_s"] for document in passes),
    })
    metrics.update(counters)
    return metrics


# ----------------------------------------------------------------------
# Table 1 workloads
# ----------------------------------------------------------------------
def _table1_pass(bench, cache_dir=None, traced=False):
    out = bench.path("table1") + ".json"
    argv = [CHILD, "table1", "--out", out]
    if cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    if traced:
        argv.append("--trace")
    spawned = time.monotonic()
    process = bench.spawn(argv, "table1")
    rss_mb = bench.reap(process)
    document = _load_json(out)
    document["spawned_at"] = spawned
    document["rss_mb"] = rss_mb
    return document


def _import_reference_s(spawned_at, imported_at, scale):
    """Interpreter start plus import, in reference seconds: scaled by
    the host's speed measured right after it (``hostclock.py``)."""
    return (imported_at - spawned_at) * scale


def _import_seconds(bench):
    spawned = time.monotonic()
    process = bench.spawn([CHILD, "imports"], "imports")
    bench.reap(process)
    with open(process.log_path) as log:
        stamps = json.loads(log.read().splitlines()[-1])
    return _import_reference_s(spawned, stamps["imported_at"],
                               stamps["scale"])


def _table1_counters(document):
    counters = {"compiles": document["compiles"],
                "store.bytes_written": document["bytes_written"]}
    for row in document["rows"]:
        counters["evaluations." + row["name"]] = row["evaluations"]
        counters["bound_evaluations." + row["name"]] = \
            row["bound_evaluations"]
    for stage, (_, misses) in document["stats"].items():
        counters["misses." + stage] = misses
    return counters


def _without_cpu_seconds(rows):
    return [{key: value for key, value in row.items()
             if key != "cpu_seconds"} for row in rows]


def _table1_workload(bench, trace, warm):
    store = bench.path("store") if warm else None
    setups = []
    failures = []
    attempted = failed = 0
    reference_rows = None

    def check(document):
        """Count the pass's rows and failed rows; warm rows must equal
        the set-up pass's rows apart from cpu_seconds."""
        nonlocal attempted, failed
        attempted += len(document["rows"])
        problems = {name: list(found)
                    for name, found in document["problems"].items()}
        if reference_rows is not None:
            for row, expected in zip(_without_cpu_seconds(document["rows"]),
                                     reference_rows):
                if row != expected:
                    problems[row["name"]].append("differs from the "
                                                 "set-up pass")
        for name, found in problems.items():
            failures.extend("%s: %s" % (name, problem) for problem in found)
            failed += bool(found)

    if warm:
        # Set-up: the cold-with-store pass that fills the store.
        populate = _table1_pass(bench, cache_dir=store)
        setups.append(_import_reference_s(populate["spawned_at"],
                                          populate["imported_at"],
                                          populate["import_scale"]) +
                      populate["reference_s"])
        check(populate)
        reference_rows = _without_cpu_seconds(populate["rows"])
    else:
        setups.extend(_import_seconds(bench) for _ in range(2))

    def one_pass(traced=False):
        before = _tree_files(store) if warm else {}
        document = _table1_pass(bench, cache_dir=store, traced=traced)
        after = _tree_files(store) if warm else {}
        document["bytes_written"] = _bytes_written(before, after)
        document["store_bytes"] = sum(size for size, _, _ in after.values())
        if not warm and not traced:
            setups.append(_import_reference_s(document["spawned_at"],
                                              document["imported_at"],
                                              document["import_scale"]))
        check(document)
        return document

    passes = bench.repeat(one_pass)
    traced = one_pass(traced=True) if trace else None

    everything = passes + ([traced] if traced else [])
    result = {
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "counters": [_table1_counters(document) for document in everything],
        # Every timing in reference seconds (hostclock.py): the raw ones
        # drift with the shared host's load by more than their bounds.
        "end_to_end": dict(_job_percentiles(
            [[seconds * 1e3 for seconds in document["row_reference_s"]]
             for document in passes]),
            wall_s=statistics.median(d["reference_s"] for d in passes),
            setup_s=statistics.median(setups),
            peak_rss_mb=statistics.median(d["rss_mb"] for d in passes),
            points_per_s=statistics.median(
                sum(row["evaluations"] for row in d["rows"]) /
                d["reference_s"] for d in passes)),
        "samples": {"passes": len(passes), "setup_s": len(setups),
                    "jobs_per_pass": len(passes[0]["rows"]),
                    "kernel_samples": [d["kernel_samples"] for d in passes],
                    "pass_wall_s": [d["wall_s"] for d in passes],
                    "pass_reference_s": [d["reference_s"] for d in passes]},
    }
    if traced is not None:
        result["per_layer"] = _per_layer(
            traced, passes, traced["stats"], traced["hit_rate"], {
                "core.exhaustive.evaluations": sum(
                    row["evaluations"] for row in traced["rows"]),
                "core.exhaustive.bound_evaluations": sum(
                    row["bound_evaluations"] for row in traced["rows"]),
            })
    return result


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------
def service_jobs(seed, index):
    """Pass ``index``'s jobs: uniform draws from the 640-point grid."""
    from repro.apps.registry import application_names, application_spec
    from repro.engine.design_point import DesignPoint

    grid = [DesignPoint(app=app,
                        area=fraction * application_spec(app).total_area,
                        policy=policy, quanta=quanta)
            for app in application_names()
            for fraction in AREA_FRACTIONS
            for policy in POLICIES
            for quanta in QUANTA]
    rng = random.Random("%d/%d" % (seed, index))
    draws = [rng.choice(grid) for _ in range(JOBS_PER_PASS * POINTS_PER_JOB)]
    return [draws[start:start + POINTS_PER_JOB]
            for start in range(0, len(draws), POINTS_PER_JOB)]


def _free_ports(count):
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def _wait_for(condition, what, timeout=60.0):
    from repro.errors import ReproError

    deadline = time.monotonic() + timeout
    while True:
        try:
            if condition():
                return
        except (OSError, ReproError):
            pass  # not listening yet
        if time.monotonic() > deadline:
            raise BenchError("timed out waiting for %s" % what)
        time.sleep(0.01)


def _client_loop(client, via, jobs, barrier, out, tracer):
    barrier.wait()
    for points in jobs:
        if tracer is not None:
            tracer.watch_first()
        start = time.perf_counter()
        try:
            results = client.collect(client.submit(points))
            error = None
        except Exception as exc:  # a failed job is counted, not fatal
            results, error = None, "%s: %s" % (type(exc).__name__, exc)
        end = time.perf_counter()
        first = None if tracer is None else tracer.first_mark()
        out.append({"via": via, "points": points, "results": results,
                    "error": error, "ms": (end - start) * 1e3,
                    "first_ms": None if first is None
                    else (first - start) * 1e3})


def _service_pass(bench, jobs, joined, tracer=None):
    from repro.service.client import ServiceClient
    from repro.service.http_client import HttpServiceClient

    traced = tracer is not None
    store = bench.path("store")
    tcp_port, http_port = _free_ports(2)
    trace_outs = []

    def launch(mode, argv, traced_argv):
        """``python -m repro serve ...``, or its traced stand-in."""
        if not traced:
            return bench.spawn(["-m", "repro", "serve"] + argv, mode)
        trace_out = bench.path(mode) + ".json"
        trace_outs.append(trace_out)
        return bench.spawn([CHILD, mode, "--trace-out", trace_out] +
                           traced_argv, mode)

    serve_argv = ["--cache-dir", store, "--port", str(tcp_port),
                  "--http", str(http_port)]
    if joined:
        serve_argv += ["--local-engines", "0"]
    worker_store = bench.path("worker")
    tcp = ServiceClient(port=tcp_port, timeout=60.0, retry_seed=bench.seed)
    http = HttpServiceClient("http://127.0.0.1:%d" % http_port,
                             timeout=60.0, retry_seed=bench.seed)
    sampler = None
    if not traced:
        sampler_out = bench.path("sampler") + ".json"
        sampler = bench.spawn([CHILD, "sampler", "--out", sampler_out],
                              "sampler")
        _wait_for(lambda: _read(sampler.log_path).startswith("ready"),
                  "the host-speed sampler")
    launched = time.monotonic()
    coordinator = launch("serve", serve_argv, serve_argv)
    _wait_for(lambda: tcp.ping() and http.ping(), "the service")
    worker = None
    if joined:
        # A worker without --cache-dir would make its scratch store
        # outside the checkout; an empty one inside is equivalent.
        worker = launch("join",
                        ["--join", "127.0.0.1:%d" % tcp_port,
                         "--cache-dir", worker_store],
                        ["--cache-dir", worker_store,
                         "--port", str(tcp_port)])
        _wait_for(lambda: any(engine["kind"] == "remote" and engine["alive"]
                              for engine in tcp.ping()["engines"]),
                  "the joined worker")
    setup_s = time.monotonic() - launched

    outcomes = []
    barrier = threading.Barrier(3)
    threads = [threading.Thread(target=_client_loop,
                                args=(client, via, jobs[offset::2], barrier,
                                      outcomes, tracer), daemon=True)
               for offset, (client, via) in enumerate(((tcp, "tcp"),
                                                       (http, "http")))]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join(CHILD_TIMEOUT)
    end = time.perf_counter()
    if any(thread.is_alive() for thread in threads):
        raise BenchError("service clients did not finish")
    spans = tracer.snapshot(with_top=True) if traced else None
    scale = reference_s = None
    if sampler is not None:
        sampler.terminate()
        bench.reap(sampler)
        scale = statistics.mean(speed for _, speed
                                in _load_json(sampler_out))
        reference_s = (end - start) * scale

    ping = tcp.ping()
    tcp.shutdown()
    rss_mb = bench.reap(coordinator)
    if worker is not None:
        rss_mb += bench.reap(worker)
    engines = ping["engines"]
    counters = {"program_compiles": ping["program_compiles"]}
    for field in ("done", "hits", "misses", "delta_entries"):
        counters[field] = sum(engine[field] for engine in engines)
    files = _tree_files(store)
    document = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "scale": scale,
        "reference_s": reference_s,
        "rss_mb": rss_mb,
        "outcomes": outcomes,
        "counters": counters,
        # Not gated: which entries share a delta frame follows the
        # interleaving of the two clients' jobs, so the pickled and
        # compressed sizes move by about a percent from pass to pass.
        "delta_bytes": [sum(engine[field] for engine in engines)
                        for field in ("delta_raw_bytes",
                                      "delta_compressed_bytes")],
        "store_bytes": sum(size for size, _, _ in files.values()),
        "bytes_written": _bytes_written({}, files),
    }
    if traced:
        processes = [_load_json(path) for path in trace_outs]
        document["layers"] = merge_layers([spans] + processes)
        document["coverage"] = coverage(spans["top"], start, end)
        document["server"] = processes[0]
        document["compiles"] = sum(p["compiles"] for p in processes)
    return document


def _result_key(result):
    from repro.io.serialize import point_result_to_dict

    return json.dumps(point_result_to_dict(result), sort_keys=True)


def _check_service(passes):
    """Failed checks and failed jobs, against in-process references."""
    from repro.engine.session import Session

    reference_session = Session()
    references = {}
    for document in passes:
        for outcome in document["outcomes"]:
            for point in outcome["points"]:
                if point not in references:
                    references[point] = \
                        reference_session.evaluate_point(point)
    failures = []
    failed = 0
    for document in passes:
        tcp_keys = {}
        for outcome in sorted(document["outcomes"],
                              key=lambda outcome: outcome["via"] != "tcp"):
            problems = []
            if outcome["error"] is not None:
                problems.append(outcome["error"])
            else:
                for point, result in zip(outcome["points"],
                                         outcome["results"]):
                    expected = references[point]
                    if result is None or result.error is not None or \
                            result.point != point or \
                            result.allocation != expected.allocation or \
                            result.speedup != expected.speedup or \
                            tuple(result.hw_names) != \
                            tuple(expected.hw_names):
                        problems.append("%r differs from the in-process "
                                        "reference" % (point,))
                        continue
                    key = _result_key(result)
                    if outcome["via"] == "tcp":
                        tcp_keys.setdefault(point, key)
                    elif tcp_keys.get(point, key) != key:
                        problems.append("%r differs between TCP and HTTP"
                                        % (point,))
            failures.extend(problems)
            failed += bool(problems)
    return failures, failed


def _service_workload(bench, trace, joined):
    # Each pass draws its own jobs: the median job sits where the
    # latency distribution is steep, so it follows the share of jobs
    # with first-time points, and a run averages that over its passes.
    draws = itertools.count()
    passes = bench.repeat(lambda: _service_pass(
        bench, service_jobs(bench.seed, next(draws)), joined))
    traced = None
    if trace:
        tracer = Tracer()
        tracer.install(CLIENT_LAYERS)
        # The first pass's draws again, so its counters must repeat.
        traced = _service_pass(bench, service_jobs(bench.seed, 0), joined,
                               tracer=tracer)
    everything = passes + ([traced] if traced else [])
    failures, failed = _check_service(everything)
    points = JOBS_PER_PASS * POINTS_PER_JOB
    result = {
        "failures": failures,
        "attempted": JOBS_PER_PASS * len(everything),
        "failed": failed,
        "counters": [passes[0]["counters"]] +
                    ([traced["counters"]] if traced else []),
        # Timings in reference seconds: each pass's scaled by the host's
        # mean speed while it ran (hostclock.py).
        "end_to_end": dict(_job_percentiles(
            [[outcome["ms"] * document["scale"]
              for outcome in document["outcomes"]]
             for document in passes]),
            wall_s=statistics.median(d["reference_s"] for d in passes),
            setup_s=statistics.median(d["setup_s"] * d["scale"]
                                      for d in passes),
            peak_rss_mb=statistics.median(d["rss_mb"] for d in passes),
            points_per_s=statistics.median(points / d["reference_s"]
                                           for d in passes)),
        "samples": {"passes": len(passes), "setup_s": len(passes),
                    "jobs_per_pass": JOBS_PER_PASS,
                    "pass_wall_s": [d["wall_s"] for d in passes],
                    "pass_scale": [d["scale"] for d in passes]},
        # Draws that name a point for the first time in their pass; the
        # rest are answered from the service's cache.
        "first_time_share": statistics.mean(
            len({point for outcome in document["outcomes"]
                 for point in outcome["points"]}) / points
            for document in passes),
    }
    if traced is not None:
        evaluate_s = traced["layers"].get("service.evaluate",
                                          (0, 0.0, 0.0))[2]
        first = [outcome["first_ms"] for outcome in traced["outcomes"]
                 if outcome["first_ms"] is not None]
        server = traced["server"]
        result["per_layer"] = _per_layer(
            traced, passes, server["stats"], server["hit_rate"], {
                "service.delta.raw_bytes": traced["delta_bytes"][0],
                "service.delta.compressed_bytes": traced["delta_bytes"][1],
                "service.engine.utilization": evaluate_s / traced["wall_s"],
                "client.first_result_ms": statistics.median(first)
                if first else 0.0,
            })
    return result


WORKLOADS = {
    "table1_cold": functools.partial(_table1_workload, warm=False),
    "table1_warm": functools.partial(_table1_workload, warm=True),
    "service_local": functools.partial(_service_workload, joined=False),
    "service_joined": functools.partial(_service_workload, joined=True),
}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _provenance(root, seed):
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                   capture_output=True, text=True,
                                   timeout=30)
        sha = completed.stdout.strip() or None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "numpy": numpy_version,
            "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    source = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print("perfbench: %s has no src/repro; run from the repository "
              "root" % root, file=sys.stderr)
        return 2
    sys.path.insert(0, source)

    # Stopped from outside, the run still stops its children (finally).
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(root, args.seed, args.seconds)
    try:
        outcome = WORKLOADS[args.workload](bench, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        bench.close()

    mismatched = _mismatched(outcome["counters"])
    for name in mismatched:
        print("perfbench: counter %s differs between passes: %s"
              % (name, [counters.get(name)
                        for counters in outcome["counters"]]),
              file=sys.stderr)
    for failure in outcome["failures"][:20]:
        print("perfbench: check failed: %s" % failure, file=sys.stderr)
    if args.trace:
        values = dict(outcome["per_layer"],
                      **{"counters.mismatched": len(mismatched)})
        units = dict({name + ".calls": "count" for name in LAYERS},
                     **{name + ".self_s": "s" for name in LAYERS},
                     **COUNTERS)
    else:
        values, units = outcome["end_to_end"], END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    report = {
        "workload": args.workload,
        "provenance": _provenance(root, args.seed),
        "samples": outcome["samples"],
        "first_time_share": outcome.get("first_time_share"),
        "counters": outcome["counters"][0],
        "counters_mismatched": mismatched,
        "failures": outcome["failures"][:20],
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not outcome["failures"],
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
