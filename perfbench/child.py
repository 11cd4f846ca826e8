"""Processes the benchmark starts: table1 passes and service launchers.

    python perfbench/child.py imports
    python perfbench/child.py table1 --out OUT [--cache-dir DIR] [--trace]
    python perfbench/child.py serve --trace-out OUT --cache-dir DIR \
        --port P --http H [--local-engines N]
    python perfbench/child.py join --trace-out OUT --cache-dir DIR --port P

``imports`` and ``table1`` print or write ``time.monotonic()`` stamps,
which share one clock with the parent on Linux, so the parent can
time interpreter start plus import, and the host's speed right after
it; an untraced ``table1`` pass also reports its reference seconds
(``hostclock.py``).  ``serve`` and ``join`` are the
traced stand-ins for ``python -m repro serve [--join]``: they install
the layer wrappers, call the same public entry points, and write the
spans (plus the session's cache accounting) when the service stops.
The parent sets ``PYTHONPATH`` to the checkout's ``src``.
"""

import argparse
import dataclasses
import inspect
import json
import signal
import sys
import time

from tracer import Tracer, coverage


def _imports(args):
    from repro.engine.session import Session  # noqa: F401
    from repro.report.experiments import table1_rows  # noqa: F401

    imported_at = time.monotonic()
    from hostclock import HostClock

    print(json.dumps({"imported_at": imported_at,
                      "scale": HostClock().scale()}))


def _row_document(row):
    """A Table1Row as JSON: allocations as unit-count mappings."""
    document = {}
    for field in dataclasses.fields(row):
        value = getattr(row, field.name)
        if field.name == "front":
            continue  # None under the default speedup objective
        if hasattr(value, "as_dict"):
            value = value.as_dict()
        document[field.name] = value
    return document


def _check_row(session, row, quanta, best_quanta):
    """Uncached re-evaluation of both allocations; the row's problems.

    ``su`` comes from ``quanta``; ``su_best`` from the exhaustive
    search (``best_quanta``) or from the design iteration (``quanta``)
    when the iteration won, so it must match one of the two.
    """
    from repro.apps.registry import application_spec
    from repro.partition.evaluate import evaluate_allocation
    from repro.partition.model import TargetArchitecture

    bsbs = session.program(row.name).bsbs
    architecture = TargetArchitecture(
        library=session.library,
        total_area=application_spec(row.name).total_area)

    def speedup(allocation, area_quanta):
        return evaluate_allocation(bsbs, allocation, architecture,
                                   area_quanta=area_quanta,
                                   cache=None).speedup

    problems = []
    su = speedup(row.allocation, quanta)
    if su != row.su:
        problems.append("su %r, uncached %r" % (row.su, su))
    best = {speedup(row.best_allocation, q) for q in (best_quanta, quanta)}
    if row.su_best not in best:
        problems.append("su_best %r, uncached %r"
                        % (row.su_best, sorted(best)))
    if row.su_best < row.su:
        problems.append("su_best %r < su %r" % (row.su_best, row.su))
    return problems


def _table1(args):
    from repro.cdfg.builder import frontend_compile_count
    from repro.engine.session import Session
    from repro.report import experiments

    imported_at = time.monotonic()
    from hostclock import HostClock

    # A traced pass is not timed end to end, and kernel samples would
    # land in whichever span they interrupt.
    clock = None if args.trace else HostClock()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    # Per-row spans for the job latency percentiles: table1_rows looks
    # table1_row up as a module global on every row.
    row_spans = []
    table1_row = experiments.table1_row

    def timed_row(*row_args, **row_kwargs):
        start = time.perf_counter()
        try:
            return table1_row(*row_args, **row_kwargs)
        finally:
            row_spans.append((start, time.perf_counter()))

    experiments.table1_row = timed_row
    compiles = frontend_compile_count()
    document = {"imported_at": imported_at}
    if clock is not None:
        document["import_scale"] = clock.scale()
        clock.start()
    start = time.perf_counter()
    session = Session(cache_dir=args.cache_dir)
    rows = experiments.table1_rows(session=session)
    end = time.perf_counter()
    document["finished_at"] = time.monotonic()
    if clock is None:
        document["wall_s"] = end - start
    else:
        clock.stop()
        document["wall_s"] = clock.seconds(start, end)
        document["reference_s"] = clock.reference_seconds(start, end)
        document["row_reference_s"] = [clock.reference_seconds(*span)
                                       for span in row_spans]
        document["kernel_samples"] = len(clock.samples)
    compiles = frontend_compile_count() - compiles
    experiments.table1_row = table1_row
    document.update({
        "rows": [_row_document(row) for row in rows],
        "stats": session.stats.snapshot(),
        "hit_rate": session.stats.overall_hit_rate(),
        "compiles": compiles,
    })
    if tracer is not None:
        spans = tracer.snapshot(with_top=True)
        document["layers"] = spans["layers"]
        document["coverage"] = coverage(spans["top"], start, end)
    defaults = inspect.signature(experiments.table1_row).parameters
    document["problems"] = {
        row.name: _check_row(session, row, defaults["area_quanta"].default,
                             defaults["best_area_quanta"].default)
        for row in rows}
    with open(args.out, "w") as handle:
        json.dump(document, handle)


def _sampler(args):
    """Host speed every ``SAMPLE_INTERVAL_S`` until SIGTERM, then
    ``[[perf_counter, speed], ...]`` to ``--out``."""
    from hostclock import SAMPLE_INTERVAL_S, cpu_speed

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    samples = []
    try:
        samples.append((time.perf_counter(), cpu_speed()))
        print("ready", flush=True)
        while True:
            time.sleep(SAMPLE_INTERVAL_S)
            samples.append((time.perf_counter(), cpu_speed()))
    finally:
        with open(args.out, "w") as handle:
            json.dump(samples, handle)


def _service_document(tracer, session):
    from repro.cdfg.builder import frontend_compile_count

    document = {"layers": tracer.snapshot()["layers"],
                "compiles": frontend_compile_count()}
    if session is not None:
        document["stats"] = session.stats.snapshot()
        document["hit_rate"] = session.stats.overall_hit_rate()
    return document


def _serve(args):
    from repro.service.server import serve

    tracer = Tracer()
    tracer.install()
    session = serve(cache_dir=args.cache_dir, port=args.port,
                    http_port=args.http, local_engines=args.local_engines)
    with open(args.trace_out, "w") as handle:
        json.dump(_service_document(tracer, session), handle)


def _join(args):
    from repro.service.worker import join_coordinator

    tracer = Tracer()
    tracer.install()
    join_coordinator("127.0.0.1", args.port, cache_dir=args.cache_dir)
    with open(args.trace_out, "w") as handle:
        json.dump(_service_document(tracer, None), handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    modes.add_parser("imports")
    modes.add_parser("sampler").add_argument("--out", required=True)
    table1 = modes.add_parser("table1")
    table1.add_argument("--out", required=True)
    table1.add_argument("--cache-dir", default=None)
    table1.add_argument("--trace", action="store_true")
    for name in ("serve", "join"):
        service = modes.add_parser(name)
        service.add_argument("--trace-out", required=True)
        service.add_argument("--cache-dir", required=True)
        service.add_argument("--port", type=int, required=True)
        if name == "serve":
            service.add_argument("--http", type=int, required=True)
            service.add_argument("--local-engines", type=int, default=1)
    args = parser.parse_args(argv)
    {"imports": _imports, "sampler": _sampler, "table1": _table1,
     "serve": _serve, "join": _join}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
