"""Command-line driver: regenerate the paper's tables and figures.

Usage (after ``pip install -e .``)::

    lycos-repro table1              # Table 1 (runs the exhaustive search)
    lycos-repro table1 --apps hal   # a subset of the benchmarks
    lycos-repro fig3 --app hal      # Figure 3's trade-off sweep
    lycos-repro s51 --app man       # section 5.1 controller optimism
    lycos-repro iterate --app eigen # the man/eigen design-iteration fix
    lycos-repro apps                # benchmark inventory
    lycos-repro allocate --app hal  # just run Algorithm 1, with trace
    lycos-repro sweep --apps hal man --fractions 0.5 1.0 --workers 4
                                    # engine-cached design-space sweep
    lycos-repro sweep --apps hal --cache-dir .lycos-cache
                                    # persistent store: reruns are warm
    lycos-repro cache info --cache-dir .lycos-cache
                                    # inspect / clear the store file
    lycos-repro cache compact --cache-dir .lycos-cache --max-bytes 2000000
                                    # LRU-evict down to a size budget
    lycos-repro serve --cache-dir .lycos-cache
                                    # exploration service over one store
    lycos-repro serve --host 0.0.0.0 --token-file /run/secret --scheduler fair \
                      --queue-cap 8192 --job-ttl 3600 --max-jobs 64
                                    # hardened multi-tenant service
    lycos-repro serve --join host:7421 --token-file /run/secret --slots 2
                                    # contribute this machine's CPU as a
                                    # remote engine of that coordinator
    lycos-repro submit --apps hal --fractions 0.5 1.0 --wait
                                    # queue a grid on the service
    lycos-repro status --job job-1  # poll a submitted job
    lycos-repro results --job job-1 # stream a job's results
    lycos-repro cancel --job job-1  # cancel its pending points
    lycos-repro report --apps hal --cache-dir .lycos-cache -o report.html
                                    # self-contained HTML sweep report
    lycos-repro export --what cdfg --cache-dir .lycos-cache
                                    # warm DOT export (0 compiles)
    lycos-repro status --http http://127.0.0.1:8421 --html dash.html
                                    # snapshot the live dashboard

or ``python -m repro <command>``.  Every command that runs the engine
accepts ``--cache-dir`` (table1, fig3, s51, iterate, allocate,
multiasic, sweep, serve): point them at one directory and they share a
persistent warm store — compiled programs included, so a second
process's ``table1``/``sweep`` performs zero frontend compiles
(``cache info`` lists the ``programs`` stage; the store-backed
commands print a ``frontend compiles`` line the CI asserts on).
"""

import argparse
import math
import sys

from repro.apps.registry import application_names, application_spec
from repro.core.allocator import allocate
from repro.core.exhaustive import SEARCH_MODES
from repro.core.objective import OBJECTIVE_NAMES
from repro.engine.design_point import MAX_QUANTA
from repro.hwlib.library import default_library
from repro.report.experiments import (
    design_iteration_report,
    fig3_sweep,
    render_fig3,
    render_s51,
    render_table1,
    s51_controller_rows,
    table1_rows,
)


def _add_app_argument(parser, default="hal"):
    parser.add_argument("--app", default=default,
                        choices=application_names(),
                        help="benchmark application (default: %(default)s)")


def _add_cache_dir_argument(parser):
    parser.add_argument("--cache-dir", default=None,
                        help="persistent engine store directory "
                             "(reruns replay cached stages from disk)")


def _add_service_address(parser):
    parser.add_argument("--host", default="127.0.0.1",
                        help="service address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=7421,
                        help="service port (default: %(default)s)")


def _add_token_arguments(parser):
    parser.add_argument("--token", default=None,
                        help="shared auth token (prefer --token-file: "
                             "argv is visible to other processes)")
    parser.add_argument("--token-file", default=None,
                        help="file holding the shared auth token "
                             "(stripped of surrounding whitespace)")


def _add_http_client_arguments(parser):
    parser.add_argument("--http", default=None, metavar="URL",
                        help="talk to the HTTP gateway at this URL "
                             "(e.g. http://127.0.0.1:8421) instead of "
                             "the TCP service; --host/--port/--token "
                             "are then ignored")
    parser.add_argument("--api-key", default=None,
                        help="API key for a keyed HTTP gateway "
                             "(prefer --api-key-file: argv is visible "
                             "to other processes)")
    parser.add_argument("--api-key-file", default=None,
                        help="file holding the gateway API key "
                             "(stripped of surrounding whitespace)")


def _resolve_secret(args, name):
    """The secret of --NAME / --NAME-file, or None.

    ``name`` is the option's name ("token" or "api-key").
    """
    attribute = name.replace("-", "_")
    value = getattr(args, attribute)
    path = getattr(args, attribute + "_file")
    if value is not None and path is not None:
        raise SystemExit("pass --%s or --%s-file, not both"
                         % (name, name))
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                secret = handle.read().strip()
        except OSError as exc:
            raise SystemExit("cannot read --%s-file: %s" % (name, exc))
        if not secret:
            raise SystemExit("--%s-file %s is empty" % (name, path))
        return secret
    if value is not None and not value:
        raise SystemExit("--%s must not be empty" % name)
    return value


def _session(args):
    """A session honouring the command's ``--cache-dir``."""
    from repro.engine.session import Session

    return Session(cache_dir=args.cache_dir)


def _grid_points(apps, fractions, policies, quanta):
    """The DesignPoint grid the sweep/submit commands share."""
    from repro.engine import DesignPoint

    points = []
    for app in (apps or application_names()):
        spec = application_spec(app)
        for fraction in fractions:
            for policy in policies:
                points.append(DesignPoint(
                    app=app,
                    area=fraction * spec.total_area,
                    policy=None if policy == "none" else policy,
                    quanta=quanta))
    return points


def _check_grid_args(args):
    if not 1 <= args.quanta <= MAX_QUANTA:
        raise SystemExit("--quanta must be in 1..%d" % MAX_QUANTA)
    if not args.fractions:
        raise SystemExit("--fractions needs at least one value")
    if not all(0 < fraction < math.inf for fraction in args.fractions):
        raise SystemExit("--fractions must be positive and finite")
    if not args.policies:
        raise SystemExit("--policies needs at least one value")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lycos-repro",
        description="Reproduction of the LYCOS hardware resource "
                    "allocation system (DATE 1998).")
    commands = parser.add_subparsers(dest="command", required=True)

    table1 = commands.add_parser(
        "table1", help="regenerate Table 1 (allocation quality)")
    table1.add_argument("--apps", nargs="*", default=None,
                        choices=application_names(),
                        help="subset of benchmarks (default: all four)")
    table1.add_argument("--budget", type=int, default=None,
                        help="override the exhaustive-search budget")
    table1.add_argument("--cache-dir", default=None,
                        help="persistent engine store directory "
                             "(reruns replay cached stages from disk)")
    table1.add_argument("--search", choices=SEARCH_MODES, default="brute",
                        help="exhaustive-search mode: brute enumerates "
                             "every candidate, pruned walks the same "
                             "space branch-and-bound (identical winner)")
    table1.add_argument("--objective", choices=OBJECTIVE_NAMES,
                        default="speedup",
                        help="ranking tournament for the exhaustive "
                             "best: speedup (the paper's contract), "
                             "area, energy, or pareto (default plus "
                             "the non-dominated front) "
                             "(default: %(default)s)")

    fig3 = commands.add_parser(
        "fig3", help="regenerate Figure 3's data-path budget sweep")
    _add_app_argument(fig3)
    _add_cache_dir_argument(fig3)

    s51 = commands.add_parser(
        "s51", help="section 5.1: controller-estimate optimism")
    _add_app_argument(s51, default="man")
    _add_cache_dir_argument(s51)

    iterate = commands.add_parser(
        "iterate", help="the reduce-only design iteration (man/eigen fix)")
    _add_app_argument(iterate, default="man")
    _add_cache_dir_argument(iterate)

    commands.add_parser("apps", help="list the benchmark applications")

    alloc = commands.add_parser(
        "allocate", help="run Algorithm 1 on one benchmark, with trace")
    _add_app_argument(alloc)
    alloc.add_argument("--area", type=float, default=None,
                       help="override the ASIC area (gate equivalents)")
    _add_cache_dir_argument(alloc)

    multi = commands.add_parser(
        "multiasic", help="multi-ASIC co-design (future-work extension)")
    _add_app_argument(multi, default="eigen")
    multi.add_argument("--chips", type=int, default=2,
                       help="number of ASICs to split the area across")
    _add_cache_dir_argument(multi)

    overheads = commands.add_parser(
        "overheads",
        help="interconnect/storage charging (future-work extension)")
    _add_app_argument(overheads, default="man")

    export = commands.add_parser(
        "export", help="export Graphviz DOT for a benchmark")
    _add_app_argument(export)
    export.add_argument("--what", default="bsb",
                        choices=["dfg", "cdfg", "bsb"],
                        help="graph to export (dfg = hottest BSB's DFG)")
    _add_cache_dir_argument(export)

    sweep = commands.add_parser(
        "sweep", help="design-space sweep through the cached "
                      "exploration engine")
    sweep.add_argument("--apps", nargs="*", default=None,
                       choices=application_names(),
                       help="benchmarks to sweep (default: all four)")
    sweep.add_argument("--fractions", nargs="*", type=float,
                       default=[0.5, 0.75, 1.0],
                       help="ASIC areas as fractions of each app's "
                            "Table 1 area (default: %(default)s)")
    sweep.add_argument("--policies", nargs="*", default=["none"],
                       choices=["none", "fastest", "cheapest", "balanced"],
                       help="module-selection policies; 'none' is the "
                            "paper's designated-unit Algorithm 1")
    sweep.add_argument("--quanta", type=int, default=150,
                       help="PACE area resolution (default: %(default)s)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default: serial)")
    sweep.add_argument("--cache-dir", default=None,
                       help="persistent engine store directory shared "
                            "by all workers; a second run replays the "
                            "pipeline stages from disk")
    sweep.add_argument("--objective", choices=OBJECTIVE_NAMES,
                       default="speedup",
                       help="ranking of the swept points: speedup "
                            "(default, the historical best line), "
                            "area, energy, or pareto (adds the "
                            "non-dominated front and its hypervolume)")

    report = commands.add_parser(
        "report", help="render a design-space sweep into one "
                       "self-contained static HTML report")
    report.add_argument("--apps", nargs="*", default=None,
                        choices=application_names(),
                        help="benchmarks to sweep (default: all four)")
    report.add_argument("--fractions", nargs="*", type=float,
                        default=[0.5, 0.75, 1.0],
                        help="ASIC areas as fractions of each app's "
                             "Table 1 area (default: %(default)s)")
    report.add_argument("--policies", nargs="*", default=["none"],
                        choices=["none", "fastest", "cheapest",
                                 "balanced"],
                        help="module-selection policies; 'none' is the "
                             "paper's designated-unit Algorithm 1")
    report.add_argument("--quanta", type=int, default=150,
                        help="PACE area resolution (default: "
                             "%(default)s)")
    report.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: serial)")
    report.add_argument("--cache-dir", default=None,
                        help="persistent engine store directory; the "
                             "report's analytics replay against it and "
                             "cold/warm runs render identical bytes")
    report.add_argument("-o", "--output", default="report.html",
                        help="HTML file to write (default: "
                             "%(default)s)")
    report.add_argument("--title", default="LYCOS design-space report",
                        help="report headline (default: %(default)s)")

    cache = commands.add_parser(
        "cache", help="inspect, compact or clear a persistent engine "
                      "store")
    cache.add_argument("action", choices=["info", "compact", "clear"],
                       help="info: per-stage entry counts and sizes; "
                            "compact: LRU-evict to a size/age budget; "
                            "clear: delete the store file")
    cache.add_argument("--cache-dir", required=True,
                       help="store directory to operate on")
    cache.add_argument("--max-bytes", type=int, default=None,
                       help="compact: evict least-recently-used "
                            "entries until the store fits this many "
                            "bytes")
    cache.add_argument("--max-age", type=float, default=None,
                       metavar="SECONDS",
                       help="compact: evict entries not used for this "
                            "many seconds")

    serve = commands.add_parser(
        "serve", help="run the exploration service: concurrent clients "
                      "submit design points against one shared store")
    _add_cache_dir_argument(serve)
    _add_service_address(serve)
    serve.add_argument("--flush-interval", type=float, default=2.0,
                       help="seconds between store flushes while busy "
                            "(default: %(default)s)")
    serve.add_argument("--scheduler", default="fifo",
                       choices=["fifo", "sjf", "fair"],
                       help="queue policy: fifo (submission order), "
                            "sjf (smallest job first), fair "
                            "(per-client weighted round-robin) "
                            "(default: %(default)s)")
    serve.add_argument("--queue-cap", type=int, default=None,
                       help="max admitted-but-unfinished points; an "
                            "over-cap submit is rejected with a "
                            "retry-after hint (default: unbounded)")
    serve.add_argument("--job-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="drop finished jobs (and their results) "
                            "this long after completion (default: "
                            "keep forever)")
    serve.add_argument("--max-jobs", type=int, default=None,
                       help="retain at most this many finished jobs, "
                            "oldest evicted first (default: "
                            "unbounded)")
    serve.add_argument("--local-engines", type=int, default=1,
                       help="local engines of the coordinator; 0 makes "
                            "a pure coordinator that only schedules "
                            "for joined workers (default: %(default)s)")
    serve.add_argument("--steal-delay", type=float, default=0.25,
                       metavar="SECONDS",
                       help="how long a placed point must wait before "
                            "an idle engine may steal it off its "
                            "affine engine's lane (default: "
                            "%(default)s)")
    serve.add_argument("--engine-timeout", type=float, default=60.0,
                       metavar="SECONDS",
                       help="seconds of silence before a joined engine "
                            "is declared dead and its points re-queued "
                            "(default: %(default)s)")
    serve.add_argument("--join", default=None, metavar="HOST:PORT",
                       help="worker mode: instead of serving clients, "
                            "join the coordinator at this address as a "
                            "remote engine (lease points, evaluate "
                            "locally, ship results and store deltas "
                            "home)")
    serve.add_argument("--label", default=None,
                       help="worker mode: suggested engine name (the "
                            "coordinator uniquifies it)")
    serve.add_argument("--slots", type=int, default=1,
                       help="worker mode: points leased at once "
                            "(default: %(default)s)")
    serve.add_argument("--http", type=int, default=None,
                       metavar="PORT",
                       help="also mount the REST/JSON gateway on this "
                            "port (same host): POST/GET /v1/jobs with "
                            "strong-ETag conditional caching")
    serve.add_argument("--api-keys-file", default=None, metavar="PATH",
                       help="JSON file mapping API key -> client id "
                            "(or {client, weight, quota}); arms "
                            "gateway auth, fair-scheduler identity "
                            "and per-key in-flight quotas (required "
                            "for --http beyond loopback)")
    _add_token_arguments(serve)

    submit = commands.add_parser(
        "submit", help="submit a design-point grid to a running "
                       "service")
    submit.add_argument("--apps", nargs="*", default=None,
                        choices=application_names(),
                        help="benchmarks to submit (default: all four)")
    submit.add_argument("--fractions", nargs="*", type=float,
                        default=[0.5, 0.75, 1.0],
                        help="ASIC areas as fractions of each app's "
                             "Table 1 area (default: %(default)s)")
    submit.add_argument("--policies", nargs="*", default=["none"],
                        choices=["none", "fastest", "cheapest",
                                 "balanced"],
                        help="module-selection policies; 'none' is the "
                             "paper's designated-unit Algorithm 1")
    submit.add_argument("--quanta", type=int, default=150,
                        help="PACE area resolution (default: "
                             "%(default)s)")
    submit.add_argument("--wait", action="store_true",
                        help="stream the results instead of returning "
                             "after the job id")
    submit.add_argument("--weight", type=int, default=None,
                        help="fair-scheduler share of this client "
                             "(default: not sent, so the service's 1, "
                             "or a gateway API key's own weight)")
    submit.add_argument("--objective", choices=OBJECTIVE_NAMES,
                        default="speedup",
                        help="objective recorded on the job (travels "
                             "with it, shown by status; per-point "
                             "evaluation is objective-independent) "
                             "(default: %(default)s)")
    _add_service_address(submit)
    _add_token_arguments(submit)
    _add_http_client_arguments(submit)

    status = commands.add_parser(
        "status", help="poll a service job (or the service itself)")
    status.add_argument("--job", default=None,
                        help="job id; omitted, pings the service and "
                             "lists every job")
    status.add_argument("--html", default=None, metavar="PATH",
                        help="fetch the gateway's HTML document "
                             "instead: the job report with --job, the "
                             "live dashboard without; requires --http")
    _add_service_address(status)
    _add_token_arguments(status)
    _add_http_client_arguments(status)

    results = commands.add_parser(
        "results", help="stream a service job's per-point results")
    results.add_argument("--job", required=True, help="job id")
    _add_service_address(results)
    _add_token_arguments(results)
    _add_http_client_arguments(results)

    cancel = commands.add_parser(
        "cancel", help="cancel a service job's pending points")
    cancel.add_argument("--job", required=True, help="job id")
    _add_service_address(cancel)
    _add_token_arguments(cancel)
    _add_http_client_arguments(cancel)
    return parser


def cmd_table1(args):
    if args.budget is not None and args.budget < 1:
        raise SystemExit("--budget must be >= 1")
    session = _session(args) if args.cache_dir is not None else None
    rows = table1_rows(names=args.apps, max_evaluations=args.budget,
                       session=session, search=args.search,
                       objective=args.objective)
    print(render_table1(rows))
    for row in rows:
        print()
        print("%s: allocation      %s" % (row.name, row.allocation))
        print("%s: best allocation %s" % (row.name, row.best_allocation))
    # Grouped after every allocation line so the CI brute-vs-pruned
    # check can byte-compare everything before the first stats line.
    print()
    for row in rows:
        print("%s: search stats    search=%s evaluations=%d space=%d "
              "subtrees_pruned=%d bound_evaluations=%d"
              % (row.name, row.search, row.evaluations, row.space,
                 row.subtrees_pruned, row.bound_evaluations))
    # Objective-specific reporting is strictly additive and gated on a
    # non-default objective, so the default (and --objective speedup)
    # output stays byte-identical to what it always was.
    if args.objective == "energy":
        print()
        for row in rows:
            print("%s: best energy     %.2f" % (row.name,
                                                row.best_energy))
    elif args.objective == "pareto":
        print()
        for row in rows:
            front = row.front
            if front is None:
                continue
            print("%s: pareto front    %d point(s), hypervolume %.3f"
                  % (row.name, len(front), front.hypervolume()))
            for (speedup, neg_area, neg_energy), _ in front.points():
                print("%s:   su %.1f%%  data-path %.0f  energy %.2f"
                      % (row.name, speedup, -neg_area, -neg_energy))
    if session is not None:
        # Store-backed runs report their cache economy (the CI warm
        # rerun, the program-store check and the compaction check all
        # parse these lines).
        stats = session.stats
        print()
        print("overall hit rate: %.1f%% (%d hits / %d lookups)"
              % (100.0 * stats.overall_hit_rate(), stats.hit_count(),
                 stats.hit_count() + stats.miss_count()))
        print("frontend compiles: %d (program store hits: %d)"
              % (stats.miss_count("compile"),
                 stats.hit_count("compile")))


def cmd_fig3(args):
    session = _session(args)
    points = fig3_sweep(name=args.app, session=session)
    session.save_store()
    print(render_fig3(points, name=args.app))


def cmd_s51(args):
    session = _session(args)
    rows = s51_controller_rows(args.app, session=session)
    session.save_store()
    print(render_s51(rows, args.app))
    optimistic = sum(1 for row in rows if row["ratio"] > 1.0)
    print("\n%d of %d BSBs have an actual controller larger than the "
          "optimistic ECA." % (optimistic, len(rows)))


def cmd_iterate(args):
    session = _session(args)
    report = design_iteration_report(args.app, session=session)
    session.save_store()
    print("Design iteration on %s" % report["name"])
    print("  initial allocation: %s" % report["initial_allocation"])
    print("  initial speed-up:   %.0f%%" % report["initial_speedup"])
    for step in report["steps"]:
        print("  step: %s" % step)
    print("  final allocation:   %s" % report["final_allocation"])
    print("  final speed-up:     %.0f%%" % report["final_speedup"])


def cmd_apps(args):
    from repro.apps.registry import load_application

    for name in application_names():
        spec = application_spec(name)
        program = load_application(name)
        ops = sum(len(bsb.dfg) for bsb in program.bsbs)
        print("%-9s %4d lines  %3d BSBs  %5d operations  "
              "ASIC area %.0f  (paper: SU %.0f%%/%.0f%%)"
              % (name, program.source_lines(), len(program.bsbs), ops,
                 spec.total_area, spec.paper_su, spec.paper_su_best))


def cmd_allocate(args):
    # Routed through a session for the store: warm sub-stage memos
    # (restrictions, FURO, ECA) replay from --cache-dir, while the
    # trace-carrying top-level run itself stays live.
    session = _session(args)
    library = session.library
    spec = application_spec(args.app)
    area = args.area if args.area is not None else spec.total_area
    program = session.program(args.app)
    result = allocate(program.bsbs, library, area=area, keep_trace=True,
                      cache=session.cache)
    session.save_store()
    print("Algorithm 1 on %s (area %.0f):" % (args.app, area))
    for line in result.trace_lines():
        print("  " + line)
    print("allocation:      %s" % result.allocation)
    print("pseudo partition: %d of %d BSBs in hardware"
          % (len(result.hw_bsb_names), len(program.bsbs)))
    print("area: datapath %.0f + controllers %.0f, remaining %.0f"
          % (result.datapath_area, result.controller_area,
             result.remaining_area))
    print("runtime: %.3f s" % result.runtime_seconds)


def cmd_multiasic(args):
    from repro.partition.multi_asic import multi_asic_codesign

    session = _session(args)
    library = session.library
    spec = application_spec(args.app)
    if args.chips < 1:
        raise SystemExit("--chips must be >= 1")
    program = session.program(args.app)
    areas = [spec.total_area / args.chips] * args.chips
    result = multi_asic_codesign(program.bsbs, library, areas,
                                 session=session)
    session.save_store()
    print("%s across %d ASIC(s) of %.0f GE each:"
          % (args.app, args.chips, areas[0]))
    for plan in result.asics:
        print("  ASIC %d: %d BSBs, data-path %.0f GE, saving %.0f "
              "cycles" % (plan.index + 1, len(plan.hw_names),
                          plan.datapath_area, plan.saving))
        print("          %s" % plan.allocation)
    print("total speed-up: %.0f%%" % result.speedup)


def cmd_overheads(args):
    from repro.apps.registry import load_application
    from repro.core.iteration import design_iteration
    from repro.hwlib.overheads import OverheadModel
    from repro.partition.evaluate import evaluate_allocation
    from repro.partition.model import TargetArchitecture

    library = default_library()
    spec = application_spec(args.app)
    program = load_application(args.app)
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)
    allocation = allocate(program.bsbs, library,
                          area=spec.total_area).allocation
    model = OverheadModel()
    plain = evaluate_allocation(program.bsbs, allocation, architecture)
    charged = evaluate_allocation(program.bsbs, allocation, architecture,
                                  overhead_model=model)
    print("%s allocation: %s" % (args.app, allocation))
    print("SU ignoring interconnect/storage: %.0f%%" % plain.speedup)
    print("SU charging %.0f GE of overheads:  %.0f%%"
          % (charged.overhead_area, charged.speedup))
    iterated = design_iteration(program.bsbs, allocation, architecture,
                                overhead_model=model)
    print("overhead-aware design iteration -> %.0f%%:"
          % iterated.final_evaluation.speedup)
    for step in iterated.steps:
        print("  %s" % step)


def cmd_sweep(args):
    from repro.report.tables import render_table

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    _check_grid_args(args)
    session = _session(args)
    points = _grid_points(args.apps, args.fractions, args.policies,
                          args.quanta)
    results = session.explore(points, workers=args.workers)

    headers = ["App", "Area", "Policy", "Data-path", "HW BSBs", "Speed-up"]
    rows = [[result.point.app,
             "%.0f" % result.point.area,
             result.point.policy or "designated",
             "%.0f" % result.datapath_area,
             len(result.hw_names),
             "%.0f%%" % result.speedup] for result in results]
    print(render_table(headers, rows,
                       title="Design-space sweep (%d points, %d worker%s)"
                             % (len(points), args.workers,
                                "" if args.workers == 1 else "s")))
    best = max(results, key=lambda result: result.speedup)
    print("\nbest point: %s area %.0f policy %s -> SU %.0f%%"
          % (best.point.app, best.point.area,
             best.point.policy or "designated", best.speedup))
    _sweep_objective_report(args, results)
    # Worker accounting is merged into the parent session, so the
    # summary is real for parallel sweeps too.
    print("\nengine cache:")
    print(session.stats.summary())
    stats = session.stats
    print("overall hit rate: %.1f%% (%d hits / %d lookups)"
          % (100.0 * stats.overall_hit_rate(), stats.hit_count(),
             stats.hit_count() + stats.miss_count()))
    print("frontend compiles: %d (program store hits: %d)"
          % (stats.miss_count("compile"), stats.hit_count("compile")))


def _sweep_objective_report(args, results):
    """Extra sweep reporting for a non-default ``--objective``.

    Additive and gated, so the default sweep output is byte-identical
    to the historical one.  Points rank on the result's own metrics
    (speed-up, data-path area, modelled energy); failed points carry
    zeros and never win a minimising objective, so they are excluded.
    """
    from repro.report.tables import render_table

    if args.objective == "speedup":
        return
    ranked = [result for result in results if result.error is None]
    if not ranked:
        print("\nobjective %s: no successful points" % args.objective)
        return
    if args.objective == "pareto":
        from repro.core.objective import get_objective

        front = get_objective("pareto").new_front()
        for result in ranked:
            front.add((result.speedup, -result.datapath_area,
                       -result.energy), result)
        headers = ["App", "Area", "Policy", "Speed-up", "Data-path",
                   "Energy"]
        rows = [[payload.point.app,
                 "%.0f" % payload.point.area,
                 payload.point.policy or "designated",
                 "%.0f%%" % speedup,
                 "%.0f" % -neg_area,
                 "%.2f" % -neg_energy]
                for (speedup, neg_area, neg_energy), payload
                in front.points()]
        print()
        print(render_table(headers, rows,
                           title="Pareto front (speed-up, -area, "
                                 "-energy): %d of %d points"
                                 % (len(front), len(ranked))))
        print("hypervolume: %.3f" % front.hypervolume())
        return
    if args.objective == "area":
        def rank(result):
            return (-result.datapath_area, result.speedup)
    else:  # energy
        def rank(result):
            return (-result.energy, result.speedup,
                    -result.datapath_area)
    best = max(ranked, key=rank)
    print("best by %s: %s area %.0f policy %s -> SU %.0f%% "
          "data-path %.0f energy %.2f"
          % (args.objective, best.point.app, best.point.area,
             best.point.policy or "designated", best.speedup,
             best.datapath_area, best.energy))


def cmd_cache(args):
    import os

    from repro.engine.store import CacheStore

    if args.action == "compact":
        if args.max_bytes is None and args.max_age is None:
            raise SystemExit("compact needs --max-bytes and/or "
                             "--max-age")
        if args.max_bytes is not None and args.max_bytes < 0:
            raise SystemExit("--max-bytes must be >= 0")
        if args.max_age is not None and args.max_age < 0:
            raise SystemExit("--max-age must be >= 0")
    store = CacheStore(args.cache_dir)
    if not os.path.isdir(store.root):
        # Never create the directory from an inspection command — a
        # typo'd path should stay visible, not become an empty store.
        print("no store directory at %s" % store.root)
        return
    if args.action == "clear":
        removed = store.clear()
        print("cleared %d entries from %s" % (removed, store.root))
        return
    if args.action == "compact":
        report = store.compact(max_bytes=args.max_bytes,
                               max_age_seconds=args.max_age)
        for stage in sorted(report["stages"]):
            kept, dropped = report["stages"][stage]
            print("%-12s kept %6d  dropped %6d" % (stage, kept,
                                                   dropped))
        print("compacted %s: %d kept, %d dropped, %d -> %d bytes"
              % (store.root, report["kept"], report["dropped"],
                 report["bytes_before"], report["bytes_after"]))
        return
    report = store.info()
    if not report:
        print("empty store at %s" % store.root)
        return
    total_entries = 0
    total_bytes = 0
    for stage in sorted(report):
        entries, size = report[stage]
        total_entries += entries
        total_bytes += size
        print("%-12s %7d entries  %9d bytes" % (stage, entries, size))
    print("%-12s %7d entries  %9d bytes" % ("total", total_entries,
                                            total_bytes))
    # Fabric observability: per-engine compression economy of absorbed
    # store deltas.  Only printed for a store a coordinator absorbed
    # remote deltas into, so a purely local store's info output is
    # unchanged.
    deltas = store.delta_stats()
    if deltas:
        print()
        print("absorbed store deltas (wire compression):")
        for engine, stats in deltas.items():
            raw = stats["raw_bytes"]
            compressed = stats["compressed_bytes"]
            saved = (100.0 * (1.0 - compressed / raw)) if raw else 0.0
            print("%-12s %5d frame(s)  %9d -> %9d bytes (%.1f%% saved)"
                  % (engine, stats["frames"], raw, compressed, saved))
    # Only printed for stores that were ever compacted, so an untouched
    # store's info output is unchanged.
    history = store.compaction_history()
    if history:
        print()
        print("compaction history (%d most recent):" % len(history))
        for event in history:
            print("  %6d kept  %6d dropped  %9d -> %9d bytes"
                  % (event.get("kept", 0), event.get("dropped", 0),
                     event.get("bytes_before", 0),
                     event.get("bytes_after", 0)))


def cmd_serve(args):
    from repro.service.server import LOOPBACK_HOSTS, serve

    if args.flush_interval < 0:
        raise SystemExit("--flush-interval must be >= 0")
    if args.queue_cap is not None and args.queue_cap < 1:
        raise SystemExit("--queue-cap must be >= 1")
    if args.job_ttl is not None and args.job_ttl < 0:
        raise SystemExit("--job-ttl must be >= 0")
    if args.max_jobs is not None and args.max_jobs < 0:
        raise SystemExit("--max-jobs must be >= 0")
    if args.local_engines < 0:
        raise SystemExit("--local-engines must be >= 0")
    if args.steal_delay < 0:
        raise SystemExit("--steal-delay must be >= 0")
    if args.engine_timeout <= 0:
        raise SystemExit("--engine-timeout must be > 0")
    if args.slots < 1:
        raise SystemExit("--slots must be >= 1")
    if args.http is not None and not 0 < args.http < 65536:
        raise SystemExit("--http must be a port number (1-65535)")
    api_keys = None
    if args.api_keys_file is not None:
        if args.http is None:
            raise SystemExit("--api-keys-file only makes sense with "
                             "--http")
        from repro.errors import ReproError
        from repro.service.http import load_api_keys

        try:
            api_keys = load_api_keys(args.api_keys_file)
        except ReproError as exc:
            raise SystemExit(str(exc))
    token = _resolve_secret(args, "token")
    if args.join is not None:
        return _cmd_serve_join(args, token)
    if token is None and args.host not in LOOPBACK_HOSTS:
        raise SystemExit("refusing to bind %s without --token/"
                         "--token-file; an open service beyond "
                         "loopback hands the store to the network"
                         % args.host)
    if args.http is not None and api_keys is None \
            and args.host not in LOOPBACK_HOSTS:
        raise SystemExit("refusing to mount the HTTP gateway on %s "
                         "without --api-keys-file; an open gateway "
                         "beyond loopback hands the queue to the "
                         "network" % args.host)
    serve(cache_dir=args.cache_dir, host=args.host, port=args.port,
          flush_interval=args.flush_interval, token=token,
          scheduler=args.scheduler, queue_cap=args.queue_cap,
          job_ttl=args.job_ttl, max_jobs=args.max_jobs,
          local_engines=args.local_engines,
          steal_delay=args.steal_delay,
          engine_timeout=args.engine_timeout,
          http_port=args.http, api_keys=api_keys)


def _cmd_serve_join(args, token):
    """serve --join: run this process as one remote engine."""
    from repro.service.worker import join_coordinator

    host, _, port_text = args.join.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not host or not 0 < port < 65536:
        raise SystemExit("--join expects HOST:PORT, got %r" % args.join)
    evaluated = join_coordinator(host, port, token=token,
                                 label=args.label or "",
                                 slots=args.slots,
                                 cache_dir=args.cache_dir)
    print("worker done: %d point(s) evaluated" % evaluated)


def _print_point_line(index, result):
    if result is None:
        print("point %3d: cancelled" % index)
        return
    point = result.point
    # area=None means "the app's Table 1 spec area" — say so rather
    # than misreporting it as 0.
    area_text = ("default" if point.area is None
                 else "%.0f" % point.area)
    label = "%s area %s %s" % (point.app, area_text,
                               point.policy or "designated")
    if result.error is not None:
        print("point %3d: %s -> ERROR %s" % (index, label, result.error))
    else:
        print("point %3d: %s -> SU %.0f%% data-path %.0f"
              % (index, label, result.speedup, result.datapath_area))


def _print_job_status(status):
    print("job %s: %s  (%d done / %d total, %d errors, %d cancelled)"
          % (status["job"], status["state"], status["done"],
             status["total"], status["errors"], status["cancelled"]))
    # Non-default objectives are worth a line; the default stays
    # silent so historical status output is byte-identical.
    if status.get("objective", "speedup") != "speedup":
        print("objective: %s" % status["objective"])
    lookups = status["hits"] + status["misses"]
    print("hit rate: %.1f%% (%d hits / %d lookups)"
          % (100.0 * status["hit_rate"], status["hits"], lookups))
    if status.get("expires_in") is not None:
        print("retention: expires in %.1fs (completed-job GC)"
              % status["expires_in"])


def _service_client(args):
    if getattr(args, "http", None) is not None:
        from repro.service.http_client import HttpServiceClient

        return HttpServiceClient(url=args.http,
                                 api_key=_resolve_secret(args, "api-key"))
    from repro.service.client import ServiceClient

    return ServiceClient(host=args.host, port=args.port,
                         token=_resolve_secret(args, "token"))


def cmd_submit(args):
    _check_grid_args(args)
    if args.weight is not None and args.weight < 1:
        raise SystemExit("--weight must be >= 1")
    points = _grid_points(args.apps, args.fractions, args.policies,
                          args.quanta)
    client = _service_client(args)
    job = client.submit(points, weight=args.weight,
                        objective=args.objective)
    if client.last_submit_rejections:
        print("admitted after %d queue-full rejection(s)"
              % client.last_submit_rejections)
    print("submitted %s (%d points)" % (job, len(points)))
    if not args.wait:
        return
    for index, result in client.results(job):
        _print_point_line(index, result)
    _print_job_status(client.last_status)


def cmd_status(args):
    if args.html is not None:
        if getattr(args, "http", None) is None:
            raise SystemExit("--html needs --http: the HTML documents "
                             "are served by the REST gateway")
        client = _service_client(args)
        page = (client.report(args.job) if args.job is not None
                else client.dashboard())
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(page)
        print("wrote %s (%d bytes)" % (args.html, len(page)))
        return
    client = _service_client(args)
    if args.job is not None:
        _print_job_status(client.status(args.job))
        return
    info = client.ping()
    cap = info.get("queue_cap")
    engines = sum(engine["alive"] for engine in info["engines"])
    print("service up: protocol v%d, %d engine(s), %d job(s), "
          "scheduler %s, depth %d/%s"
          % (info["protocol"], engines, info["jobs"],
             info.get("scheduler", "fifo"), info.get("depth", 0),
             "unbounded" if cap is None else cap))
    if "program_compiles" in info:
        print("programs: %d frontend compile(s), %d program store "
              "hit(s)" % (info["program_compiles"],
                          info.get("program_store_hits", 0)))
    # Roster observability: one line per engine, dead ones included.
    for engine in info.get("engines", []):
        # The delta-bytes suffix is appended at the end of the line so
        # anything parsing the historical prefix still matches.
        print("engine %-12s %s%-6s %d slot(s), %d queued, %d in "
              "flight, %d done (%d stolen), hit rate %.1f%%, "
              "%d delta(s)/%d entr(ies) absorbed, %d -> %d delta "
              "byte(s)"
              % (engine["engine"], engine["kind"],
                 "" if engine.get("alive", True) else " DEAD",
                 engine["slots"], engine["queued"],
                 engine["in_flight"], engine["done"],
                 engine.get("stolen", 0),
                 100.0 * engine.get("hit_rate", 0.0),
                 engine.get("deltas_absorbed", 0),
                 engine.get("delta_entries", 0),
                 engine.get("delta_raw_bytes", 0),
                 engine.get("delta_compressed_bytes", 0)))
    for status in client.jobs():
        _print_job_status(status)


def cmd_results(args):
    client = _service_client(args)
    for index, result in client.results(args.job):
        _print_point_line(index, result)
    _print_job_status(client.last_status)


def cmd_cancel(args):
    client = _service_client(args)
    _print_job_status(client.cancel(args.job))


def cmd_export(args):
    from repro.cdfg.builder import frontend_compile_count
    from repro.viz.dot import bsb_hierarchy_to_dot, cdfg_to_dot, dfg_to_dot

    compiles_before = frontend_compile_count()
    session = _session(args)
    program = session.program(args.app)
    if args.what == "cdfg":
        print(cdfg_to_dot(program.cdfg, name=args.app))
    elif args.what == "bsb":
        print(bsb_hierarchy_to_dot(program.bsb_root, name=args.app))
    else:
        hottest = session.hottest_bsb(args.app)
        print(dfg_to_dot(hottest.dfg, name="%s_%s"
                         % (args.app, hottest.name)))
    session.save_store()
    # The standard accounting line — on stderr, so stdout stays pure
    # DOT (CI byte-compares cold and warm exports).  The compile count
    # is this command's delta of the process-global counter.
    stats = session.stats
    print("frontend compiles: %d (program store hits: %d)"
          % (frontend_compile_count() - compiles_before,
             stats.hit_count("compile")),
          file=sys.stderr)


def cmd_report(args):
    from repro.engine.session import Session
    from repro.report.html import (
        gantt_documents,
        render_html,
        store_analytics,
        sweep_document,
    )

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    _check_grid_args(args)
    session = _session(args)
    points = _grid_points(args.apps, args.fractions, args.policies,
                          args.quanta)
    results = session.explore(points, workers=args.workers)
    session.save_store()
    # The document's analytics come from a *replay*: a fresh session
    # re-resolves every point against the persisted store, so the
    # rendered hit rates are a function of the store alone — a cold
    # and a warm run of this command write byte-identical reports (and
    # the replay itself performs zero frontend compiles on any store
    # this run just populated).
    replay = (Session(cache_dir=args.cache_dir)
              if args.cache_dir is not None else session)
    replay_results = replay.explore(points, workers=1)
    apps = list(dict.fromkeys(point.app for point in points))
    gantts = gantt_documents(replay, apps)
    document = sweep_document(replay_results, stats=replay.stats,
                              store=store_analytics(replay.store),
                              gantts=gantts, title=args.title)
    page = render_html(document)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(page)
    pareto = document["pareto"]
    print("report: %d point(s), %d on the Pareto front, "
          "hypervolume %.3f"
          % (len(points), len(pareto["points"]),
             pareto["hypervolume"]))
    print("wrote %s (%d bytes)" % (args.output, len(page)))
    # The standard accounting lines describe the *sweep* session (the
    # replay's numbers are in the report itself).
    stats = session.stats
    print("overall hit rate: %.1f%% (%d hits / %d lookups)"
          % (100.0 * stats.overall_hit_rate(), stats.hit_count(),
             stats.hit_count() + stats.miss_count()))
    print("frontend compiles: %d (program store hits: %d)"
          % (stats.miss_count("compile"), stats.hit_count("compile")))


_COMMANDS = {
    "table1": cmd_table1,
    "fig3": cmd_fig3,
    "s51": cmd_s51,
    "iterate": cmd_iterate,
    "apps": cmd_apps,
    "allocate": cmd_allocate,
    "multiasic": cmd_multiasic,
    "overheads": cmd_overheads,
    "export": cmd_export,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "cache": cmd_cache,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "status": cmd_status,
    "results": cmd_results,
    "cancel": cmd_cancel,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
