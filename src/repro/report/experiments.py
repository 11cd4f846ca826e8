"""Drivers for every experiment in the paper's evaluation section.

Each function regenerates one table or figure; the benchmarks and the
CLI are thin wrappers around these.  Each ``benchmarks/bench_<id>_*.py``
module (T1, F3, F5, S51, T1n, C44) regenerates one experiment and
asserts its qualitative shape.
"""

from dataclasses import dataclass

from repro.apps.registry import application_names, application_spec
from repro.core.eca import actual_controller_area, estimated_controller_area
from repro.core.exhaustive import space_size
from repro.core.rmap import RMap
from repro.engine.session import Session
from repro.errors import ReproError
from repro.partition.model import TargetArchitecture
from repro.report.tables import render_table


def _resolve_session(session, library):
    """A session honouring ``library``; loud when the two conflict.

    The experiment drivers predate the engine and keep their
    ``library=`` parameter; silently preferring a passed session's
    library would compute reproduction numbers against the wrong
    resource set.
    """
    if session is None:
        return Session(library=library)
    if library is not None and library is not session.library:
        raise ReproError("pass either session= or library=, not both: "
                         "the session is bound to its own library")
    return session


# ----------------------------------------------------------------------
# T1: Table 1 — algorithm vs best allocation on the four benchmarks
# ----------------------------------------------------------------------
@dataclass
class Table1Row:
    """One measured row of Table 1 (plus the paper's reference values).

    Attributes mirror the paper's columns: ``lines``, ``su`` /
    ``su_best`` (speed-up of the algorithm's vs the best allocation),
    ``size_percent`` (data-path share of the used hardware area),
    ``hw_percent`` (share of the application moved to hardware) and
    ``cpu_seconds`` (allocation algorithm runtime).  ``su_iterated`` is
    the speed-up after the reduce-only design iteration (the paper's
    man/eigen fix); ``sampled`` marks a sampled rather than exhaustive
    best (the paper's eigen footnote).  ``search`` records the search
    that actually ran ("brute", "pruned" or "sampled"), and the two
    pruning counters are non-zero only for branch-and-bound rows.
    ``objective`` names the tournament the best was ranked under;
    ``best_energy`` is the winning evaluation's modelled energy, and
    ``front`` carries the exhaustive search's
    :class:`~repro.core.objective.ParetoFront` for the ``pareto``
    objective (``None`` otherwise).
    """

    name: str
    lines: int
    su: float
    su_best: float
    su_iterated: float
    size_percent: float
    hw_percent: float
    cpu_seconds: float
    space: int
    evaluations: int
    sampled: bool
    allocation: RMap
    best_allocation: RMap
    paper_su: float = 0.0
    paper_su_best: float = 0.0
    search: str = "brute"
    subtrees_pruned: int = 0
    bound_evaluations: int = 0
    objective: str = "speedup"
    best_energy: float = 0.0
    front: object = None


def table1_row(name, library=None, area_quanta=150, best_area_quanta=120,
               max_evaluations=None, program=None, session=None,
               workers=1, search="brute", objective="speedup"):
    """Measure one Table 1 row for the named benchmark.

    All stages run through one engine
    :class:`~repro.engine.session.Session` (a private one when none is
    passed), so the evaluation, the design iteration and the exhaustive
    search share schedules, cost arrays and PACE sequence tables.
    ``workers`` > 1 fans the exhaustive search out over processes (the
    row is bit-identical either way); ``search="pruned"`` runs the
    branch-and-bound exhaustive search (also bit-identical, usually far
    fewer evaluations); a session opened with a ``cache_dir`` makes the
    whole row restart-warm.  ``objective`` ranks the exhaustive best
    (and the iteration's accepted steps) — the default reproduces the
    paper's speed-up tournament byte-for-byte.
    """
    from repro.core.objective import as_objective

    objective = as_objective(objective)
    session = _resolve_session(session, library)
    library = session.library
    spec = application_spec(name)
    program = program or session.program(name)
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)

    result = session.allocate(program.bsbs, spec.total_area)
    cpu_seconds = result.runtime_seconds

    evaluation = session.evaluate(program.bsbs, result.allocation,
                                  architecture, area_quanta=area_quanta)
    iterated = session.iterate(program.bsbs, result.allocation,
                               architecture, area_quanta=area_quanta,
                               objective=objective)
    budget = (spec.max_evaluations if max_evaluations is None
              else max_evaluations)
    best = session.exhaustive(program.bsbs, architecture,
                              max_evaluations=budget,
                              area_quanta=best_area_quanta,
                              workers=workers, search=search,
                              objective=objective)
    # The design-iteration endpoint is also a visited allocation; the
    # "best" reported is the better of the two (the paper's eigen best
    # likewise came from designer experiments, not pure enumeration).
    # ``improves`` compares the objective's primary axis — for the
    # default objective that is the historical pure speed-up merge.
    best_eval = best.best_evaluation
    best_allocation = best.best_allocation
    if objective.improves(iterated.final_evaluation, best_eval, library):
        best_eval = iterated.final_evaluation
        best_allocation = iterated.final_allocation
    best_su = best_eval.speedup

    return Table1Row(
        name=name,
        lines=program.source_lines(),
        su=evaluation.speedup,
        su_best=best_su,
        su_iterated=iterated.final_evaluation.speedup,
        size_percent=100.0 * evaluation.datapath_fraction,
        hw_percent=100.0 * evaluation.partition.hw_fraction,
        cpu_seconds=cpu_seconds,
        space=space_size(program.bsbs, library),
        evaluations=best.evaluations,
        sampled=best.sampled,
        allocation=result.allocation,
        best_allocation=best_allocation,
        paper_su=spec.paper_su,
        paper_su_best=spec.paper_su_best,
        search=best.search,
        subtrees_pruned=best.subtrees_pruned,
        bound_evaluations=best.bound_evaluations,
        objective=best.objective,
        best_energy=best_eval.energy,
        front=best.front,
    )


def table1_rows(library=None, names=None, max_evaluations=None,
                session=None, workers=1, cache_dir=None, search="brute",
                objective="speedup"):
    """Measure all Table 1 rows (expensive: runs the exhaustive search).

    One session carries across the rows, so shared machinery (compiled
    programs, restriction analyses) is reused.  ``cache_dir`` (only
    honoured when no session is passed) opens that session over a
    persistent store, so a rerun replays the expensive stages from
    disk; ``workers`` parallelises each row's exhaustive search,
    ``search`` selects its mode ("brute" or "pruned" — same winner)
    and ``objective`` picks the ranking tournament.
    """
    names = list(names or application_names())
    if session is None and cache_dir is not None:
        session = Session(library=library, cache_dir=cache_dir)
    session = _resolve_session(session, library)
    rows = [table1_row(name, session=session, workers=workers,
                       max_evaluations=max_evaluations, search=search,
                       objective=objective)
            for name in names]
    session.save_store()
    return rows


def render_table1(rows):
    """Render measured rows next to the paper's reported values."""
    headers = ["Example", "Lines", "SU", "SU(best)", "SU(iter)", "Size",
               "HW", "CPU s", "Space", "Paper SU/SU(best)"]
    body = []
    for row in rows:
        body.append([
            row.name,
            row.lines,
            "%.0f%%" % row.su,
            "%.0f%%%s" % (row.su_best, "~" if row.sampled else ""),
            "%.0f%%" % row.su_iterated,
            "%.0f%%" % row.size_percent,
            "%.0f%%" % row.hw_percent,
            "%.2f" % row.cpu_seconds,
            row.space,
            "%.0f%%/%.0f%%" % (row.paper_su, row.paper_su_best),
        ])
    return render_table(headers, body,
                        title="Table 1 — allocation quality "
                              "(~ marks a sampled best)")


# ----------------------------------------------------------------------
# F3: Figure 3 — the data-path size vs controller room trade-off
# ----------------------------------------------------------------------
def _fill_to_budget(allocation, library, budget):
    """Grow an allocation round-robin until the budget is exhausted.

    Models the Figure 3 designer who fixes the data-path *size* up
    front: whatever the allocator left unused is filled with additional
    instances of the already-chosen unit types (cheapest first), eating
    into the area that would otherwise hold controllers.
    """
    remaining = budget - allocation.area(library)
    names = sorted(allocation.names(), key=library.area_of)
    changed = True
    while changed and names:
        changed = False
        for resource_name in names:
            if library.area_of(resource_name) <= remaining:
                allocation = allocation.incremented(resource_name)
                remaining -= library.area_of(resource_name)
                changed = True
    return allocation


def fig3_sweep(name="hal", fractions=None, library=None, area_quanta=150,
               fill=True, session=None):
    """Speed-up as a function of the data-path share of the ASIC.

    For each target fraction the allocation algorithm runs with the
    data-path capped at ``fraction * total_area``; with ``fill`` the
    remaining data-path budget is then force-consumed (the designer has
    committed that silicon), so only ``(1 - fraction) * total_area`` is
    left for controllers.  Figure 3's claim is that both extremes lose:
    a tiny data-path gives many small speed-ups, a huge one leaves no
    controller room for the BSBs that would use it.

    The sweep shares one engine session across fractions: every budget
    re-examines the same BSBs, so urgencies, schedules and cost arrays
    carry over from point to point.
    """
    session = _resolve_session(session, library)
    library = session.library
    spec = application_spec(name)
    program = session.program(name)
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)
    fractions = list(fractions or
                     [0.1, 0.2, 0.3, 0.4, 0.5, 0.6,
                      0.7, 0.8, 0.9, 0.95, 0.98])
    points = []
    for fraction in fractions:
        budget = fraction * spec.total_area
        result = session.allocate(program.bsbs, budget)
        allocation = result.allocation
        if fill:
            allocation = _fill_to_budget(allocation, library, budget)
        evaluation = session.evaluate(program.bsbs, allocation,
                                      architecture,
                                      area_quanta=area_quanta)
        points.append({
            "fraction": fraction,
            "datapath_area": evaluation.datapath_area,
            "speedup": evaluation.speedup,
            "hw_bsbs": len(evaluation.partition.hw_names),
            "controller_area": evaluation.partition.controller_area_used,
        })
    return points


def render_fig3(points, name="hal"):
    headers = ["Budget", "Data-path", "Controllers", "HW BSBs", "Speed-up"]
    rows = [["%.0f%%" % (100 * point["fraction"]),
             "%.0f" % point["datapath_area"],
             "%.0f" % point["controller_area"],
             point["hw_bsbs"],
             "%.0f%%" % point["speedup"]] for point in points]
    return render_table(headers, rows,
                        title="Figure 3 — data-path budget sweep (%s)"
                              % name)


# ----------------------------------------------------------------------
# S51: section 5.1 — optimistic controller estimation
# ----------------------------------------------------------------------
def s51_controller_rows(name, library=None, area_fraction=0.6,
                        session=None):
    """Per-BSB optimistic ECA vs actual (list-schedule) controller area.

    Section 5.1: the ASAP-based estimate is optimistic, so the real
    controllers of moved BSBs are larger and the algorithm allocates "a
    few too many resources".  Each row reports a BSB's ECA, its actual
    controller area under the algorithm's allocation, and the ratio.

    ``area_fraction`` scales the ASIC area: with an ample budget the
    allocator reaches every BSB's full parallelism and all ratios
    collapse to 1.0, so the phenomenon is shown on a constrained chip
    (60% of the Table 1 area by default) — the regime the paper's
    estimate actually operates in.
    """
    session = _resolve_session(session, library)
    library = session.library
    spec = application_spec(name)
    program = session.program(name)
    result = session.allocate(program.bsbs,
                              area_fraction * spec.total_area)
    rows = []
    for bsb in program.bsbs:
        if not len(bsb.dfg):
            continue
        optimistic = estimated_controller_area(bsb.dfg, library=library)
        try:
            actual = actual_controller_area(bsb.dfg, result.allocation,
                                            library)
        except Exception:
            continue  # BSB not executable under this allocation
        rows.append({
            "bsb": bsb.name,
            "eca": optimistic,
            "actual": actual,
            "ratio": actual / optimistic,
        })
    return rows


def render_s51(rows, name):
    headers = ["BSB", "ECA (ASAP)", "Actual", "Actual/ECA"]
    body = [[row["bsb"], "%.0f" % row["eca"], "%.0f" % row["actual"],
             "%.2f" % row["ratio"]] for row in rows]
    return render_table(headers, body,
                        title="Section 5.1 — controller estimate "
                              "optimism (%s)" % name)


# ----------------------------------------------------------------------
# T1n: the man/eigen design-iteration fix
# ----------------------------------------------------------------------
def design_iteration_report(name, library=None, area_quanta=150,
                            session=None):
    """Run the reduce-only iteration and report every accepted step."""
    session = _resolve_session(session, library)
    library = session.library
    spec = application_spec(name)
    program = session.program(name)
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)
    result = session.allocate(program.bsbs, spec.total_area)
    iterated = session.iterate(program.bsbs, result.allocation,
                               architecture, area_quanta=area_quanta)
    return {
        "name": name,
        "initial_speedup": iterated.initial_evaluation.speedup,
        "final_speedup": iterated.final_evaluation.speedup,
        "initial_allocation": result.allocation,
        "final_allocation": iterated.final_allocation,
        "steps": iterated.steps,
    }
