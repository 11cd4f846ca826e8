"""As-soon-as-possible scheduling (unconstrained resources)."""

from repro.sched.schedule import Schedule, latency_table


def asap_schedule(dfg, library=None, default_latency=1, latencies=None):
    """Compute the ASAP schedule of a DFG.

    Every operation starts at the earliest control step permitted by its
    data dependencies, assuming unlimited resources.  The resulting
    schedule length is the paper's optimistic state-count estimate ``N``
    for the Estimated Controller Area (section 4.2).  ``latencies``
    (uid -> steps) replaces the table built from ``library`` and
    ``default_latency``.
    """
    if latencies is None:
        latencies = latency_table(dfg, library=library,
                                  default=default_latency)
    schedule = Schedule(dfg, latencies)
    for op in dfg.topological_order():
        earliest = 1
        for producer in dfg.predecessors(op):
            finish = schedule.finish(producer)
            if finish + 1 > earliest:
                earliest = finish + 1
        schedule.place(op, earliest)
    return schedule
