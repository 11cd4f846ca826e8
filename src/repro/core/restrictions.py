"""Allocation restrictions from ASAP parallelism (section 4.3).

The greedy allocator could otherwise keep adding units of one type; the
ASAP schedule bounds how many same-type operations can ever execute in
parallel, so allocating beyond that peak can never help.  The cap for a
resource is the highest per-control-step count of any operation type it
executes, maximised over all BSBs.
"""

from repro.core.rmap import RMap
from repro.sched.asap import asap_schedule


def asap_type_parallelism(bsbs, library=None):
    """Per op type, the max same-step count over all BSB ASAP schedules."""
    peaks = {}
    for bsb in bsbs:
        schedule = asap_schedule(bsb.dfg, library=library)
        for optype, count in schedule.max_type_parallelism().items():
            if count > peaks.get(optype, 0):
                peaks[optype] = count
    return peaks


def asap_restrictions(bsbs, library):
    """Restriction RMap: resource name -> max allocatable instances."""
    peaks = asap_type_parallelism(bsbs, library=library)
    restrictions = RMap()
    for optype, peak in peaks.items():
        if not library.supports(optype):
            continue
        resource = library.resource_for(optype)
        # A multi-function unit inherits the largest peak among its types.
        if peak > restrictions[resource.name]:
            restrictions[resource.name] = peak
    return restrictions


def exclusive_type_load(dfg, library):
    """Per-resource work that *only* that resource can absorb.

    For every operation type with exactly one capable unit in the
    library, all of the DFG's operations of that type must run on that
    unit's instances — whatever the allocation.  Returns ``{resource
    name: (op count, latency)}``; with ``c`` allocated instances and a
    non-pipelined pool, those operations alone need at least
    ``ceil(op_count / c) * latency`` control steps.  The branch-and-
    bound search combines this load floor with the dependency-only
    critical path (:func:`~repro.core.eca.min_latency_states`) into an
    admissible schedule-length bound — unlike a schedule *under* the
    restriction caps, which list scheduling anomalies make inadmissible.
    """
    loads = {}
    for optype, op_count in dfg.count_by_type().items():
        candidates = library.candidates_for(optype)
        if len(candidates) != 1:
            continue
        resource = candidates[0]
        count, latency = loads.get(resource.name, (0, resource.latency))
        loads[resource.name] = (count + op_count, latency)
    return loads
