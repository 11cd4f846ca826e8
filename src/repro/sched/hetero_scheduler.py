"""List scheduling over heterogeneous unit pools.

The core list scheduler assumes one designated resource per operation
type.  The module-selection extension (the paper's first "future work"
item) allocates *mixes* — e.g. one fast adder plus two slow ones — so
an operation may execute on any allocated unit whose resource declares
its type, with per-unit latencies.

:func:`hetero_list_schedule` runs the list scheduler's loop
(:func:`~repro.sched.list_scheduler._schedule_on_pools`) with each
operation's pool holding every allocated capable unit, fastest first,
so an operation takes the *fastest* free capable unit.  Ready
operations are prioritised by their unit-latency ALAP start (least
slack first).
"""

from repro.errors import ResourceError, SchedulingError
from repro.sched.alap import alap_schedule
from repro.sched.list_scheduler import _schedule_on_pools


def hetero_list_schedule(dfg, allocation, library):
    """Schedule ``dfg`` on a heterogeneous allocation.

    Args:
        dfg: The data-flow graph.
        allocation: Mapping resource name -> instance count; several
            resources may cover the same operation type.
        library: Resource library resolving names and capabilities.

    Returns:
        A complete :class:`~repro.sched.schedule.Schedule` whose
        latencies reflect the unit each operation actually ran on.
    """
    allocation = {name: int(count) for name, count in
                  dict(allocation).items() if int(count) > 0}
    # The allocated resources, fastest first (library.get raises
    # ResourceError for unknown names).
    units = sorted((library.get(name) for name in allocation),
                   key=lambda resource: (resource.latency, resource.name))

    pools = {}
    for op in dfg.operations():
        capable = [(unit.name, unit.latency) for unit in units
                   if unit.executes(op.optype)]
        if not capable:
            if not library.supports(op.optype):
                raise ResourceError(
                    "library %r has no resource for %s"
                    % (library.name, op.optype))
            raise SchedulingError(
                "allocation has no unit executing %s; DFG %r cannot "
                "run in hardware" % (op.optype, dfg.name))
        pools[op.uid] = capable

    alap = alap_schedule(dfg, default_latency=1)
    priority = {op.uid: (alap.start(op), op.uid) for op in dfg.operations()}
    return _schedule_on_pools(dfg, pools, allocation, priority)
