"""Resource-constrained list scheduling.

This produces the *final* hardware schedule of a BSB under a concrete
allocation: the schedule PACE uses to compute the hardware execution
time, and the one section 5.1 contrasts with the optimistic ASAP-based
controller estimate.

Priority function: smallest ALAP start first (least slack), breaking
ties by uid for determinism — the classic list-scheduling heuristic the
LYCOS estimators are described as using.

One loop places every schedule (:func:`_schedule_on_pools`): at each
control step the ready operations, in priority order, each take the
first free unit of their pool.  :func:`list_schedule` gives every
operation a one-unit pool, its designated resource; the
module-selection scheduler
(:func:`~repro.sched.hetero_scheduler.hetero_list_schedule`) gives it
every allocated capable unit, fastest first.  The loop runs on operation
uids over the DFG's memoised :meth:`~repro.ir.dfg.DFG.adjacency`, so a
schedule touches no operation object.
"""

from repro.errors import ResourceError, SchedulingError
from repro.sched.alap import alap_schedule
from repro.sched.schedule import Schedule


def schedule_tables(dfg, library):
    """What :func:`list_schedule` needs of ``dfg`` and ``library``
    besides an allocation: (pools, resource names).

    ``pools`` maps each operation uid to its one-unit pool, ((designated
    resource, its latency),); the names are the designated resources in
    the order their first operation (by uid) names them.  The engine
    memoises the pair per BSB, so the many allocations that schedule
    one DFG build it once.

    Raises:
        ResourceError: If the library lacks a resource for some type.
    """
    pools = {}
    names = {}
    for op in dfg.operations():
        try:
            resource = library.resource_for(op.optype)
        except ResourceError:
            raise ResourceError(
                "library %r has no resource for %s (operation %s)"
                % (library.name, op.optype, op)) from None
        pools[op.uid] = ((resource.name, resource.latency),)
        names[resource.name] = None
    return pools, tuple(names)


def list_schedule(dfg, allocation, library, priority=None, tables=None):
    """Schedule ``dfg`` under the unit counts of ``allocation``.

    Args:
        dfg: The data-flow graph to schedule.
        allocation: A mapping resource name -> instance count (an
            :class:`~repro.core.rmap.RMap` or plain dict).
        library: The resource library defining which resource executes
            each operation type and its latency.
        priority: Optional precomputed priority mapping
            uid -> (ALAP start, uid); the engine passes the one derived
            from its memoised ASAP/ALAP intervals so repeated schedules
            of the same DFG skip the ALAP run.
        tables: Optional precomputed :func:`schedule_tables` of ``dfg``
            and ``library``.

    Returns:
        A complete :class:`~repro.sched.schedule.Schedule`.

    Raises:
        SchedulingError: If some operation's designated resource has a
            zero instance count (the BSB cannot execute in hardware).
        ResourceError: If the library lacks a resource for some type.
    """
    if tables is None:
        tables = schedule_tables(dfg, library)
    pools, names = tables
    free = {}
    for name in names:
        count = free[name] = int(allocation.get(name, 0))
        if count <= 0:
            raise SchedulingError(
                "allocation has no %r instance; DFG %r cannot run in "
                "hardware" % (name, dfg.name))
    if priority is None:
        alap = alap_schedule(dfg, library=library)
        priority = {op.uid: (alap.start(op), op.uid)
                    for op in dfg.operations()}
    return _schedule_on_pools(dfg, pools, free, priority)


def _schedule_on_pools(dfg, pools, free, priority):
    """The list-scheduling loop: schedule every operation of ``dfg``.

    At each control step the ready operations, smallest ``priority``
    first, each take the first unit of their pool with a free
    instance, and hold it for that unit's latency.  ``pools`` maps an
    operation uid to its (unit name, latency) pairs in preference
    order; ``free`` maps each unit name to its instance count and is
    consumed.  Returns the :class:`~repro.sched.schedule.Schedule`,
    each operation at the latency of the unit it took.
    """
    uids, indegree, successors = dfg.adjacency()
    remaining = dict(indegree)
    ready = [uid for uid in uids if not indegree[uid]]
    in_flight = []  # (finish_step, unit name, uid)
    starts = {}
    latencies = {}  # uid -> latency of the unit taken
    count = len(uids)
    step = 1
    max_steps_guard = 4 * (sum(latency for pool in pools.values()
                               for _, latency in pool) + count + 1)
    by_priority = priority.__getitem__

    while len(starts) < count:
        if step > max_steps_guard:
            raise SchedulingError(
                "list scheduler failed to converge on DFG %r" % dfg.name)
        # Retire operations finishing before this step; release units and
        # mark successors ready.
        if in_flight:
            still_flying = []
            for entry in in_flight:
                if entry[0] < step:
                    free[entry[1]] += 1
                    for successor in successors[entry[2]]:
                        remaining[successor] -= 1
                        if not remaining[successor]:
                            ready.append(successor)
                else:
                    still_flying.append(entry)
            in_flight = still_flying
        ready.sort(key=by_priority)

        # Issue each ready operation on the first free unit of its pool.
        deferred = []
        for uid in ready:
            for name, latency in pools[uid]:
                if free[name] > 0:
                    free[name] -= 1
                    starts[uid] = step
                    latencies[uid] = latency
                    in_flight.append((step + latency - 1, name, uid))
                    break
            else:
                deferred.append(uid)
        ready = deferred
        step += 1

    schedule = Schedule(dfg, latencies, starts)
    schedule.verify_dependencies()
    return schedule
