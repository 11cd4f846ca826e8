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
every allocated capable unit, fastest first.
"""

from repro.errors import ResourceError, SchedulingError
from repro.sched.alap import alap_schedule
from repro.sched.schedule import Schedule, latency_table


def list_schedule(dfg, allocation, library, priority=None, latencies=None):
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
        latencies: Optional precomputed latency table (uid -> steps).

    Returns:
        A complete :class:`~repro.sched.schedule.Schedule`.

    Raises:
        SchedulingError: If some operation's designated resource has a
            zero instance count (the BSB cannot execute in hardware).
        ResourceError: If the library lacks a resource for some type.
    """
    if latencies is None:
        latencies = latency_table(dfg, library=library)
    operations = dfg.operations()
    resource_of = {}
    for op in operations:
        try:
            resource_of[op.uid] = library.resource_for(op.optype).name
        except ResourceError:
            raise ResourceError(
                "library %r has no resource for %s (operation %s)"
                % (library.name, op.optype, op)) from None

    free = {name: int(allocation.get(name, 0))
            for name in resource_of.values()}
    for op in operations:
        if free[resource_of[op.uid]] <= 0:
            raise SchedulingError(
                "allocation has no %r instance; DFG %r cannot run in "
                "hardware" % (resource_of[op.uid], dfg.name))

    if priority is None:
        alap = alap_schedule(dfg, library=library)
        priority = {op.uid: (alap.start(op), op.uid) for op in operations}
    pools = {uid: ((name, latencies[uid]),)
             for uid, name in resource_of.items()}
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
    operations = dfg.operations()
    remaining_preds = {op.uid: len(dfg.predecessors(op))
                       for op in operations}
    ready = [op for op in operations if remaining_preds[op.uid] == 0]
    in_flight = []  # (finish_step, unit name, op)
    starts = []  # (op, start step), in placement order
    latencies = {}  # uid -> latency of the unit taken
    step = 1
    max_steps_guard = 4 * (sum(latency for pool in pools.values()
                               for _, latency in pool) + len(dfg) + 1)

    while len(starts) < len(operations):
        if step > max_steps_guard:
            raise SchedulingError(
                "list scheduler failed to converge on DFG %r" % dfg.name)
        # Retire operations finishing before this step; release units and
        # mark successors ready.
        still_flying = []
        for entry in in_flight:
            finish, name, op = entry
            if finish < step:
                free[name] += 1
                for successor in dfg.successors(op):
                    remaining_preds[successor.uid] -= 1
                    if remaining_preds[successor.uid] == 0:
                        ready.append(successor)
            else:
                still_flying.append(entry)
        in_flight = still_flying
        ready.sort(key=lambda op: priority[op.uid])

        # Issue each ready operation on the first free unit of its pool.
        deferred = []
        for op in ready:
            for name, latency in pools[op.uid]:
                if free[name] > 0:
                    free[name] -= 1
                    starts.append((op, step))
                    latencies[op.uid] = latency
                    in_flight.append((step + latency - 1, name, op))
                    break
            else:
                deferred.append(op)
        ready = deferred
        step += 1

    schedule = Schedule(dfg, latencies)
    for op, start in starts:
        schedule.place(op, start)
    schedule.verify_dependencies()
    return schedule
