"""The hardware resource allocation algorithm (Algorithm 1).

The algorithm produces an allocation by building a *pseudo partition*:
all BSBs start in software; the prioritised array is scanned and

* a software BSB is moved to hardware when the remaining area can pay
  its Estimated Controller Area plus the area of the required resources
  not yet allocated (``GetReqResources(B) \\ Allocation``);
* a hardware BSB asks for one more unit of its most urgent operation
  type (``MostUrgentResource``), granted if the unit fits the remaining
  area and does not violate the ASAP-parallelism restrictions.

After any change to the allocation, urgencies are recomputed, the array
is re-prioritised and the scan restarts from the front; otherwise the
scan advances.  The algorithm stops when a full pass makes no change or
the remaining area reaches zero, and returns the allocation.
"""

import time
from dataclasses import dataclass, field

from repro.core.eca import estimated_controller_area
from repro.core.furo import UrgencyState
from repro.core.priority import prioritize
from repro.core.restrictions import asap_restrictions
from repro.core.rmap import RMap
from repro.engine.cache import EvalCache, fingerprint
from repro.errors import AllocationError


@dataclass
class AllocationEvent:
    """One allocation-changing step, for traces and the examples."""

    kind: str                 # "move" or "extra-unit"
    bsb_name: str
    resources: dict           # resource name -> count added
    cost: float
    remaining_area: float

    def __str__(self):
        added = ", ".join("%s x%d" % pair
                          for pair in sorted(self.resources.items()))
        return "%-10s %-14s +[%s] cost=%.1f remaining=%.1f" % (
            self.kind, self.bsb_name, added or "-",
            self.cost, self.remaining_area)


@dataclass
class AllocationResult:
    """Outcome of Algorithm 1.

    Attributes:
        allocation: The produced data-path allocation (an RMap).
        hw_bsb_names: Names of BSBs the *pseudo partition* moved to
            hardware.  This is a by-product guiding the allocation — the
            real partition is produced later by PACE.
        remaining_area: Hardware area left unspent.
        datapath_area: Area consumed by functional units.
        controller_area: Area consumed by (estimated) controllers.
        restrictions: The restriction RMap that was in force.
        runtime_seconds: Wall-clock time of the allocation run.
        events: Chronological trace of allocation changes.
    """

    allocation: RMap
    hw_bsb_names: list
    remaining_area: float
    datapath_area: float
    controller_area: float
    restrictions: RMap
    runtime_seconds: float
    events: list = field(default_factory=list)

    def trace_lines(self):
        return [str(event) for event in self.events]


def required_resources(bsb, library):
    """Minimal RMap executing every operation of ``bsb`` (one per unit).

    "The algorithm will, when a BSB is moved to hardware, allocate a
    minimum of resources (maximum one of each) so that all operations in
    the BSB can be executed" (section 4.2).
    """
    required = RMap()
    for optype in bsb.op_types():
        if not library.supports(optype):
            raise AllocationError(
                "BSB %r contains %s but library %r has no resource for it"
                % (bsb.name, optype, library.name))
        required[library.resource_for(optype).name] = 1
    return required


def most_urgent_resource(bsb, state, allocation, library):
    """The resource for the BSB's most urgent operation type, or None."""
    _, optype = state.max_urgency(bsb, True, allocation)
    if optype is None:
        return None
    return library.resource_for(optype)


def urgency_state(bsbs, library, cache=None):
    """The (immutable) :class:`UrgencyState` of a BSB array, memoised.

    The FURO preprocessing is the allocator's expensive one-time step;
    the :class:`~repro.engine.cache.EvalCache` reuses it across the many
    Algorithm 1 runs a design-space sweep performs.  The state holds
    the BSB objects themselves, so it is keyed by their uids.
    """
    if cache is None:
        cache = EvalCache()
    key = (tuple(bsb.uid for bsb in bsbs), fingerprint(library))
    state = cache.urgency.get(key)
    if state is None:
        cache.stats.miss("urgency")
        state = UrgencyState(bsbs, library=library, cache=cache)
        cache.urgency[key] = state
    else:
        cache.stats.hit("urgency")
    return state


def cached_restrictions(bsbs, library, cache=None):
    """Memoised :func:`asap_restrictions` of a BSB array."""
    if cache is None:
        cache = EvalCache()
    key = (cache.array_key(bsbs), fingerprint(library))
    restrictions = cache.restrictions.get(key)
    if restrictions is None:
        cache.stats.miss("restrictions")
        restrictions = asap_restrictions(bsbs, library)
        cache.restrictions[key] = restrictions
    else:
        cache.stats.hit("restrictions")
    return restrictions


def _estimated_eca(bsb, library, technology, cache):
    """Memoised optimistic controller-area estimate of one BSB."""
    key = (fingerprint(bsb), fingerprint(library), fingerprint(technology))
    area = cache.eca.get(key)
    if area is None:
        area = cache.eca[key] = estimated_controller_area(
            bsb.dfg, library=library, technology=technology)
    return area


def allocate(bsbs, library, area, restrictions=None, technology=None,
             keep_trace=False, cache=None):
    """Run Algorithm 1 and return an :class:`AllocationResult`.

    Args:
        bsbs: The application's leaf-BSB array.
        library: The hardware resource library.
        area: Total hardware area available (data-path + controllers).
        restrictions: Optional RMap of per-resource caps; defaults to
            the ASAP-parallelism restrictions of section 4.3.
        technology: Gate areas for the ECA; defaults to the library's.
        keep_trace: Record an :class:`AllocationEvent` per change.
        cache: The :class:`~repro.engine.cache.EvalCache` reusing FURO
            urgencies, ECA estimates and restrictions across runs (a
            fresh one when omitted).
    """
    if cache is None:
        cache = EvalCache()
    bsbs = list(bsbs)
    if area < 0:
        raise AllocationError("hardware area must be >= 0, got %r" % (area,))
    if technology is None:
        technology = library.technology
    if restrictions is None:
        restrictions = cached_restrictions(bsbs, library, cache=cache)
    else:
        restrictions = RMap._coerce(restrictions)

    started = time.perf_counter()
    state = urgency_state(bsbs, library, cache=cache)
    eca_of = {bsb.uid: _estimated_eca(bsb, library, technology, cache)
              for bsb in bsbs}

    allocation = RMap()
    remaining = float(area)
    hw_uids = set()
    hw_names = []
    datapath_area = 0.0
    controller_area = 0.0
    events = []

    order = prioritize(bsbs, state, hw_uids, allocation)
    index = 0
    while index < len(order) and remaining > 0:
        changed = False
        bsb = order[index]
        if bsb.uid in hw_uids:
            resource = most_urgent_resource(bsb, state, allocation, library)
            if (resource is not None
                    and resource.area <= remaining
                    and allocation[resource.name] + 1
                    <= restrictions[resource.name]):
                allocation = allocation.incremented(resource.name)
                remaining -= resource.area
                datapath_area += resource.area
                changed = True
                if keep_trace:
                    events.append(AllocationEvent(
                        "extra-unit", bsb.name, {resource.name: 1},
                        resource.area, remaining))
        else:
            needed = required_resources(bsb, library) - allocation
            cost = eca_of[bsb.uid] + needed.area(library)
            if cost <= remaining:
                allocation = allocation | needed
                remaining -= cost
                datapath_area += needed.area(library)
                controller_area += eca_of[bsb.uid]
                hw_uids.add(bsb.uid)
                hw_names.append(bsb.name)
                # Algorithm 1: the move only counts as an allocation
                # change when it added resources; a controller-only move
                # does not trigger re-prioritisation.
                changed = not needed.is_empty()
                if keep_trace:
                    events.append(AllocationEvent(
                        "move", bsb.name, needed.as_dict(), cost, remaining))
        if changed:
            order = prioritize(bsbs, state, hw_uids, allocation)
            index = 0
        else:
            index += 1

    return AllocationResult(
        allocation=allocation,
        hw_bsb_names=hw_names,
        remaining_area=remaining,
        datapath_area=datapath_area,
        controller_area=controller_area,
        restrictions=restrictions,
        runtime_seconds=time.perf_counter() - started,
        events=events,
    )
