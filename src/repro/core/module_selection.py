"""Module selection: choosing *which* unit executes an operation type.

The paper's first future-work item: "extending the algorithm to be
able to deal with selection between several resources that can execute
the same type of operation."  This module implements that extension as
a drop-in variant of Algorithm 1:

* when a BSB moves to hardware, each uncovered operation type is
  assigned a unit chosen by a :class:`SelectionPolicy` from the
  library's candidate list (instead of the single designated unit);
* when a hardware BSB requests one more unit for its most urgent
  operation type, the policy chooses again — so the mix may combine a
  fast unit for the critical path with cheap units for bulk
  parallelism;
* per-type restrictions cap the *total* number of units able to
  execute the type, regardless of which modules provide them.

Hardware times under mixed allocations come from
:func:`repro.sched.hetero_scheduler.hetero_list_schedule`.
"""

import time
from dataclasses import dataclass

from repro.core.allocator import (
    AllocationEvent,
    AllocationResult,
    _estimated_eca,
    urgency_state,
)
from repro.core.furo import allocated_units_for
from repro.core.priority import prioritize
from repro.core.restrictions import asap_type_parallelism
from repro.core.rmap import RMap
from repro.engine.cache import EvalCache
from repro.errors import AllocationError


class SelectionPolicy:
    """Strategy choosing among candidate resources for one type.

    Subclasses override :meth:`choose`.  ``urgency`` is the requesting
    BSB's current U(o, B) — policies may buy speed for urgent types and
    area for cold ones.
    """

    name = "policy"

    def choose(self, optype, candidates, remaining_area, urgency):
        raise NotImplementedError

    def _affordable(self, candidates, remaining_area):
        return [resource for resource in candidates
                if resource.area <= remaining_area]


class FastestPolicy(SelectionPolicy):
    """Always the lowest-latency candidate that fits."""

    name = "fastest"

    def choose(self, optype, candidates, remaining_area, urgency):
        affordable = self._affordable(candidates, remaining_area)
        if not affordable:
            return None
        return min(affordable,
                   key=lambda resource: (resource.latency, resource.area,
                                         resource.name))


class CheapestPolicy(SelectionPolicy):
    """Always the smallest candidate that fits."""

    name = "cheapest"

    def choose(self, optype, candidates, remaining_area, urgency):
        affordable = self._affordable(candidates, remaining_area)
        if not affordable:
            return None
        return min(affordable,
                   key=lambda resource: (resource.area, resource.latency,
                                         resource.name))


class BalancedPolicy(SelectionPolicy):
    """Minimise the area-delay product (a classic HLS selection rule)."""

    name = "balanced"

    def choose(self, optype, candidates, remaining_area, urgency):
        affordable = self._affordable(candidates, remaining_area)
        if not affordable:
            return None
        return min(affordable,
                   key=lambda resource: (resource.area * resource.latency,
                                         resource.name))


@dataclass
class SelectionResult:
    """An :class:`AllocationResult` plus the policy that produced it."""

    result: AllocationResult
    policy_name: str

    @property
    def allocation(self):
        return self.result.allocation


def selection_restrictions(bsbs, library):
    """Per-type caps for module selection.

    The homogeneous restrictions cap each *resource*; with selection the
    cap must bound the total capable units per *type*, so it is returned
    as a mapping OpType -> max units.
    """
    return asap_type_parallelism(bsbs, library=library)


def _required_with_selection(bsb, allocation, library, policy,
                             remaining_area):
    """Units (RMap) still needed to cover the BSB's types, policy-chosen.

    Returns ``None`` when some type has no affordable candidate.
    """
    needed = RMap()
    budget = remaining_area
    for optype in sorted(bsb.op_types(), key=lambda ot: ot.value):
        covered = allocated_units_for(optype, allocation | needed, library)
        if covered > 0:
            continue
        candidates = library.candidates_for(optype)
        if not candidates:
            raise AllocationError(
                "BSB %r contains %s but library %r has no resource "
                "for it" % (bsb.name, optype, library.name))
        chosen = policy.choose(optype, candidates, budget, 0.0)
        if chosen is None:
            return None
        needed[chosen.name] = needed[chosen.name] + 1
        budget -= chosen.area
    return needed


def allocate_with_selection(bsbs, library, area, policy=None,
                            restrictions=None, technology=None,
                            keep_trace=False, cache=None):
    """Algorithm 1 with module selection (the future-work extension).

    Same control structure as :func:`repro.core.allocator.allocate`;
    the differences are confined to how resources are picked (the
    ``policy``) and how restrictions are checked (per operation type).
    ``cache`` is the :class:`~repro.engine.cache.EvalCache` reusing
    FURO urgencies and ECA estimates across runs (a fresh one when
    omitted).
    """
    if cache is None:
        cache = EvalCache()
    bsbs = list(bsbs)
    if area < 0:
        raise AllocationError("hardware area must be >= 0, got %r" % (area,))
    policy = policy or BalancedPolicy()
    if technology is None:
        technology = library.technology
    if restrictions is None:
        restrictions = selection_restrictions(bsbs, library)

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
            urgency, optype = state.max_urgency(bsb, True, allocation)
            if optype is not None:
                cap = restrictions.get(optype, 0)
                units = allocated_units_for(optype, allocation, library)
                if units + 1 <= cap:
                    chosen = policy.choose(
                        optype, library.candidates_for(optype),
                        remaining, urgency)
                    if chosen is not None:
                        allocation = allocation.incremented(chosen.name)
                        remaining -= chosen.area
                        datapath_area += chosen.area
                        changed = True
                        if keep_trace:
                            events.append(AllocationEvent(
                                "extra-unit", bsb.name,
                                {chosen.name: 1}, chosen.area, remaining))
        else:
            needed = _required_with_selection(
                bsb, allocation, library, policy,
                remaining - eca_of[bsb.uid])
            if needed is not None:
                cost = eca_of[bsb.uid] + needed.area(library)
                if cost <= remaining:
                    allocation = allocation | needed
                    remaining -= cost
                    datapath_area += needed.area(library)
                    controller_area += eca_of[bsb.uid]
                    hw_uids.add(bsb.uid)
                    hw_names.append(bsb.name)
                    changed = not needed.is_empty()
                    if keep_trace:
                        events.append(AllocationEvent(
                            "move", bsb.name, needed.as_dict(),
                            cost, remaining))
        if changed:
            order = prioritize(bsbs, state, hw_uids, allocation)
            index = 0
        else:
            index += 1

    result = AllocationResult(
        allocation=allocation,
        hw_bsb_names=hw_names,
        remaining_area=remaining,
        datapath_area=datapath_area,
        controller_area=controller_area,
        restrictions=RMap(),  # type-level caps do not fit an RMap
        runtime_seconds=time.perf_counter() - started,
        events=events,
    )
    return SelectionResult(result=result, policy_name=policy.name)
