"""Module selection: choosing *which* unit executes an operation type.

The paper's first future-work item: "extending the algorithm to be
able to deal with selection between several resources that can execute
the same type of operation."  Module selection is Algorithm 1 with a
:class:`SelectionPolicy`: :func:`allocate_with_selection` runs the
allocator's loop (:func:`repro.core.allocator._run_algorithm1`) and
changes only which units a change adds and how caps count:

* when a BSB moves to hardware, each uncovered operation type is
  assigned a unit chosen by the policy from the library's candidate
  list (instead of the single designated unit);
* when a hardware BSB requests one more unit for its most urgent
  operation type, the policy chooses again — so the mix may combine a
  fast unit for the critical path with cheap units for bulk
  parallelism;
* per-type restrictions cap the *total* number of units able to
  execute the type, regardless of which modules provide them.  They
  are computed once per array
  (:meth:`~repro.core.furo.UrgencyState.type_caps`).

Hardware times under mixed allocations come from
:func:`repro.sched.hetero_scheduler.hetero_list_schedule`.
"""

import functools
import time
from dataclasses import dataclass

from repro.core.allocator import (
    AllocationResult,
    _run_algorithm1,
    urgency_state,
)
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


def allocate_with_selection(bsbs, library, area, policy=None,
                            restrictions=None, technology=None,
                            keep_trace=False, cache=None):
    """Algorithm 1 with module selection (the future-work extension).

    The loop is :func:`repro.core.allocator.allocate`'s; the ``policy``
    picks the units (:class:`BalancedPolicy` when omitted) and
    ``restrictions`` maps each operation type to its cap (the per-type
    ASAP parallelism when omitted).  ``cache`` is the
    :class:`~repro.engine.cache.EvalCache` reusing FURO urgencies and
    ECA estimates across runs (a fresh one when omitted).
    """
    if cache is None:
        cache = EvalCache()
    bsbs = list(bsbs)
    if area < 0:
        raise AllocationError("hardware area must be >= 0, got %r" % (area,))
    policy = policy or BalancedPolicy()

    started = time.perf_counter()
    state = urgency_state(bsbs, library, cache=cache)
    if restrictions is None:
        restrictions = state.type_caps()
    candidates_for = functools.lru_cache(maxsize=None)(
        library.candidates_for)

    def extra_unit(optype, urgency, allocation, units, remaining):
        if units.get(optype, 0) + 1 > restrictions.get(optype, 0):
            return None
        return policy.choose(optype, candidates_for(optype), remaining,
                             urgency)

    def needed_units(bsb, allocation, units, budget):
        # A type counts as covered once the allocation or an already
        # chosen unit executes it.
        needed = RMap()
        covered = set()
        for optype, _ in state.furo_pairs(bsb):
            if units.get(optype, 0) > 0 or optype in covered:
                continue
            candidates = candidates_for(optype)
            if not candidates:
                raise AllocationError(
                    "BSB %r contains %s but library %r has no resource "
                    "for it" % (bsb.name, optype, library.name))
            chosen = policy.choose(optype, candidates, budget, 0.0)
            if chosen is None:
                return None
            needed[chosen.name] = needed[chosen.name] + 1
            covered |= chosen.optypes
            budget -= chosen.area
        return needed

    # Type-level caps do not fit the result's RMap of restrictions.
    result = _run_algorithm1(bsbs, state, area, technology, cache,
                             extra_unit, needed_units, RMap(), started,
                             keep_trace)
    return SelectionResult(result=result, policy_name=policy.name)
