"""Estimated Controller Area (section 4.2, formula from [6]).

Moving a BSB to hardware costs its controller: registers holding the
state, plus decode logic.  The number of states ``N`` is estimated as
the ASAP schedule length — optimistic, because no allocation exists yet
to drive a list-based schedule ("the allocation is what we are looking
for").  Section 5.1 studies the consequences of that optimism; the
``states`` argument below lets callers plug in the list-schedule length
instead to compute the *actual* controller area of a moved BSB.

    ECA = A_R + A_AG + A_OG + log2(N) * A_R + (N - 1) * (A_IG + 2 * A_AG)
"""

import math

from repro.errors import AllocationError
from repro.hwlib.technology import DEFAULT_TECHNOLOGY
from repro.sched.asap import asap_schedule


def estimated_states(dfg, library=None):
    """Optimistic state count of a BSB: its ASAP schedule length."""
    return max(1, asap_schedule(dfg, library=library).length)


def min_latency_states(dfg, library=None):
    """Admissible floor on the state count under *any* allocation.

    The ASAP schedule with every operation at the minimum latency over
    all capable units (not just the designated one — module-selection
    mixes may bind an operation to a faster non-default unit) is a lower
    bound on every achievable schedule length: no allocation, however
    generous, finishes sooner than the dependency-only critical path at
    best-case latencies.  The branch-and-bound search uses this as the
    per-BSB optimistic hardware time; unlike :func:`estimated_states`
    it returns 0 for an empty DFG (matching ``hardware_steps``).
    """
    latencies = {}
    for op in dfg.operations():
        best = None
        if library is not None:
            for resource in library.candidates_for(op.optype):
                if best is None or resource.latency < best:
                    best = resource.latency
        latencies[op.uid] = best if best is not None else 1
    return asap_schedule(dfg, latencies=latencies).length


def controller_area_for_states(states, technology=None):
    """Controller area for a state machine with ``states`` states."""
    if states < 1:
        raise AllocationError("controller needs >= 1 state, got %r"
                              % (states,))
    tech = technology if technology is not None else DEFAULT_TECHNOLOGY
    state_registers = math.ceil(math.log2(states)) if states > 1 else 0
    return (tech.register_area + tech.and_gate_area + tech.or_gate_area
            + state_registers * tech.register_area
            + (states - 1) * (tech.inverter_area + 2 * tech.and_gate_area))


def estimated_controller_area(dfg, library=None, technology=None):
    """The paper's ECA of a BSB: optimistic (ASAP-based) controller area."""
    return controller_area_for_states(estimated_states(dfg, library=library),
                                      technology=technology)


def actual_controller_area(dfg, allocation, library, technology=None):
    """Controller area using the real list schedule under ``allocation``.

    This is the quantity the optimistic ECA underestimates (section 5.1):
    the list schedule under a finite allocation is never shorter than the
    ASAP schedule, so this area is >= the ECA.
    """
    from repro.sched.list_scheduler import list_schedule

    states = max(1, list_schedule(dfg, allocation, library).length)
    return controller_area_for_states(states, technology=technology)
