"""Algorithm 1 against a per-query reference of its two loops.

The allocators read urgencies from per-array data on the
:class:`~repro.core.furo.UrgencyState` and one Alloc(o) table per
allocation change.  The reference loops below re-derive every step
from the per-query functions instead: the array sorted by
:func:`bsb_priority_key`, :func:`most_urgent_resource`,
:func:`allocated_units_for`, :func:`asap_type_parallelism` and
:func:`required_resources`.  Both sides must agree on the allocation
(insertion order included), the hardware BSBs, the exact area floats
and the trace — or raise the same :class:`AllocationError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.registry import application_spec, load_application
from repro.apps.synthetic import synthetic_bsb_array
from repro.core.allocator import (
    AllocationEvent,
    _estimated_eca,
    allocate,
    cached_restrictions,
    most_urgent_resource,
    required_resources,
    urgency_state,
)
from repro.core.furo import allocated_units_for
from repro.core.module_selection import (
    BalancedPolicy,
    CheapestPolicy,
    FastestPolicy,
    allocate_with_selection,
)
from repro.core.priority import bsb_priority_key
from repro.core.restrictions import asap_type_parallelism
from repro.core.rmap import RMap
from repro.engine.cache import EvalCache
from repro.errors import AllocationError
from repro.hwlib.library import ResourceLibrary, default_library
from repro.hwlib.resources import Resource
from repro.ir.ops import OpType

from tests.conftest import make_leaf, make_parallel_dfg

POLICIES = {"designated": None, "fastest": FastestPolicy,
            "cheapest": CheapestPolicy, "balanced": BalancedPolicy}

DEFAULT = default_library()


def alu_library():
    """One ALU executes ADD, SUB and CMP, so it counts toward three
    types' Alloc(o)."""
    lib = ResourceLibrary("alu-equivalence")
    lib.add(Resource(name="alu",
                     optypes=frozenset({OpType.ADD, OpType.SUB,
                                        OpType.CMP}),
                     area=300.0, latency=1))
    lib.add_single("multiplier", OpType.MUL, area=1000.0, latency=2)
    lib.add_single("fast-mult", OpType.MUL, area=1600.0, latency=1)
    lib.add_single("constgen", OpType.CONST, area=16.0, latency=1)
    lib.add_single("shifter", OpType.SHIFT, area=80.0, latency=1)
    return lib


ALU = alu_library()


def _ordered_by_priority(bsbs, state, hw_uids, allocation):
    indexed = list(enumerate(bsbs))
    indexed.sort(key=lambda pair: bsb_priority_key(
        pair[1], state, hw_uids, allocation, original_index=pair[0]))
    return [bsb for _, bsb in indexed]


def reference_allocate(bsbs, library, area, cache, keep_trace=True):
    """The designated-unit loop, every step from a per-query function."""
    bsbs = list(bsbs)
    restrictions = cached_restrictions(bsbs, library, cache=cache)
    state = urgency_state(bsbs, library, cache=cache)
    eca_of = {bsb.uid: _estimated_eca(bsb, library, library.technology,
                                      cache) for bsb in bsbs}
    allocation = RMap()
    remaining = float(area)
    hw_uids, hw_names, events = set(), [], []
    datapath_area = controller_area = 0.0
    order = _ordered_by_priority(bsbs, state, hw_uids, allocation)
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
                changed = not needed.is_empty()
                if keep_trace:
                    events.append(AllocationEvent(
                        "move", bsb.name, needed.as_dict(), cost, remaining))
        if changed:
            order = _ordered_by_priority(bsbs, state, hw_uids, allocation)
            index = 0
        else:
            index += 1
    return (allocation, hw_names, remaining, datapath_area,
            controller_area, events)


def _reference_required(bsb, allocation, library, policy, remaining_area):
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


def reference_allocate_with_selection(bsbs, library, area, policy, cache,
                                      keep_trace=True):
    """The module-selection loop, every step from a per-query function."""
    bsbs = list(bsbs)
    restrictions = asap_type_parallelism(bsbs, library=library)
    state = urgency_state(bsbs, library, cache=cache)
    eca_of = {bsb.uid: _estimated_eca(bsb, library, library.technology,
                                      cache) for bsb in bsbs}
    allocation = RMap()
    remaining = float(area)
    hw_uids, hw_names, events = set(), [], []
    datapath_area = controller_area = 0.0
    order = _ordered_by_priority(bsbs, state, hw_uids, allocation)
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
            needed = _reference_required(bsb, allocation, library, policy,
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
            order = _ordered_by_priority(bsbs, state, hw_uids, allocation)
            index = 0
        else:
            index += 1
    return (allocation, hw_names, remaining, datapath_area,
            controller_area, events)


def _fingerprint(allocation, hw_names, remaining, datapath, controller,
                 events):
    """Everything a run reports, floats as exact reprs."""
    return (list(allocation.as_dict().items()), list(hw_names),
            repr(remaining), repr(datapath), repr(controller),
            [str(event) for event in events])


def _outcome(run):
    try:
        return _fingerprint(*run())
    except AllocationError as error:
        return ("AllocationError", str(error))


def assert_equivalent(bsbs, library, area, policy_name, cache):
    """The table-driven allocator and the reference agree exactly."""
    policy_class = POLICIES[policy_name]

    def fast():
        if policy_class is None:
            result = allocate(bsbs, library, area=area, keep_trace=True,
                              cache=cache)
        else:
            result = allocate_with_selection(
                bsbs, library, area=area, policy=policy_class(),
                keep_trace=True, cache=cache).result
        return (result.allocation, result.hw_bsb_names,
                result.remaining_area, result.datapath_area,
                result.controller_area, result.events)

    def reference():
        if policy_class is None:
            return reference_allocate(bsbs, library, area, cache)
        return reference_allocate_with_selection(
            bsbs, library, area, policy_class(), cache)

    expected = _outcome(reference)
    assert _outcome(fast) == expected
    return expected


FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0)


@pytest.fixture(scope="module")
def programs():
    return {app: load_application(app)
            for app in ("hal", "man", "straight", "eigen")}


@pytest.mark.parametrize("app", ["hal", "man", "straight", "eigen"])
def test_apps_match_reference(programs, app):
    bsbs = programs[app].bsbs
    cache = EvalCache()
    total = application_spec(app).total_area
    moves = 0
    for policy_name in POLICIES:
        for fraction in FRACTIONS:
            outcome = assert_equivalent(bsbs, DEFAULT, fraction * total,
                                        policy_name, cache)
            moves += len(outcome[1])
    assert moves > 0


@st.composite
def synthetic_arrays(draw):
    return synthetic_bsb_array(
        draw(st.integers(1, 7)), draw(st.integers(1, 14)),
        seed=draw(st.integers(0, 60)),
        chain_probability=draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])))


@settings(max_examples=80, deadline=None)
@given(synthetic_arrays(), st.sampled_from([DEFAULT, ALU]),
       st.sampled_from(sorted(POLICIES)),
       st.floats(min_value=0.0, max_value=25000.0))
def test_synthetic_arrays_match_reference(bsbs, library, policy_name, area):
    assert_equivalent(bsbs, library, area, policy_name, EvalCache())


class TestUnsupportedTypeStaysLazy:
    """A BSB whose type the library lacks raises only once the scan
    first reaches it in software, with the reference's message."""

    @pytest.fixture
    def bsbs(self):
        hot = make_leaf(make_parallel_dfg(OpType.MUL, 4, "hot"),
                        profile=500, name="hot")
        odd = make_leaf(make_parallel_dfg(OpType.DIV, 2, "odd"),
                        profile=1, name="odd")
        return [odd, hot]

    @pytest.fixture
    def library(self):
        lib = ResourceLibrary("no-divider")
        lib.add_single("multiplier", OpType.MUL, area=1000.0, latency=2)
        lib.add_single("fast-mult", OpType.MUL, area=1600.0, latency=1)
        return lib

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_raises_when_reached(self, bsbs, library, policy_name):
        outcome = assert_equivalent(bsbs, library, 1.0e6, policy_name,
                                    EvalCache())
        assert outcome[0] == "AllocationError"
        assert "'odd'" in outcome[1]

    @pytest.mark.parametrize("policy_name", sorted(POLICIES))
    def test_silent_when_never_reached(self, bsbs, library, policy_name):
        # Area for the hot BSB's first unit only: the scan stops at zero
        # remaining area before it reaches the odd BSB.
        cache = EvalCache()
        eca = _estimated_eca(bsbs[1], library, library.technology, cache)
        unit = (1000.0 if policy_name in ("designated", "cheapest")
                else 1600.0)
        outcome = assert_equivalent(bsbs, library, eca + unit,
                                    policy_name, cache)
        assert outcome[1] == ["hot"]
