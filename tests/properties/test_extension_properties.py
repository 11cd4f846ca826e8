"""Property-based tests for the future-work extensions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.furo import allocated_units_for
from repro.core.module_selection import (
    BalancedPolicy,
    CheapestPolicy,
    FastestPolicy,
    allocate_with_selection,
)
from repro.core.restrictions import asap_type_parallelism
from repro.hwlib.library import ResourceLibrary
from repro.hwlib.overheads import OverheadModel, interconnect_area
from repro.core.rmap import RMap
from repro.hwlib.library import default_library
from repro.ir.dfg import DFG
from repro.ir.ops import OpType
from repro.bsb.bsb import LeafBSB
from repro.sched.asap import asap_schedule
from repro.sched.hetero_scheduler import hetero_list_schedule

DEFAULT_LIBRARY = default_library()


def mixed_library():
    lib = ResourceLibrary("mixed-prop")
    lib.add_single("fast-adder", OpType.ADD, area=240.0, latency=1)
    lib.add_single("slow-adder", OpType.ADD, area=80.0, latency=3)
    lib.add_single("fast-mult", OpType.MUL, area=1600.0, latency=1)
    lib.add_single("slow-mult", OpType.MUL, area=700.0, latency=4)
    lib.add_single("constgen", OpType.CONST, area=16.0, latency=1)
    return lib


MIXED = mixed_library()

optypes = st.sampled_from([OpType.ADD, OpType.MUL, OpType.CONST])


@st.composite
def small_dags(draw):
    dfg = DFG("hprop")
    previous = None
    for index in range(draw(st.integers(1, 10))):
        op = dfg.new_operation(draw(optypes))
        if previous is not None and draw(st.booleans()):
            dfg.add_dependency(previous, op)
        previous = op
    return dfg


hetero_allocations = st.fixed_dictionaries({
    "fast-adder": st.integers(0, 2),
    "slow-adder": st.integers(0, 2),
    "fast-mult": st.integers(0, 2),
    "slow-mult": st.integers(0, 2),
    "constgen": st.integers(1, 3),
}).filter(lambda alloc: (alloc["fast-adder"] + alloc["slow-adder"] > 0
                         and alloc["fast-mult"] + alloc["slow-mult"] > 0))


@settings(max_examples=50, deadline=None)
@given(small_dags(), hetero_allocations)
def test_hetero_schedule_valid(dfg, allocation):
    schedule = hetero_list_schedule(dfg, allocation, MIXED)
    schedule.verify_dependencies()
    assert schedule.is_complete()


@settings(max_examples=50, deadline=None)
@given(small_dags(), hetero_allocations)
def test_hetero_never_beats_asap_with_fastest_units(dfg, allocation):
    schedule = hetero_list_schedule(dfg, allocation, MIXED)
    # Lower bound: the ASAP schedule where every op takes its fastest
    # capable unit's latency.
    fastest = {}
    for op in dfg.operations():
        latencies = [resource.latency
                     for resource in MIXED.candidates_for(op.optype)]
        fastest[op.uid] = min(latencies)
    from repro.sched.schedule import Schedule

    lower = Schedule(dfg, fastest)
    for op in dfg.topological_order():
        earliest = 1
        for producer in dfg.predecessors(op):
            earliest = max(earliest, lower.finish(producer) + 1)
        lower.place(op, earliest)
    assert schedule.length >= lower.length


@settings(max_examples=50, deadline=None)
@given(small_dags(), hetero_allocations)
def test_hetero_capacity_respected(dfg, allocation):
    schedule = hetero_list_schedule(dfg, allocation, MIXED)
    for step in range(1, schedule.length + 1):
        # Total concurrent ops can never exceed total units.
        total_units = sum(allocation.values())
        assert len(schedule.operations_active_at(step)) <= total_units


@st.composite
def selection_apps(draw):
    bsbs = []
    for index in range(draw(st.integers(1, 3))):
        dfg = DFG("sel%d" % index)
        for _ in range(draw(st.integers(1, 6))):
            dfg.new_operation(draw(optypes))
        bsbs.append(LeafBSB(dfg, profile_count=draw(st.integers(1, 40)),
                            name="SEL%d" % index))
    return bsbs


@settings(max_examples=30, deadline=None)
@given(selection_apps(),
       st.sampled_from([FastestPolicy(), CheapestPolicy(),
                        BalancedPolicy()]),
       st.floats(min_value=0.0, max_value=20000.0))
def test_selection_never_overspends(bsbs, policy, area):
    result = allocate_with_selection(bsbs, MIXED, area=area,
                                     policy=policy)
    used = result.result.datapath_area + result.result.controller_area
    assert used <= area + 1e-6


@settings(max_examples=30, deadline=None)
@given(selection_apps(),
       st.sampled_from([FastestPolicy(), CheapestPolicy(),
                        BalancedPolicy()]))
def test_selection_respects_type_caps(bsbs, policy):
    result = allocate_with_selection(bsbs, MIXED, area=10**6,
                                     policy=policy)
    caps = asap_type_parallelism(bsbs, library=MIXED)
    for optype, cap in caps.items():
        assert allocated_units_for(optype, result.allocation,
                                   MIXED) <= cap


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.sampled_from(["adder", "multiplier",
                                        "constgen", "shifter"]),
                       st.integers(0, 10), max_size=4))
def test_interconnect_monotone_in_units(counts):
    allocation = RMap({k: v for k, v in counts.items() if v})
    base = interconnect_area(allocation, DEFAULT_LIBRARY)
    grown = interconnect_area(allocation.incremented("adder", 1),
                              DEFAULT_LIBRARY)
    assert grown >= base
