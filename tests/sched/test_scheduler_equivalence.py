"""Both list schedulers against reference copies of their own loops.

:func:`list_schedule` and :func:`hetero_list_schedule` run one shared
loop over per-operation unit pools.  The references below are the two
separate loops the schedulers had before that loop was shared: the
designated-unit scheduler over per-resource free counts, and the
module-selection scheduler taking the fastest free capable unit.  On
random DFGs and random allocations, each scheduler must give every
operation the reference's start and latency, or raise the reference's
exception type.  The engine's path, which schedules one BSB under many
allocations from tables it builds once, must give the reference's
lengths too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bsb.bsb import LeafBSB
from repro.engine.cache import EvalCache
from repro.errors import ReproError, ResourceError, SchedulingError
from repro.hwlib.library import ResourceLibrary
from repro.hwlib.resources import Resource
from repro.ir.dfg import DFG
from repro.ir.ops import OpType
from repro.partition.model import TargetArchitecture, hardware_steps
from repro.sched.alap import alap_schedule
from repro.sched.hetero_scheduler import hetero_list_schedule
from repro.sched.list_scheduler import list_schedule
from repro.sched.schedule import Schedule, latency_table


def pooled_library():
    """Two units for ADD and MUL, one multi-function ALU, no divider."""
    lib = ResourceLibrary("pooled")
    lib.add_single("fast-adder", OpType.ADD, area=240.0, latency=1)
    lib.add_single("slow-adder", OpType.ADD, area=80.0, latency=3)
    lib.add_single("fast-mult", OpType.MUL, area=1600.0, latency=1)
    lib.add_single("slow-mult", OpType.MUL, area=700.0, latency=4)
    lib.add(Resource(name="alu",
                     optypes=frozenset({OpType.ADD, OpType.SUB,
                                        OpType.CMP}),
                     area=300.0, latency=2))
    lib.add_single("constgen", OpType.CONST, area=16.0, latency=1)
    lib.add_single("shifter", OpType.SHIFT, area=80.0, latency=1)
    return lib


LIBRARY = pooled_library()
UNITS = ("fast-adder", "slow-adder", "fast-mult", "slow-mult", "alu",
         "constgen", "shifter")


def reference_list_schedule(dfg, allocation, library, priority=None):
    """The designated-unit loop: one free count per resource."""
    latencies = latency_table(dfg, library=library)
    schedule = Schedule(dfg, latencies)
    if not len(dfg):
        return schedule
    resource_of = {}
    for op in dfg.operations():
        if not library.supports(op.optype):
            raise ResourceError("no resource for %s" % op.optype)
        resource_of[op.uid] = library.resource_for(op.optype).name
    counts = {name: int(allocation.get(name, 0))
              for name in set(resource_of.values())}
    for op in dfg.operations():
        if counts[resource_of[op.uid]] <= 0:
            raise SchedulingError("no %r" % resource_of[op.uid])
    if priority is None:
        alap = alap_schedule(dfg, library=library)
        priority = {op.uid: (alap.start(op), op.uid)
                    for op in dfg.operations()}
    remaining_preds = {op.uid: len(dfg.predecessors(op))
                       for op in dfg.operations()}
    ready = sorted((op for op in dfg.operations()
                    if remaining_preds[op.uid] == 0),
                   key=lambda op: priority[op.uid])
    in_flight = []  # (finish_step, op)
    placed = 0
    step = 1
    free = dict(counts)
    while placed < len(dfg):
        still_flying = []
        for finish, op in in_flight:
            if finish < step:
                free[resource_of[op.uid]] += 1
                for successor in dfg.successors(op):
                    remaining_preds[successor.uid] -= 1
                    if remaining_preds[successor.uid] == 0:
                        ready.append(successor)
            else:
                still_flying.append((finish, op))
        in_flight = still_flying
        ready.sort(key=lambda op: priority[op.uid])
        deferred = []
        for op in ready:
            name = resource_of[op.uid]
            if free[name] > 0:
                free[name] -= 1
                schedule.place(op, step)
                in_flight.append((step + latencies[op.uid] - 1, op))
                placed += 1
            else:
                deferred.append(op)
        ready = deferred
        step += 1
    return schedule


def reference_hetero_list_schedule(dfg, allocation, library):
    """The module-selection loop: the fastest free capable unit."""
    allocation = {name: int(count) for name, count in
                  dict(allocation).items() if int(count) > 0}
    for name in allocation:
        library.get(name)
    candidates = {}
    for op in dfg.operations():
        capable = sorted((library.get(name) for name in sorted(allocation)
                          if library.get(name).executes(op.optype)),
                         key=lambda resource: (resource.latency,
                                               resource.name))
        if not capable:
            if not library.supports(op.optype):
                raise ResourceError("no resource for %s" % op.optype)
            raise SchedulingError("no unit executing %s" % op.optype)
        candidates[op.uid] = capable
    schedule = Schedule(dfg, {op.uid: candidates[op.uid][0].latency
                              for op in dfg.operations()})
    if not len(dfg):
        return schedule
    alap = alap_schedule(dfg, default_latency=1)
    priority = {op.uid: (alap.start(op), op.uid) for op in dfg.operations()}
    remaining_preds = {op.uid: len(dfg.predecessors(op))
                       for op in dfg.operations()}
    ready = sorted((op for op in dfg.operations()
                    if remaining_preds[op.uid] == 0),
                   key=lambda op: priority[op.uid])
    free = dict(allocation)
    in_flight = []  # (finish_step, resource_name, op)
    placed = 0
    step = 1
    while placed < len(dfg):
        still_flying = []
        for finish, resource_name, op in in_flight:
            if finish < step:
                free[resource_name] += 1
                for successor in dfg.successors(op):
                    remaining_preds[successor.uid] -= 1
                    if remaining_preds[successor.uid] == 0:
                        ready.append(successor)
            else:
                still_flying.append((finish, resource_name, op))
        in_flight = still_flying
        ready.sort(key=lambda op: priority[op.uid])
        deferred = []
        for op in ready:
            chosen = None
            for resource in candidates[op.uid]:
                if free[resource.name] > 0:
                    chosen = resource
                    break
            if chosen is None:
                deferred.append(op)
                continue
            free[chosen.name] -= 1
            schedule.set_latency(op, chosen.latency)
            schedule.place(op, step)
            in_flight.append((step + chosen.latency - 1, chosen.name, op))
            placed += 1
        ready = deferred
        step += 1
    return schedule


#: ADD and MUL, the types with two units, are drawn twice as often.
OPTYPES = [OpType.ADD, OpType.ADD, OpType.MUL, OpType.MUL, OpType.SUB,
           OpType.CMP, OpType.CONST, OpType.SHIFT]


@st.composite
def random_dags(draw, divisions=True):
    """A DAG of up to 14 operations; with ``divisions``, one DFG in ten
    also holds a DIV, which no unit executes."""
    dfg = DFG("equivalence")
    optypes = [draw(st.sampled_from(OPTYPES))
               for _ in range(draw(st.integers(0, 14)))]
    if divisions and draw(st.integers(0, 9)) == 0:
        optypes.insert(draw(st.integers(0, len(optypes))), OpType.DIV)
    ops = []
    for optype in optypes:
        op = dfg.new_operation(optype)
        for producer in draw(st.sets(st.sampled_from(ops), max_size=3)
                             if ops else st.just(set())):
            dfg.add_dependency(producer, op)
        ops.append(op)
    return dfg


#: Each unit count is 0 one time in seven, so most draws schedule.
allocations = st.fixed_dictionaries(
    {name: st.sampled_from([1, 1, 1, 2, 2, 3, 0]) for name in UNITS})


def outcome(run):
    """Each operation's (start, latency), or the exception type."""
    try:
        schedule = run()
    except ReproError as error:
        return type(error)
    return {op.uid: (schedule.start(op), schedule.latency(op))
            for op in schedule.dfg.operations()}


@settings(max_examples=150, deadline=None)
@given(random_dags(), allocations)
def test_list_schedule_matches_reference(dfg, allocation):
    expected = outcome(
        lambda: reference_list_schedule(dfg, allocation, LIBRARY))
    assert outcome(lambda: list_schedule(dfg, allocation, LIBRARY)) \
        == expected


@settings(max_examples=100, deadline=None)
@given(random_dags(), allocations, st.data())
def test_list_schedule_with_tied_priorities(dfg, allocation, data):
    """A caller's priority map may tie: ready order stays stable."""
    priority = {op.uid: (data.draw(st.integers(0, 2)),)
                for op in dfg.operations()}
    expected = outcome(lambda: reference_list_schedule(
        dfg, allocation, LIBRARY, priority=priority))
    assert outcome(lambda: list_schedule(
        dfg, allocation, LIBRARY, priority=priority)) == expected


@settings(max_examples=150, deadline=None)
@given(random_dags(), allocations)
def test_hetero_list_schedule_matches_reference(dfg, allocation):
    expected = outcome(
        lambda: reference_hetero_list_schedule(dfg, allocation, LIBRARY))
    assert outcome(lambda: hetero_list_schedule(dfg, allocation, LIBRARY)) \
        == expected


#: Designated-unit allocations: every unit at least once, so the engine
#: takes the list scheduler (a zero count may take the module-selection
#: scheduler instead).
positive_allocations = st.fixed_dictionaries(
    {name: st.integers(1, 3) for name in UNITS})


@settings(max_examples=100, deadline=None)
@given(random_dags(divisions=False),
       st.lists(positive_allocations, min_size=1, max_size=5))
def test_engine_schedules_match_reference(dfg, allocations):
    """One BSB under several allocations through one cache: its
    schedule tables are built once and every length is the
    reference's."""
    bsb = LeafBSB(dfg)
    architecture = TargetArchitecture(library=LIBRARY)
    cache = EvalCache()
    for allocation in allocations:
        assert hardware_steps(bsb, allocation, architecture, cache) == \
            reference_list_schedule(dfg, allocation, LIBRARY).length
    assert len(cache.sched_inputs) == (1 if len(dfg) else 0)
