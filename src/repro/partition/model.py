"""Target architecture and per-BSB cost models for partitioning."""

from dataclasses import dataclass, field

from repro.core.eca import controller_area_for_states
from repro.engine.cache import EvalCache, fingerprint
from repro.errors import PartitionError, ResourceError
from repro.hwlib.library import ResourceLibrary
from repro.sched.list_scheduler import list_schedule
from repro.swmodel.estimator import bsb_software_time
from repro.swmodel.processor import Processor, default_processor


@dataclass(frozen=True)
class TargetArchitecture:
    """The co-processor target: one CPU, one ASIC, shared memory.

    Attributes:
        processor: The software side's cycle model.
        library: The hardware resource library.
        total_area: Total ASIC area (data-path + controllers), gate
            equivalents.
        comm_cycles_per_word: Cycles to move one 32-bit word across the
            memory-mapped HW/SW interface.
        hw_cycle_ratio: Duration of one ASIC control step in CPU cycles
            (1.0 = same clock).
    """

    processor: Processor = field(default_factory=default_processor)
    library: ResourceLibrary = None
    total_area: float = 20000.0
    comm_cycles_per_word: float = 4.0
    hw_cycle_ratio: float = 1.0

    def __post_init__(self):
        if self.library is None:
            raise PartitionError("TargetArchitecture requires a library")
        if self.total_area <= 0:
            raise PartitionError("total area must be positive")
        if self.comm_cycles_per_word < 0:
            raise PartitionError("communication cost must be >= 0")
        if self.hw_cycle_ratio <= 0:
            raise PartitionError("hw cycle ratio must be positive")


@dataclass(frozen=True)
class BSBCost:
    """Partitioning-relevant costs of one BSB under a fixed allocation.

    Attributes:
        name: BSB name.
        profile_count: Executions per application run.
        sw_time: Total software cycles over the run.
        hw_time: Total hardware cycles over the run (``None`` when the
            allocation cannot execute the BSB, i.e. some required unit
            has count zero — the BSB must then stay in software).
        controller_area: Area of the BSB's controller if moved to
            hardware.  PACE uses the *actual* (list-schedule) state
            count, which is what makes the optimistic ECA of the
            allocator visible in section 5.1.
        reads: Live-in variable names (for boundary communication).
        writes: Live-out variable names.
    """

    name: str
    profile_count: int
    sw_time: float
    hw_time: float
    controller_area: float
    reads: frozenset
    writes: frozenset

    @property
    def movable(self):
        return self.hw_time is not None

    @property
    def gain(self):
        """Raw cycles saved by moving this BSB alone (ignoring comm)."""
        if not self.movable:
            return 0.0
        return self.sw_time - self.hw_time


def _ops_per_resource(bsb, library, cache):
    """Designated-resource demand of one BSB, as a sorted (name, need)
    tuple — the pre-ordered form lets the hot signature path skip a
    dict build and a sort per evaluation."""
    key = (fingerprint(bsb), fingerprint(library))
    ops = cache.ops.get(key)
    if ops is None:
        counts = {}
        for optype, op_count in bsb.dfg.count_by_type().items():
            name = library.resource_for(optype).name
            counts[name] = counts.get(name, 0) + op_count
        ops = cache.ops[key] = tuple(sorted(counts.items()))
    return ops


def _capability(bsb, library, cache):
    """(capable resource names, per-optype capable names) of one BSB.

    Used by the module-selection paths: which library units can execute
    any of the BSB's operation types at all.
    """
    key = (fingerprint(bsb), fingerprint(library))
    capability = cache.capable.get(key)
    if capability is None:
        per_type = {optype: frozenset(resource.name for resource
                                      in library.candidates_for(optype))
                    for optype in bsb.dfg.op_types()}
        names = frozenset().union(*per_type.values()) if per_type \
            else frozenset()
        capability = cache.capable[key] = (names, per_type)
    return capability


def hardware_steps(bsb, allocation, architecture, cache=None):
    """List-schedule length of a BSB under ``allocation``, or ``None``.

    ``None`` means the allocation lacks a required unit and the BSB
    cannot execute in hardware.  ``cache`` (an
    :class:`~repro.engine.cache.EvalCache`, a fresh one when omitted)
    memoises schedule lengths across the many allocations an exhaustive
    search evaluates, keyed by the BSB's allocation signature (see
    :func:`_group_signature`).
    """
    if cache is None:
        cache = EvalCache()
    library = architecture.library
    signature = _group_signature(_group_identity(bsb, library, cache),
                                 allocation)
    return _signature_steps(bsb, signature, library, cache)


def _signature_steps(bsb, signature, library, cache):
    """Schedule length of ``bsb`` under an allocation signature, or
    ``None`` when the signature leaves it in software.  A
    module-selection mix takes the heterogeneous scheduler."""
    if signature[0] == "empty":
        return 0
    kind, counts = signature
    if counts is None:
        return None
    homo = kind == "homo"
    key = (fingerprint(bsb), counts, fingerprint(library)) if homo \
        else (fingerprint(bsb), "hetero", counts, fingerprint(library))
    steps = cache.sched.get(key)
    if steps is None:
        if homo:
            priority, latencies = _schedule_inputs(bsb, library, cache)
            schedule = list_schedule(bsb.dfg, dict(counts), library,
                                     priority=priority, latencies=latencies)
        else:
            from repro.sched.hetero_scheduler import hetero_list_schedule

            schedule = hetero_list_schedule(bsb.dfg, dict(counts), library)
        steps = cache.sched[key] = schedule.length
    return steps


def _schedule_inputs(bsb, library, cache):
    """(priority map, latency table) for list-scheduling one BSB.

    Derived from the memoised ASAP/ALAP intervals (the ALAP start *is*
    the list scheduler's priority), so the many allocations that
    re-schedule the same DFG pay the graph preprocessing once.  Both
    maps are keyed by operation uid, hence by BSB uid here.
    """
    key = (bsb.uid, fingerprint(library))
    inputs = cache.sched_inputs.get(key)
    if inputs is None:
        from repro.core.furo import bsb_intervals
        from repro.sched.schedule import latency_table

        intervals = bsb_intervals(bsb, library, cache)
        priority = {uid: (interval[1], uid)
                    for uid, interval in intervals.items()}
        inputs = (priority, latency_table(bsb.dfg, library=library))
        cache.sched_inputs[key] = inputs
    return inputs


def _arch_cost_key(architecture):
    """The architecture knobs a BSBCost depends on, as one key part."""
    return (fingerprint(architecture.library),
            fingerprint(architecture.processor),
            architecture.hw_cycle_ratio)


def _group_signature(identity, allocation):
    """The slice of ``allocation`` a :func:`_cost_plan` group depends on.

    Equal signatures yield bit-identical BSBCosts and schedules, which
    makes their memos exact.  Counts are capped at the group's demand (a
    BSB with three multiplications schedules identically under four or
    forty multipliers); an unexecutable group gets ``("hetero", None)``,
    so every allocation that leaves it in software shares one signature.
    """
    if identity is None:
        return ("empty",)
    ops, capable, type_sets = identity
    get = allocation.get
    counts = tuple((name, min(get(name, 0), need)) for name, need in ops)
    if all(count >= 1 for _, count in counts):
        return ("homo", counts)
    if all(any(get(name, 0) for name in names) for names in type_sets):
        return ("hetero", tuple(sorted(
            (name, count) for name, count in allocation.items()
            if count and name in capable)))
    return ("hetero", None)


def _software_time(bsb, processor, cache):
    """Memoised :func:`bsb_software_time` (allocation-independent)."""
    key = (fingerprint(bsb), fingerprint(processor))
    sw_time = cache.sw_times.get(key)
    if sw_time is None:
        sw_time = cache.sw_times[key] = bsb_software_time(bsb, processor)
    return sw_time


def _bsb_energy_pair(bsb, architecture, cache):
    """(software, hardware) energy of one BSB over the whole run.

    The software side prices the serial cycle count at the processor's
    per-cycle energy; the hardware side prices every operation at its
    *designated* unit's per-operation energy (module-selection mixes
    are deliberately priced at the designated unit too — the energy
    model is a partition-level estimate, not a binding).  Both sides
    are allocation-independent, so one pair per BSB covers the whole
    search space.  The hardware side is ``None`` when the library has
    no designated unit for some operation type — such a BSB can never
    move to hardware anyway.
    """
    processor = architecture.processor
    sw_energy = (_software_time(bsb, processor, cache)
                 * processor.energy_per_cycle)
    library = architecture.library
    try:
        ops = _ops_per_resource(bsb, library, cache)
    except ResourceError:
        return (sw_energy, None)
    hw_energy = bsb.profile_count * sum(
        op_count * library.energy_of(name) for name, op_count in ops)
    return (sw_energy, hw_energy)


def bsb_energy_pairs(bsbs, architecture, cache=None):
    """Per-BSB (software, hardware) energy pairs, in array order.

    Memoised per (BSB array, library, processor) in the cache's
    ``energies`` stage — outside the hit/miss accounting, like the
    branch-and-bound ``bounds`` stage, because the pairs are trivially
    cheap and charging lookups would shift every reported hit rate.
    """
    if cache is None:
        cache = EvalCache()
    key = (cache.array_key(bsbs), fingerprint(architecture.library),
           fingerprint(architecture.processor))
    pairs = cache.energies.get(key)
    if pairs is None:
        pairs = cache.energies[key] = tuple(
            _bsb_energy_pair(bsb, architecture, cache) for bsb in bsbs)
    return pairs


def partition_energy(pairs, hw_sequences):
    """Total energy of one partition over per-BSB energy ``pairs``.

    Every BSB inside an inclusive ``(first, last)`` hardware sequence
    contributes its hardware energy; every other BSB its software
    energy.  A plain sum over the array, so the total is non-negative
    and additive over any grouping of the BSBs by construction.
    """
    in_hardware = set()
    for first, last in hw_sequences:
        in_hardware.update(range(first, last + 1))
    total = 0.0
    for index, (sw_energy, hw_energy) in enumerate(pairs):
        total += hw_energy if index in in_hardware else sw_energy
    return total


def _compute_bsb_cost(bsb, signature, architecture, cache):
    """The :class:`BSBCost` of one BSB under an allocation signature."""
    sw_time = _software_time(bsb, architecture.processor, cache)
    steps = _signature_steps(bsb, signature, architecture.library, cache)
    if steps is None:
        hw_time = None
        controller_area = float("inf")
    else:
        hw_time = bsb.profile_count * steps * architecture.hw_cycle_ratio
        controller_area = controller_area_for_states(
            max(1, steps), technology=architecture.library.technology)
    return BSBCost(
        name=bsb.name,
        profile_count=bsb.profile_count,
        sw_time=sw_time,
        hw_time=hw_time,
        controller_area=controller_area,
        reads=frozenset(bsb.reads),
        writes=frozenset(bsb.writes),
    )


def _group_identity(bsb, library, cache):
    """What one BSB's signature depends on: ``None`` for an empty DFG,
    else (designated demand, capable names, per-type capable names)."""
    if not len(bsb.dfg):
        return None
    ops = _ops_per_resource(bsb, library, cache)
    capable, per_type = _capability(bsb, library, cache)
    type_sets = tuple(names for _, names in sorted(
        per_type.items(), key=lambda item: item[0].value))
    return (ops, capable, type_sets)


def _cost_plan(bsbs, library, cache):
    """Group a BSB array by identical cost-signature functions.

    A BSB's signature depends only on its designated-resource demand
    (homogeneous case) or its capable-resource set (module-selection
    case); BSBs sharing both compute identical signatures under every
    allocation, so one evaluation needs each distinct signature once.
    Returns (per-BSB group indices, group identity list).
    """
    plan_key = (cache.array_key(bsbs), fingerprint(library))
    plan = cache.cost_plans.get(plan_key)
    if plan is not None:
        return plan
    group_index = {}
    group_list = []
    members = []
    for bsb in bsbs:
        identity = _group_identity(bsb, library, cache)
        index = group_index.get(identity)
        if index is None:
            index = len(group_list)
            group_index[identity] = index
            group_list.append(identity)
        members.append(index)
    plan = (members, group_list)
    cache.cost_plans[plan_key] = plan
    return plan
