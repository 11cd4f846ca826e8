"""Multi-ASIC co-design: the paper's second future-work extension.

"Another extension is the generalization to target architectures that
contain more than one ASIC."  This module implements that
generalization as a greedy round-based scheme that composes the
existing machinery:

* round ``i`` runs Algorithm 1 for ASIC ``i`` over the BSBs still in
  software, producing that ASIC's data-path allocation;
* PACE then partitions with the BSBs already moved in earlier rounds
  pinned (they cannot move twice), consuming ASIC ``i``'s controller
  area;
* the loop continues until the ASIC list is exhausted or a round moves
  nothing.

Each ASIC gets an allocation tuned to the workload *remaining* after
its predecessors claimed the hottest blocks — the behaviour a designer
iterating the single-ASIC flow by hand would produce.  Inter-ASIC
communication is not modelled (each sequence still pays its HW/SW
boundary costs); the paper leaves the extension entirely open, and
this round-based scheme is the natural conservative reading.
"""

from dataclasses import dataclass, field

from repro.core.allocator import allocate
from repro.core.rmap import RMap
from repro.errors import PartitionError
from repro.partition.evaluate import bsb_costs
from repro.partition.model import TargetArchitecture
from repro.partition.pace import pace_partition
from repro.partition.speedup import speedup_percent


@dataclass
class AsicPlan:
    """One ASIC's share of the multi-ASIC co-design.

    Attributes:
        index: Position in the ASIC list (0-based).
        total_area: The ASIC's area budget.
        allocation: Data-path allocation produced for this ASIC.
        datapath_area: Area consumed by the allocation.
        hw_names: BSBs moved to this ASIC.
        saving: Execution cycles saved by this ASIC's partition.
    """

    index: int
    total_area: float
    allocation: RMap
    datapath_area: float
    hw_names: list = field(default_factory=list)
    saving: float = 0.0


@dataclass
class MultiAsicResult:
    """Outcome of the multi-ASIC co-design.

    Attributes:
        asics: Per-ASIC plans, in round order.
        sw_time_all: All-software execution time.
        hybrid_time: Final execution time across CPU + all ASICs.
        speedup: Total speed-up percentage.
    """

    asics: list = field(default_factory=list)
    sw_time_all: float = 0.0
    hybrid_time: float = 0.0
    speedup: float = 0.0

    def hw_names(self):
        """All BSBs in hardware, across ASICs."""
        names = []
        for plan in self.asics:
            names.extend(plan.hw_names)
        return names


def _pinned_costs(costs, pinned_names):
    """Mark already-moved BSBs unmovable for subsequent PACE rounds."""
    pinned = []
    for cost in costs:
        if cost.name in pinned_names:
            pinned.append(type(cost)(
                name=cost.name, profile_count=cost.profile_count,
                sw_time=cost.sw_time, hw_time=None,
                controller_area=float("inf"),
                reads=cost.reads, writes=cost.writes))
        else:
            pinned.append(cost)
    return pinned


def multi_asic_codesign(bsbs, library, asic_areas, processor=None,
                        comm_cycles_per_word=4.0, area_quanta=200,
                        session=None):
    """Allocate and partition across several ASICs.

    Args:
        bsbs: The application's leaf-BSB array.
        library: The hardware resource library.
        asic_areas: Iterable of per-ASIC total areas (gate equivalents).
        processor: Software model (defaults to the standard core).
        comm_cycles_per_word: HW/SW interface cost.
        area_quanta: PACE area resolution per round.
        session: Optional engine
            :class:`~repro.engine.session.Session`; rounds share its
            cache, so schedules and costs computed for ASIC ``i`` are
            reused when ASIC ``i+1`` re-examines the same BSBs (a
            private session is created otherwise).
    """
    from repro.swmodel.processor import default_processor

    if session is None:
        from repro.engine.session import Session

        session = Session(library=library)
    asic_areas = [float(area) for area in asic_areas]
    if not asic_areas:
        raise PartitionError("need at least one ASIC area")
    if any(area <= 0 for area in asic_areas):
        raise PartitionError("ASIC areas must be positive")
    processor = processor or default_processor()

    bsbs = list(bsbs)
    moved = set()
    plans = []
    sw_time_all = None
    total_saving = 0.0

    for index, area in enumerate(asic_areas):
        architecture = TargetArchitecture(
            processor=processor, library=library, total_area=area,
            comm_cycles_per_word=comm_cycles_per_word)
        candidates = [bsb for bsb in bsbs if bsb.name not in moved]
        if not candidates:
            break
        result = allocate(candidates, library, area=area,
                          cache=session.cache)
        allocation = result.allocation
        datapath_area = allocation.area(library)
        available = area - datapath_area

        costs = bsb_costs(bsbs, allocation, architecture,
                          cache=session.cache)
        if sw_time_all is None:
            sw_time_all = sum(cost.sw_time for cost in costs)
        partition = pace_partition(_pinned_costs(costs, moved),
                                   architecture, available,
                                   area_quanta=area_quanta)
        saving = partition.sw_time_all - partition.hybrid_time
        plan = AsicPlan(index=index, total_area=area,
                        allocation=allocation,
                        datapath_area=datapath_area,
                        hw_names=list(partition.hw_names),
                        saving=saving)
        plans.append(plan)
        moved.update(partition.hw_names)
        total_saving += saving
        if not partition.hw_names:
            break

    if sw_time_all is None:
        from repro.swmodel.estimator import application_software_time

        sw_time_all = application_software_time(bsbs, processor)
    hybrid_time = sw_time_all - total_saving
    return MultiAsicResult(
        asics=plans,
        sw_time_all=sw_time_all,
        hybrid_time=hybrid_time,
        speedup=speedup_percent(sw_time_all, hybrid_time),
    )
