"""Reproduction of the LYCOS hardware resource allocation system.

Grode, Knudsen, Madsen: "Hardware Resource Allocation for Hardware/
Software Partitioning in the LYCOS System", DATE 1998.

Public API tour
---------------

Frontend and application model::

    from repro import compile_source, leaf_array
    program = compile_source(source_code)       # mini-C -> CDFG -> BSBs
    program.cdfg                                 # the one program tree
    bsbs = program.bsbs                          # its leaf-BSB array,
                                                 # as leaf_array builds it

The allocation algorithm (the paper's contribution)::

    from repro import default_library, allocate
    library = default_library()
    result = allocate(bsbs, library, area=20000.0)
    result.allocation                            # RMap: units per resource

Evaluation via PACE partitioning::

    from repro import TargetArchitecture, evaluate_allocation
    arch = TargetArchitecture(library=library, total_area=20000.0)
    evaluation = evaluate_allocation(bsbs, result.allocation, arch)
    evaluation.speedup                           # the paper's SU metric
"""

from repro.ir import OpType, Operation, DFG
from repro.bsb import LeafBSB, leaf_array
from repro.hwlib import Technology, Resource, ResourceLibrary, default_library
from repro.sched import (
    asap_schedule,
    alap_schedule,
    list_schedule,
    mobility,
    interval_overlap,
)
from repro.swmodel import Processor, default_processor
from repro.core import (
    RMap,
    allocate,
    AllocationResult,
    estimated_controller_area,
    furo,
    UrgencyState,
    prioritize,
    asap_restrictions,
    exhaustive_best_allocation,
    design_iteration,
)
from repro.partition import (
    TargetArchitecture,
    evaluate_allocation,
    pace_partition,
    speedup_percent,
)
from repro.core.module_selection import (
    allocate_with_selection,
    FastestPolicy,
    CheapestPolicy,
    BalancedPolicy,
)
from repro.partition.multi_asic import multi_asic_codesign
from repro.hwlib.overheads import OverheadModel
from repro.engine import DesignPoint, EvalCache, Session, explore_grid

__version__ = "1.1.0"

__all__ = [
    "OpType",
    "Operation",
    "DFG",
    "LeafBSB",
    "leaf_array",
    "Technology",
    "Resource",
    "ResourceLibrary",
    "default_library",
    "asap_schedule",
    "alap_schedule",
    "list_schedule",
    "mobility",
    "interval_overlap",
    "Processor",
    "default_processor",
    "RMap",
    "allocate",
    "AllocationResult",
    "estimated_controller_area",
    "furo",
    "UrgencyState",
    "prioritize",
    "asap_restrictions",
    "exhaustive_best_allocation",
    "design_iteration",
    "TargetArchitecture",
    "evaluate_allocation",
    "pace_partition",
    "speedup_percent",
    "allocate_with_selection",
    "FastestPolicy",
    "CheapestPolicy",
    "BalancedPolicy",
    "multi_asic_codesign",
    "OverheadModel",
    "DesignPoint",
    "EvalCache",
    "Session",
    "explore_grid",
    "compile_source",
    "compile_vhdl",
    "load_application",
    "__version__",
]


def compile_source(source, name="app", inputs=None):
    """Compile mini-C source into a :class:`~repro.cdfg.builder.Program`.

    Imported lazily so the core algorithm stays importable even if the
    frontend is not needed.
    """
    from repro.cdfg.builder import compile_source as _compile
    return _compile(source, name=name, inputs=inputs)


def load_application(name):
    """Load one of the paper's benchmark applications by name.

    Valid names: ``straight``, ``hal``, ``man``, ``eigen``.
    """
    from repro.apps.registry import load_application as _load
    return _load(name)


def compile_vhdl(source, name="design", inputs=None):
    """Compile behavioural VHDL (the paper's other input language)."""
    from repro.lang.vhdl import compile_vhdl as _compile
    return _compile(source, name=name, inputs=inputs)
