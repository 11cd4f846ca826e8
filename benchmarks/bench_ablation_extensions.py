"""Ablations for the paper's future-work extensions (section 6).

The conclusion lists three directions, all implemented here:

1. **module selection** — "selection between several resources that can
   execute the same type of operation": compare the selection policies
   on a two-flavour library against the single-module baseline;
2. **more than one ASIC** — compare one big ASIC against the same area
   split across two chips;
3. **interconnect and storage size estimates** — measure how charging
   the overhead model changes the evaluation and the design iteration.
"""

import pytest

from repro.core.allocator import allocate
from repro.core.iteration import design_iteration
from repro.core.module_selection import (
    BalancedPolicy,
    CheapestPolicy,
    FastestPolicy,
    allocate_with_selection,
)
from repro.core.rmap import RMap
from repro.hwlib.library import ResourceLibrary, default_library
from repro.hwlib.overheads import OverheadModel
from repro.ir.ops import OpType
from repro.partition.evaluate import evaluate_allocation
from repro.partition.model import TargetArchitecture
from repro.partition.multi_asic import multi_asic_codesign


def _units(allocation):
    """Total allocated instances across all resources."""
    return sum(allocation.as_dict().values())


def mixed_library():
    """The default library plus slow/cheap adder and multiplier flavours."""
    lib = ResourceLibrary("mixed-ablation")
    for resource in default_library().resources():
        lib.add(resource)
    lib.add_single("ripple-adder", OpType.ADD, area=45.0, latency=2)
    lib.add_single("serial-mult", OpType.MUL, area=400.0, latency=6)
    return lib


# ----------------------------------------------------------------------
# 1. Module selection
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", [FastestPolicy(), CheapestPolicy(),
                                    BalancedPolicy()],
                         ids=["fastest", "cheapest", "balanced"])
def test_module_selection_policies(benchmark, programs, policy, capsys):
    program = programs["hal"]
    library = mixed_library()
    total_area = 5200.0
    architecture = TargetArchitecture(library=library,
                                      total_area=total_area)

    selected = benchmark.pedantic(
        lambda: allocate_with_selection(program.bsbs, library,
                                        area=total_area, policy=policy),
        rounds=1, iterations=1)
    evaluation = evaluate_allocation(program.bsbs, selected.allocation,
                                     architecture, area_quanta=120)
    with capsys.disabled():
        print("\nhal @%.0f GE, policy %-8s: SU %5.0f%%  %s"
              % (total_area, policy.name, evaluation.speedup,
                 selected.allocation))
    assert evaluation.speedup > 0.0


def test_balanced_selection_matches_baseline(benchmark, programs,
                                             capsys):
    """The balanced (area-delay) policy reproduces the single-module
    baseline's speed-up while having the freedom to add cheap modules —
    the safe default the paper's extension would ship with.  The
    cheapest policy trades speed for area and lands measurably lower
    (printed for the record)."""
    program = programs["hal"]
    library = mixed_library()
    total_area = 5200.0
    architecture = TargetArchitecture(library=library,
                                      total_area=total_area)

    def run_all():
        baseline = allocate(program.bsbs, library, area=total_area)
        base_eval = evaluate_allocation(program.bsbs,
                                        baseline.allocation,
                                        architecture, area_quanta=120)
        results = {"baseline": base_eval.speedup}
        for policy in (BalancedPolicy(), CheapestPolicy()):
            selected = allocate_with_selection(program.bsbs, library,
                                               area=total_area,
                                               policy=policy)
            evaluation = evaluate_allocation(
                program.bsbs, selected.allocation, architecture,
                area_quanta=120)
            results[policy.name] = evaluation.speedup
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nhal selection ablation: %s"
              % {name: "%.0f%%" % value
                 for name, value in results.items()})
    assert results["balanced"] >= 0.95 * results["baseline"]
    # The cheapest policy is a genuine trade-off point, not a free win.
    assert results["cheapest"] < results["baseline"]


# ----------------------------------------------------------------------
# 2. Multi-ASIC
# ----------------------------------------------------------------------
def test_multi_asic_split(benchmark, programs, library, capsys):
    program = programs["eigen"]
    total = 15000.0

    def run():
        one = multi_asic_codesign(program.bsbs, library, [total])
        two = multi_asic_codesign(program.bsbs, library,
                                  [total / 2, total / 2])
        return one, two

    one, two = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\neigen: one %.0f-GE ASIC: SU %.0f%%; two %.0f-GE "
              "ASICs: SU %.0f%% (%d + %d BSBs moved)"
              % (total, one.speedup, total / 2, two.speedup,
                 len(two.asics[0].hw_names),
                 len(two.asics[1].hw_names) if len(two.asics) > 1 else 0))
    assert one.speedup > 0
    assert two.speedup > 0
    # Each chip gets an allocation tuned to its residual workload, so
    # the split stays competitive with the single big ASIC (the paper
    # leaves the trade-off open; the print records the measured point).
    assert two.speedup >= 0.75 * one.speedup
    assert len(two.asics) == 2


# ----------------------------------------------------------------------
# 3. Interconnect and storage overheads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["hal", "man"])
def test_overhead_model_ablation(benchmark, programs, library, name,
                                 capsys):
    program = programs[name]
    from repro.apps.registry import application_spec

    spec = application_spec(name)
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)
    allocation = allocate(program.bsbs, library,
                          area=spec.total_area).allocation
    model = OverheadModel()  # default word-width factor

    def run():
        plain = evaluate_allocation(program.bsbs, allocation,
                                    architecture, area_quanta=120)
        charged = evaluate_allocation(program.bsbs, allocation,
                                      architecture, area_quanta=120,
                                      overhead_model=model)
        iterated = design_iteration(program.bsbs, allocation,
                                    architecture, area_quanta=120,
                                    overhead_model=model)
        return plain, charged, iterated

    plain, charged, iterated = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    with capsys.disabled():
        print("\n%s: SU %.0f%% ignoring overheads, %.0f%% charging "
              "%.0f GE of interconnect/storage; overhead-aware "
              "iteration reaches %.0f%% after trimming %d units"
              % (name, plain.speedup, charged.speedup,
                 charged.overhead_area,
                 iterated.final_evaluation.speedup,
                 _units(allocation) - _units(iterated.final_allocation)))
    assert charged.overhead_area > 0
    assert charged.speedup <= plain.speedup + 1e-9
    assert (iterated.final_evaluation.speedup
            >= charged.speedup - 1e-9)
    if name == "man":
        # The 24 wasted constant generators widen every operand mux:
        # under the interconnect model the man over-allocation is even
        # more damaging than Table 1 shows.
        assert charged.speedup < 0.5 * plain.speedup


# ----------------------------------------------------------------------
# 4. Restrictions ablation (why section 4.3 exists)
# ----------------------------------------------------------------------
def test_restrictions_ablation(benchmark, programs, library, capsys):
    """Remove the ASAP-parallelism caps and watch the greedy algorithm
    over-allocate: section 4.3 exists because 'a situation where it
    allocates too many resources that can execute a specific operation
    type can occur'."""
    from repro.apps.registry import application_spec
    from repro.core.restrictions import asap_restrictions

    program = programs["man"]
    spec = application_spec("man")
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)

    def run():
        restricted = allocate(program.bsbs, library,
                              area=spec.total_area)
        relaxed_caps = RMap({
            name: 10 * count for name, count
            in asap_restrictions(program.bsbs, library).items()})
        unrestricted = allocate(program.bsbs, library,
                                area=spec.total_area,
                                restrictions=relaxed_caps)
        r_eval = evaluate_allocation(program.bsbs,
                                     restricted.allocation,
                                     architecture, area_quanta=120)
        u_eval = evaluate_allocation(program.bsbs,
                                     unrestricted.allocation,
                                     architecture, area_quanta=120)
        return restricted, unrestricted, r_eval, u_eval

    restricted, unrestricted, r_eval, u_eval = benchmark.pedantic(
        run, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nman restrictions ablation: capped %d units -> SU "
              "%.0f%%; x10 caps %d units -> SU %.0f%%"
              % (_units(restricted.allocation), r_eval.speedup,
                 _units(unrestricted.allocation), u_eval.speedup))
    # Without meaningful caps the allocation balloons...
    assert (_units(unrestricted.allocation)
            > _units(restricted.allocation))
    # ...and the partitioning outcome is no better.
    assert u_eval.speedup <= r_eval.speedup + 1e-9
