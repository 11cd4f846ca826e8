"""PACE and exhaustive-search performance (the evaluation machinery).

Not a paper artefact by itself, but the paper's footnote — "evaluating
one allocation takes more than 30 seconds which makes exhaustive
evaluation impossible" for eigen's ~1,000,000 allocations — rests on
the cost of a single PACE evaluation.  These benchmarks pin down our
substrate's equivalents: one PACE run, one full allocation evaluation
with and without the schedule-length cache, and the DP's growth in the
BSB count.
"""

import pytest

from repro.apps.registry import application_spec
from repro.core.exhaustive import space_size
from repro.engine.cache import EvalCache
from repro.partition.evaluate import bsb_costs, evaluate_allocation
from repro.partition.model import BSBCost, TargetArchitecture
from repro.partition.pace import pace_partition


def synthetic_costs(count):
    costs = []
    for index in range(count):
        costs.append(BSBCost(
            name="b%d" % index,
            profile_count=1 + (index % 7),
            sw_time=float(100 + 37 * index % 900),
            hw_time=float(10 + index % 50),
            controller_area=float(50 + (index * 13) % 200),
            reads=frozenset({"v%d" % (index % 9)}),
            writes=frozenset({"v%d" % ((index + 1) % 9)}),
        ))
    return costs


@pytest.mark.parametrize("count", [8, 32, 64])
def test_pace_scaling(benchmark, library, count):
    architecture = TargetArchitecture(library=library, total_area=10**6)
    costs = synthetic_costs(count)
    result = benchmark(lambda: pace_partition(costs, architecture,
                                              5000.0, area_quanta=200))
    assert result.hybrid_time <= result.sw_time_all


def test_single_allocation_evaluation(benchmark, programs, library):
    """The paper's '30 seconds per allocation' equivalent (eigen)."""
    program = programs["eigen"]
    spec = application_spec("eigen")
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)
    allocation = {"adder": 2, "subtractor": 1, "multiplier": 1,
                  "divider": 1, "shifter": 2, "constgen": 2,
                  "comparator": 1, "mem-read": 2, "mem-write": 1,
                  "and-unit": 1, "mover": 1}
    evaluation = benchmark(
        lambda: evaluate_allocation(program.bsbs, allocation,
                                    architecture, area_quanta=120))
    assert evaluation.speedup > 0

    # The paper's eigen space-size point: ~10^6 allocations there, and
    # ours is of the same magnitude — exhaustive evaluation is out.
    assert space_size(program.bsbs, library) > 10**5


def test_cached_evaluation_much_faster(benchmark, programs, library):
    """The schedule-length cache is what makes our exhaustive search
    feasible where the paper's was not."""
    program = programs["eigen"]
    spec = application_spec("eigen")
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)
    allocation = {"adder": 2, "subtractor": 1, "multiplier": 1,
                  "divider": 1, "shifter": 2, "constgen": 2,
                  "comparator": 1, "mem-read": 2, "mem-write": 1,
                  "and-unit": 1, "mover": 1}
    cache = EvalCache()
    evaluate_allocation(program.bsbs, allocation, architecture,
                        area_quanta=120, cache=cache)  # warm up
    benchmark(lambda: evaluate_allocation(program.bsbs, allocation,
                                          architecture, area_quanta=120,
                                          cache=cache))


def test_bsb_cost_computation(benchmark, programs, library):
    program = programs["man"]
    spec = application_spec("man")
    architecture = TargetArchitecture(library=library,
                                      total_area=spec.total_area)
    allocation = {"adder": 1, "subtractor": 1, "multiplier": 2,
                  "shifter": 2, "constgen": 2, "comparator": 1,
                  "and-unit": 1, "mover": 1}
    costs = benchmark(lambda: bsb_costs(program.bsbs, allocation,
                                        architecture))
    assert len(costs) == len(program.bsbs)
