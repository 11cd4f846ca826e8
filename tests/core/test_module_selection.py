"""Tests for the module-selection extension (future work item 1)."""

import pytest

from repro.core.allocator import allocate
from repro.core.module_selection import (
    BalancedPolicy,
    CheapestPolicy,
    FastestPolicy,
    allocate_with_selection,
)
from repro.core.restrictions import asap_type_parallelism
from repro.hwlib.library import ResourceLibrary
from repro.ir.ops import OpType

from tests.conftest import make_leaf, make_parallel_dfg


@pytest.fixture
def mixed_library():
    lib = ResourceLibrary("mixed")
    lib.add_single("fast-adder", OpType.ADD, area=240.0, latency=1)
    lib.add_single("slow-adder", OpType.ADD, area=80.0, latency=3)
    lib.add_single("fast-mult", OpType.MUL, area=1600.0, latency=1)
    lib.add_single("slow-mult", OpType.MUL, area=700.0, latency=4)
    lib.add_single("constgen", OpType.CONST, area=16.0, latency=1)
    return lib


@pytest.fixture
def app():
    hot = make_leaf(make_parallel_dfg(OpType.MUL, 3, "hot"),
                    profile=200, name="hot", reads={"a"}, writes={"b"})
    adds = make_leaf(make_parallel_dfg(OpType.ADD, 4, "adds"),
                     profile=50, name="adds", reads={"b"}, writes={"c"})
    return [hot, adds]


class TestPolicies:
    def test_fastest_picks_lowest_latency(self, mixed_library):
        chosen = FastestPolicy().choose(
            OpType.MUL, mixed_library.candidates_for(OpType.MUL),
            10000.0, 1.0)
        assert chosen.name == "fast-mult"

    def test_cheapest_picks_lowest_area(self, mixed_library):
        chosen = CheapestPolicy().choose(
            OpType.MUL, mixed_library.candidates_for(OpType.MUL),
            10000.0, 1.0)
        assert chosen.name == "slow-mult"

    def test_balanced_minimises_area_delay(self, mixed_library):
        # fast-mult: 1600*1 = 1600; slow-mult: 700*4 = 2800.
        chosen = BalancedPolicy().choose(
            OpType.MUL, mixed_library.candidates_for(OpType.MUL),
            10000.0, 1.0)
        assert chosen.name == "fast-mult"

    def test_policies_respect_budget(self, mixed_library):
        chosen = FastestPolicy().choose(
            OpType.MUL, mixed_library.candidates_for(OpType.MUL),
            800.0, 1.0)
        assert chosen.name == "slow-mult"  # fast one does not fit

    def test_no_affordable_candidate(self, mixed_library):
        chosen = CheapestPolicy().choose(
            OpType.MUL, mixed_library.candidates_for(OpType.MUL),
            100.0, 1.0)
        assert chosen is None


class TestSelectionRestrictions:
    def test_caps_per_type(self, mixed_library, app):
        caps = asap_type_parallelism(app, library=mixed_library)
        assert caps[OpType.MUL] == 3
        assert caps[OpType.ADD] == 4


class TestAllocateWithSelection:
    def test_allocates_mixes(self, mixed_library, app):
        result = allocate_with_selection(app, mixed_library,
                                         area=8000.0,
                                         policy=CheapestPolicy())
        allocation = result.allocation
        # Cheapest policy favours the slow variants.
        assert allocation["slow-mult"] >= 1
        assert allocation["slow-adder"] >= 1
        assert allocation["fast-mult"] == 0

    def test_fastest_policy_buys_speed(self, mixed_library, app):
        result = allocate_with_selection(app, mixed_library,
                                         area=20000.0,
                                         policy=FastestPolicy())
        assert result.allocation["fast-mult"] >= 1

    def test_type_caps_respected(self, mixed_library, app):
        from repro.core.furo import allocated_units_for

        result = allocate_with_selection(app, mixed_library,
                                         area=10**6,
                                         policy=CheapestPolicy())
        caps = asap_type_parallelism(app, library=mixed_library)
        for optype, cap in caps.items():
            assert allocated_units_for(optype, result.allocation,
                                       mixed_library) <= cap

    def test_area_never_exceeded(self, mixed_library, app):
        for area in (1000.0, 4000.0, 12000.0):
            result = allocate_with_selection(app, mixed_library,
                                             area=area)
            used = (result.result.datapath_area
                    + result.result.controller_area)
            assert used <= area + 1e-9

    def test_degenerates_to_default_on_single_choice(self, library,
                                                     two_bsbs):
        """With one unit per type, selection reproduces Algorithm 1."""
        plain = allocate(two_bsbs, library, area=20000.0)
        selected = allocate_with_selection(two_bsbs, library,
                                           area=20000.0,
                                           policy=FastestPolicy())
        assert selected.allocation == plain.allocation

    def test_policy_name_recorded(self, mixed_library, app):
        result = allocate_with_selection(app, mixed_library, area=5000.0,
                                         policy=CheapestPolicy())
        assert result.policy_name == "cheapest"

    def test_selection_evaluation_end_to_end(self, mixed_library, app):
        """Mixed allocations flow through PACE via the hetero path."""
        from repro.partition.evaluate import evaluate_allocation
        from repro.partition.model import TargetArchitecture

        architecture = TargetArchitecture(library=mixed_library,
                                          total_area=9000.0)
        result = allocate_with_selection(app, mixed_library, area=9000.0,
                                         policy=CheapestPolicy())
        evaluation = evaluate_allocation(app, result.allocation,
                                         architecture, area_quanta=100)
        assert evaluation.speedup > 0.0
