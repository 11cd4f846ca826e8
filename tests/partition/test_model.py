"""Tests for the target architecture and BSB cost model."""

import pytest

from repro.core.rmap import RMap
from repro.engine.cache import EvalCache
from repro.errors import PartitionError
from repro.ir.ops import OpType
from repro.partition.evaluate import bsb_costs
from repro.partition.model import TargetArchitecture, hardware_steps

from tests.conftest import make_diamond_dfg, make_leaf, make_parallel_dfg


class TestTargetArchitecture:
    def test_requires_library(self):
        with pytest.raises(PartitionError):
            TargetArchitecture(library=None)

    def test_rejects_bad_area(self, library):
        with pytest.raises(PartitionError):
            TargetArchitecture(library=library, total_area=0.0)

    def test_rejects_negative_comm(self, library):
        with pytest.raises(PartitionError):
            TargetArchitecture(library=library, comm_cycles_per_word=-1.0)

    def test_rejects_bad_cycle_ratio(self, library):
        with pytest.raises(PartitionError):
            TargetArchitecture(library=library, hw_cycle_ratio=0.0)


@pytest.fixture
def architecture(library):
    return TargetArchitecture(library=library, total_area=20000.0)


class TestHardwareSteps:
    def test_steps_match_list_schedule(self, architecture):
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 4))
        assert hardware_steps(bsb, RMap({"adder": 2}), architecture) == 2

    def test_missing_unit_returns_none(self, architecture):
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 4))
        assert hardware_steps(bsb, RMap(), architecture) is None

    def test_cache_hits_across_irrelevant_changes(self, architecture):
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 4))
        cache = EvalCache()
        first = hardware_steps(bsb, RMap({"adder": 2, "divider": 1}),
                               architecture, cache=cache)
        assert len(cache.sched) == 1
        second = hardware_steps(bsb, RMap({"adder": 2, "divider": 9}),
                                architecture, cache=cache)
        assert first == second
        assert len(cache.sched) == 1  # divider count is irrelevant to ADDs

    def test_cache_distinguishes_relevant_counts(self, architecture):
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 4))
        cache = EvalCache()
        hardware_steps(bsb, RMap({"adder": 1}), architecture, cache=cache)
        hardware_steps(bsb, RMap({"adder": 2}), architecture, cache=cache)
        assert len(cache.sched) == 2

    def test_counts_capped_at_useful(self, architecture):
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 4))
        cache = EvalCache()
        first = hardware_steps(bsb, RMap({"adder": 4}), architecture,
                               cache=cache)
        second = hardware_steps(bsb, RMap({"adder": 40}), architecture,
                                cache=cache)
        assert first == second
        assert len(cache.sched) == 1


class TestBsbCost:
    def test_movable_cost(self, architecture):
        bsb = make_leaf(make_diamond_dfg(), profile=10, name="d",
                        reads={"x", "y"}, writes={"z"})
        cost = bsb_costs([bsb], RMap({"multiplier": 2, "adder": 1}),
                         architecture)[0]
        assert cost.movable
        assert cost.sw_time > cost.hw_time > 0
        assert cost.controller_area > 0
        assert cost.reads == {"x", "y"}

    def test_unmovable_cost(self, architecture):
        bsb = make_leaf(make_diamond_dfg(), profile=10)
        cost = bsb_costs([bsb], RMap({"adder": 1}), architecture)[0]
        assert not cost.movable
        assert cost.gain == 0.0
        assert cost.controller_area == float("inf")

    def test_hw_time_scales_with_cycle_ratio(self, library):
        slow_hw = TargetArchitecture(library=library, total_area=20000.0,
                                     hw_cycle_ratio=2.0)
        fast_hw = TargetArchitecture(library=library, total_area=20000.0,
                                     hw_cycle_ratio=1.0)
        bsb = make_leaf(make_diamond_dfg(), profile=10)
        allocation = RMap({"multiplier": 2, "adder": 1})
        slow = bsb_costs([bsb], allocation, slow_hw)[0]
        fast = bsb_costs([bsb], allocation, fast_hw)[0]
        assert slow.hw_time == pytest.approx(2 * fast.hw_time)

    def test_sw_time_matches_estimator(self, architecture, processor):
        from repro.swmodel.estimator import bsb_software_time

        bsb = make_leaf(make_diamond_dfg(), profile=7)
        cost = bsb_costs([bsb], RMap({"multiplier": 1, "adder": 1}),
                         architecture)[0]
        assert cost.sw_time == bsb_software_time(bsb, processor)

    def test_controller_area_uses_actual_schedule(self, architecture):
        # Fewer units -> longer schedule -> larger controller.
        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 6))
        tight = bsb_costs([bsb], RMap({"adder": 1}), architecture)[0]
        wide = bsb_costs([bsb], RMap({"adder": 6}), architecture)[0]
        assert tight.controller_area > wide.controller_area

    def test_bsb_costs_order_preserved(self, architecture):
        bsbs = [make_leaf(make_parallel_dfg(OpType.ADD, 2, "x%d" % i),
                          name="X%d" % i) for i in range(4)]
        costs = bsb_costs(bsbs, RMap({"adder": 2}), architecture)
        assert [cost.name for cost in costs] == [bsb.name for bsb in bsbs]
