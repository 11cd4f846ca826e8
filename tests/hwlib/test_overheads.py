"""Tests for interconnect/storage overheads (future work item 3)."""

import pytest

from repro.core.rmap import RMap
from repro.hwlib.overheads import (
    DEFAULT_OVERHEAD_MODEL,
    OverheadModel,
    interconnect_area,
    storage_area,
    total_overhead_area,
)
from repro.ir.ops import OpType

from tests.conftest import make_chain_dfg, make_leaf, make_parallel_dfg


class TestInterconnect:
    def test_empty_allocation_free(self, library):
        assert interconnect_area(RMap(), library) == 0.0

    def test_single_unit_free(self, library):
        assert interconnect_area(RMap({"adder": 1}), library) == 0.0

    def test_grows_superlinearly(self, library):
        areas = [interconnect_area(RMap({"adder": units}), library)
                 for units in (2, 4, 8)]
        assert areas[1] > 2 * areas[0]
        assert areas[2] > 2 * areas[1]

    def test_model_parameters_scale(self, library):
        allocation = RMap({"adder": 4})
        narrow = interconnect_area(
            allocation, library, OverheadModel(word_width_factor=0.1))
        wide = interconnect_area(
            allocation, library, OverheadModel(word_width_factor=1.0))
        assert wide == pytest.approx(10 * narrow)

    def test_counts_all_resources(self, library):
        homogeneous = interconnect_area(RMap({"adder": 4}), library)
        mixed = interconnect_area(
            RMap({"adder": 2, "multiplier": 2}), library)
        assert mixed == pytest.approx(homogeneous)


class TestStorage:
    def test_no_bsbs(self, library):
        base = storage_area([], library)
        assert base == (DEFAULT_OVERHEAD_MODEL.register_words
                        * library.technology.register_area
                        * DEFAULT_OVERHEAD_MODEL.word_width_factor)

    def test_wider_blocks_need_more_registers(self, library):
        narrow = make_leaf(make_chain_dfg([OpType.ADD] * 6, "narrow"))
        wide = make_leaf(make_parallel_dfg(OpType.ADD, 6, "wide"))
        assert (storage_area([wide], library)
                > storage_area([narrow], library))

    def test_max_over_bsbs(self, library):
        wide = make_leaf(make_parallel_dfg(OpType.ADD, 6, "wide"))
        wider = make_leaf(make_parallel_dfg(OpType.ADD, 9, "wider"))
        assert storage_area([wide, wider], library) == \
            storage_area([wider], library)


class TestEvaluationIntegration:
    def test_overheads_reduce_speedup(self, library):
        from repro.partition.evaluate import evaluate_allocation
        from repro.partition.model import TargetArchitecture

        bsb = make_leaf(make_parallel_dfg(OpType.ADD, 6, "hot"),
                        profile=100, name="hot", reads={"a"},
                        writes={"b"})
        architecture = TargetArchitecture(library=library,
                                          total_area=1400.0)
        allocation = RMap({"adder": 6})
        plain = evaluate_allocation([bsb], allocation, architecture,
                                    area_quanta=100)
        charged = evaluate_allocation(
            [bsb], allocation, architecture, area_quanta=100,
            overhead_model=OverheadModel(word_width_factor=1.0))
        assert charged.overhead_area > 0
        assert charged.speedup <= plain.speedup

    def test_design_iteration_trims_harder_with_overheads(self, library):
        """Accounting for interconnect makes big allocations less
        attractive: the reduce-only iteration removes at least as many
        units as without the model."""
        from repro.core.iteration import design_iteration
        from repro.partition.model import TargetArchitecture

        bsbs = [
            make_leaf(make_parallel_dfg(OpType.ADD, 6, "hot"),
                      profile=100, name="hot", reads={"a"},
                      writes={"b"}),
            make_leaf(make_parallel_dfg(OpType.MUL, 2, "warm"),
                      profile=30, name="warm", reads={"b"},
                      writes={"c"}),
        ]
        architecture = TargetArchitecture(library=library,
                                          total_area=4000.0)
        allocation = RMap({"adder": 6, "multiplier": 2})
        plain = design_iteration(bsbs, allocation, architecture,
                                 area_quanta=100)
        charged = design_iteration(
            bsbs, allocation, architecture, area_quanta=100,
            overhead_model=OverheadModel(word_width_factor=1.0))
        def units(rmap):
            return sum(rmap.as_dict().values())

        removed_plain = units(allocation) - units(plain.final_allocation)
        removed_charged = (units(allocation)
                           - units(charged.final_allocation))
        assert removed_charged >= removed_plain
