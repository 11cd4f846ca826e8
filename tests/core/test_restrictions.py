"""Tests for ASAP-parallelism allocation restrictions (section 4.3)."""

from repro.core.restrictions import asap_restrictions, asap_type_parallelism
from repro.ir.dfg import DFG
from repro.ir.ops import OpType

from tests.conftest import make_chain_dfg, make_leaf, make_parallel_dfg


class TestTypeParallelism:
    def test_parallel_block(self, library):
        bsb = make_leaf(make_parallel_dfg(OpType.MUL, 5))
        peaks = asap_type_parallelism([bsb], library=library)
        assert peaks[OpType.MUL] == 5

    def test_chain_has_unit_parallelism(self, library):
        bsb = make_leaf(make_chain_dfg([OpType.ADD] * 6))
        peaks = asap_type_parallelism([bsb], library=library)
        assert peaks[OpType.ADD] == 1

    def test_max_over_bsbs(self, library):
        wide = make_leaf(make_parallel_dfg(OpType.ADD, 4, "wide"))
        narrow = make_leaf(make_parallel_dfg(OpType.ADD, 2, "narrow"))
        peaks = asap_type_parallelism([narrow, wide], library=library)
        assert peaks[OpType.ADD] == 4

    def test_multicycle_ops_overlap_in_flight(self, library):
        # Chained MULs never overlap, but two independent 2-cycle MULs
        # issued in the same ASAP step count as 2.
        bsb = make_leaf(make_parallel_dfg(OpType.MUL, 2))
        peaks = asap_type_parallelism([bsb], library=library)
        assert peaks[OpType.MUL] == 2


class TestRestrictions:
    def test_caps_match_peaks(self, library):
        bsb = make_leaf(make_parallel_dfg(OpType.MUL, 3))
        restrictions = asap_restrictions([bsb], library)
        assert restrictions["multiplier"] == 3

    def test_absent_types_not_restricted(self, library):
        bsb = make_leaf(make_parallel_dfg(OpType.MUL, 3))
        restrictions = asap_restrictions([bsb], library)
        assert "divider" not in restrictions

    def test_paper_example_max_three_multipliers(self, library):
        """Section 4.3's example: 'a maximum of 3 multipliers'."""
        dfg = DFG("three-muls")
        muls = [dfg.new_operation(OpType.MUL) for _ in range(3)]
        join = dfg.new_operation(OpType.ADD)
        for mul in muls:
            dfg.add_dependency(mul, join)
        restrictions = asap_restrictions([make_leaf(dfg)], library)
        assert restrictions["multiplier"] == 3

    def test_mixed_types(self, library):
        dfg = DFG("mixed")
        for _ in range(2):
            dfg.new_operation(OpType.ADD)
        for _ in range(4):
            dfg.new_operation(OpType.DIV)
        restrictions = asap_restrictions([make_leaf(dfg)], library)
        assert restrictions["adder"] == 2
        assert restrictions["divider"] == 4
