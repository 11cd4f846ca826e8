"""Tests for the leaf BSB and the hierarchy's control nodes."""

import pytest

from repro.bsb.bsb import LeafBSB
from repro.bsb.hierarchy import leaf_array
from repro.cdfg.nodes import CdfgBranch, CdfgLoop, CdfgSeq, CdfgWait
from repro.errors import CdfgError
from repro.ir.dfg import DFG
from repro.ir.ops import OpType

from tests.conftest import make_cdfg_leaf, make_diamond_dfg, make_leaf


class TestLeafBSB:
    def test_requires_dfg(self):
        with pytest.raises(CdfgError):
            LeafBSB("not a dfg")

    def test_negative_profile_rejected(self):
        with pytest.raises(CdfgError):
            LeafBSB(DFG("x"), profile_count=-1)

    def test_defaults(self):
        dfg = make_diamond_dfg()
        leaf = LeafBSB(dfg)
        assert leaf.profile_count == 1
        assert leaf.reads == frozenset()
        assert leaf.name == dfg.name

    def test_op_types_and_count(self):
        leaf = make_leaf(make_diamond_dfg())
        assert leaf.op_types() == {OpType.MUL, OpType.ADD}
        assert len(leaf.dfg) == 3

    def test_unique_uids(self):
        first = make_leaf(make_diamond_dfg())
        second = make_leaf(make_diamond_dfg())
        assert first.uid != second.uid


def leaf_names(root):
    return [bsb.name for bsb in leaf_array(root)]


class TestControlBSBs:
    """The hierarchy's control nodes are the CDFG's: each flattens into
    the leaf-BSB array in program order."""

    def test_sequence_flattens_in_order(self):
        seq = CdfgSeq([make_cdfg_leaf("L%d" % i) for i in range(3)])
        assert leaf_names(seq) == ["L0", "L1", "L2"]

    def test_loop_includes_test_first(self):
        loop = CdfgLoop(make_cdfg_leaf("test"),
                        CdfgSeq([make_cdfg_leaf("body")]))
        assert leaf_names(loop) == ["test", "body"]

    def test_branch_covers_all_branches(self):
        branch = CdfgBranch(make_cdfg_leaf("test"),
                            CdfgSeq([make_cdfg_leaf("then")]),
                            CdfgSeq([make_cdfg_leaf("else")]))
        assert leaf_names(branch) == ["test", "then", "else"]

    def test_wait_has_no_leaves(self):
        assert leaf_array(CdfgWait(3)) == []

    def test_nested_hierarchy(self):
        outer = CdfgSeq([CdfgSeq([make_cdfg_leaf("deep")])])
        assert leaf_names(outer) == ["deep"]
