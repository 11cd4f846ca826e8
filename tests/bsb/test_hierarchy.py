"""Tests for the BSB hierarchy as a view of the CDFG."""

import pytest

from repro.bsb.bsb import LeafBSB
from repro.bsb.hierarchy import hierarchy_lines, leaf_array
from repro.cdfg.nodes import CdfgLoop, CdfgSeq
from repro.errors import CdfgError
from repro.ir.dfg import DFG

from tests.conftest import make_cdfg_leaf


@pytest.fixture
def hierarchy():
    setup = make_cdfg_leaf("setup", 1)
    test = make_cdfg_leaf("test", 11)
    body = make_cdfg_leaf("body", 10)
    empty = make_cdfg_leaf("empty", 10, dfg=DFG("empty"))
    return CdfgSeq([setup, CdfgLoop(test, CdfgSeq([body, empty]))],
                   name="main")


class TestLeafArray:
    def test_flattening_order(self, hierarchy):
        bsbs = leaf_array(hierarchy)
        assert [bsb.name for bsb in bsbs] == ["setup", "test", "body"]
        assert [bsb.profile_count for bsb in bsbs] == [1, 11, 10]
        assert bsbs[2].reads == {"in_body"}
        assert bsbs[2].writes == {"out_body"}

    def test_rejects_non_bsb(self):
        with pytest.raises(CdfgError):
            leaf_array("nope")

    def test_single_leaf_root(self):
        leaf = make_cdfg_leaf("only", 3)
        [bsb] = leaf_array(leaf)
        assert isinstance(bsb, LeafBSB)
        assert (bsb.name, bsb.dfg, bsb.profile_count) == ("only", leaf.dfg, 3)


class TestRendering:
    def test_lines_mention_all_nodes(self, hierarchy):
        text = "\n".join(hierarchy_lines(hierarchy))
        for name in ("main", "setup", "test", "body", "empty"):
            assert name in text

    def test_leaf_lines_show_profile(self, hierarchy):
        text = "\n".join(hierarchy_lines(hierarchy))
        assert "profile 10" in text

    def test_indentation_reflects_depth(self, hierarchy):
        lines = hierarchy_lines(hierarchy)
        root_indent = len(lines[0]) - len(lines[0].lstrip())
        leaf_indent = len(lines[1]) - len(lines[1].lstrip())
        assert leaf_indent > root_indent
