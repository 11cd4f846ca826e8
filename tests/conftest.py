"""Shared fixtures for the test suite."""

import pytest

from repro.bsb.bsb import LeafBSB
from repro.cdfg.nodes import CdfgLeaf
from repro.hwlib.library import default_library
from repro.ir.dfg import DFG
from repro.ir.ops import OpType
from repro.swmodel.processor import default_processor


@pytest.fixture
def library():
    """The default resource library."""
    return default_library()


@pytest.fixture
def processor():
    """The default processor model."""
    return default_processor()


def make_chain_dfg(optypes, name="chain"):
    """A DFG whose operations form a single dependency chain."""
    dfg = DFG(name)
    previous = None
    for index, optype in enumerate(optypes):
        op = dfg.new_operation(optype, label="n%d" % index)
        if previous is not None:
            dfg.add_dependency(previous, op)
        previous = op
    return dfg


def make_parallel_dfg(optype, count, name="parallel"):
    """A DFG of ``count`` independent operations of one type."""
    dfg = DFG(name)
    for index in range(count):
        dfg.new_operation(optype, label="p%d" % index)
    return dfg


def make_diamond_dfg(name="diamond"):
    """Two parallel MULs feeding an ADD (the smoke-test classic)."""
    dfg = DFG(name)
    left = dfg.new_operation(OpType.MUL, label="left")
    right = dfg.new_operation(OpType.MUL, label="right")
    join = dfg.new_operation(OpType.ADD, label="join")
    dfg.add_dependency(left, join)
    dfg.add_dependency(right, join)
    return dfg


def make_leaf(dfg, profile=1, name="", reads=(), writes=()):
    """Wrap a DFG in a LeafBSB."""
    return LeafBSB(dfg, profile_count=profile, name=name or dfg.name,
                   reads=reads, writes=writes)


def make_cdfg_leaf(name, profile=1, dfg=None):
    """A CDFG leaf as lowering and profiling leave it (a diamond DFG
    unless ``dfg`` is given)."""
    leaf = CdfgLeaf(name=name)
    leaf.dfg = make_diamond_dfg() if dfg is None else dfg
    leaf.exec_count = profile
    leaf.reads = {"in_" + name}
    leaf.writes = {"out_" + name}
    return leaf


@pytest.fixture
def diamond_bsb():
    """A single-BSB application: MUL, MUL -> ADD."""
    return make_leaf(make_diamond_dfg(), profile=10, name="B1",
                     reads={"x", "y"}, writes={"z"})


@pytest.fixture
def two_bsbs():
    """Two BSBs: a multiply-heavy one and an add-heavy one."""
    mul_heavy = make_leaf(make_diamond_dfg("mulheavy"), profile=100,
                          name="B1", reads={"a"}, writes={"b"})
    add_heavy = make_leaf(make_parallel_dfg(OpType.ADD, 6, "addheavy"),
                          profile=10, name="B2", reads={"c"}, writes={"d"})
    return [mul_heavy, add_heavy]
