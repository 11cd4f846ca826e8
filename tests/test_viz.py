"""Tests for the DOT exporters."""

import pytest

from repro.cdfg.builder import build_cdfg, compile_source
from repro.cdfg.lowering import lower_all_leaves
from repro.ir.ops import OpType
from repro.lang.parser import parse
from repro.sched.asap import asap_schedule
from repro.viz.dot import (
    bsb_hierarchy_to_dot,
    cdfg_to_dot,
    dfg_to_dot,
    schedule_to_dot,
)

from tests.conftest import make_diamond_dfg

SOURCE = """
x = 1;
while (x < 5) { x = x + 1; }
if (x == 5) { y = 2; } else { y = 3; }
"""


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE, name="viz")


class TestDfgDot:
    def test_nodes_and_edges_present(self):
        dfg = make_diamond_dfg()
        dot = dfg_to_dot(dfg)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert dot.count("->") == 2
        assert dot.count("[label=") == 3

    def test_op_types_in_labels(self):
        dfg = make_diamond_dfg()
        dot = dfg_to_dot(dfg)
        assert "mul" in dot
        assert "add" in dot

    def test_label_quoting(self):
        from repro.ir.dfg import DFG
        dfg = DFG("q")
        dfg.new_operation(OpType.ADD, label='tri"cky')
        dot = dfg_to_dot(dfg)
        assert r"\"" in dot

    def test_custom_name(self):
        dot = dfg_to_dot(make_diamond_dfg(), name="mygraph")
        assert "mygraph" in dot.splitlines()[0]


class TestCdfgDot:
    def test_control_shapes(self, program):
        dot = cdfg_to_dot(program.cdfg)
        assert "diamond" in dot   # branch node
        assert "ellipse" in dot   # loop node
        assert "[test]" in dot    # test leaves marked

    def test_profile_counts_shown(self, program):
        dot = cdfg_to_dot(program.cdfg)
        assert "x5" in dot or "x6" in dot  # loop execution counts

    def test_all_leaves_present(self, program):
        dot = cdfg_to_dot(program.cdfg)
        for leaf in program.cdfg.leaves():
            assert leaf.name in dot


class TestBsbDot:
    def test_hierarchy_rendered(self, program):
        dot = bsb_hierarchy_to_dot(program.cdfg)
        assert "folder" in dot
        for bsb in program.bsbs:
            assert bsb.name in dot

    def test_edges_connect_parents(self, program):
        dot = bsb_hierarchy_to_dot(program.cdfg)
        assert "->" in dot


class TestScheduleDot:
    def test_clusters_per_step(self, library):
        dfg = make_diamond_dfg()
        schedule = asap_schedule(dfg, library=library)
        dot = schedule_to_dot(schedule)
        assert "cluster_t1" in dot
        assert 't="t=1"' not in dot  # labels quoted properly
        assert 'label="t=1"' in dot

    def test_latency_in_labels(self, library):
        dfg = make_diamond_dfg()
        schedule = asap_schedule(dfg, library=library)
        dot = schedule_to_dot(schedule)
        assert "mul (2)" in dot

    def test_empty_schedule(self, library):
        from repro.ir.dfg import DFG
        from repro.sched.schedule import Schedule, latency_table
        dfg = DFG("e")
        schedule = Schedule(dfg, latency_table(dfg))
        dot = schedule_to_dot(schedule)
        assert dot.startswith("digraph")

    def test_unplaced_ops_declared_dashed(self):
        from repro.ir.dfg import DFG
        from repro.sched.schedule import Schedule, latency_table
        dfg = DFG("partial")
        a = dfg.new_operation(OpType.ADD)
        b = dfg.new_operation(OpType.MUL)
        dfg.add_dependency(a, b)
        schedule = Schedule(dfg, latency_table(dfg))
        schedule.place(a, 1)  # b left unplaced
        dot = schedule_to_dot(schedule)
        # The unplaced op is declared explicitly (dashed), so the
        # dependency edge does not conjure an implicit bare node.
        assert 'n1 [label="mul (unplaced)"' in dot
        assert 'style="filled,dashed"' in dot
        assert "n0 -> n1;" in dot
        declared = [line for line in dot.splitlines()
                    if "[label=" in line]
        assert len(declared) == 2  # every edge endpoint is declared

    def test_duplicate_dependency_edges_collapse(self, library):
        schedule_dot = schedule_to_dot(
            asap_schedule(_StubGraph.diamond_with_duplicates().as_real(),
                          library=library))
        assert schedule_dot.count("->") == 3


class _StubOp:
    def __init__(self, uid, optype, label=None):
        self.uid = uid
        self.optype = optype
        self.label = label


class _StubGraph:
    """Duck-typed graph: duplicate successor entries, scrambled uids.

    Real :class:`~repro.ir.dfg.DFG` instances back edges with a
    ``networkx.DiGraph``, which silently dedupes — so the duplicate-
    edge and dense-id contracts are pinned against a stub that *can*
    hand the exporter duplicates and wild uids.
    """

    name = "stub"

    def __init__(self, ops, successors):
        self._ops = ops
        self._successors = successors

    def operations(self):
        return list(self._ops)

    def successors(self, op):
        return list(self._successors.get(op.uid, ()))

    @classmethod
    def diamond_with_duplicates(cls):
        const = _StubOp(9001, OpType.CONST)
        mul = _StubOp(137, OpType.MUL)
        add = _StubOp(4242, OpType.ADD)
        return cls([const, mul, add],
                   {9001: [mul, mul, add],   # const feeds mul twice
                    137: [add, add]})        # mul feeds add twice

    def as_real(self):
        """The same diamond as a real DFG (for schedule tests)."""
        from repro.ir.dfg import DFG
        dfg = DFG("stub")
        const = dfg.new_operation(OpType.CONST)
        mul = dfg.new_operation(OpType.MUL)
        add = dfg.new_operation(OpType.ADD)
        dfg.add_dependency(const, mul)
        dfg.add_dependency(const, add)
        dfg.add_dependency(mul, add)
        return dfg


class TestDotDeterminism:
    def test_duplicate_edges_emitted_once(self):
        dot = dfg_to_dot(_StubGraph.diamond_with_duplicates())
        assert dot.count("->") == 3
        assert dot.count("n0 -> n1;") == 1
        assert dot.count("n1 -> n2;") == 1

    def test_dense_ids_not_raw_uids(self):
        dot = dfg_to_dot(_StubGraph.diamond_with_duplicates())
        assert "n9001" not in dot
        assert "n0 " in dot and "n1 " in dot and "n2 " in dot

    def test_edges_in_sorted_order(self):
        dot = dfg_to_dot(_StubGraph.diamond_with_duplicates())
        edges = [line.strip() for line in dot.splitlines()
                 if "->" in line]
        assert edges == ["n0 -> n1;", "n0 -> n2;", "n1 -> n2;"]

    def test_render_is_reproducible(self):
        first = dfg_to_dot(_StubGraph.diamond_with_duplicates())
        second = dfg_to_dot(_StubGraph.diamond_with_duplicates())
        assert first == second
