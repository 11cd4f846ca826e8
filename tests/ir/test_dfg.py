"""Tests for the data-flow graph."""

import pytest

from repro.errors import CdfgError
from repro.ir.dfg import DFG
from repro.ir.ops import OpType, make_op

from tests.conftest import make_chain_dfg, make_diamond_dfg


class TestConstruction:
    def test_new_operation_adds_node(self):
        dfg = DFG("t")
        op = dfg.new_operation(OpType.ADD)
        assert op in dfg
        assert len(dfg) == 1

    def test_add_operation_rejects_non_operation(self):
        dfg = DFG("t")
        with pytest.raises(CdfgError):
            dfg.add_operation("not an op")

    def test_duplicate_uid_rejected(self):
        dfg = DFG("t")
        op = dfg.new_operation(OpType.ADD)
        with pytest.raises(CdfgError):
            dfg.add_operation(op)

    def test_dependency_requires_membership(self):
        dfg = DFG("t")
        inside = dfg.new_operation(OpType.ADD)
        outside = make_op(OpType.SUB)
        with pytest.raises(CdfgError):
            dfg.add_dependency(inside, outside)

    def test_self_dependency_rejected(self):
        dfg = DFG("t")
        op = dfg.new_operation(OpType.ADD)
        with pytest.raises(CdfgError):
            dfg.add_dependency(op, op)

    def test_cycle_rejected(self):
        dfg = make_chain_dfg([OpType.ADD, OpType.SUB])
        first, second = dfg.operations()
        with pytest.raises(CdfgError):
            dfg.add_dependency(second, first)

    def test_cycle_rejection_leaves_graph_unchanged(self):
        dfg = make_chain_dfg([OpType.ADD, OpType.SUB])
        first, second = dfg.operations()
        try:
            dfg.add_dependency(second, first)
        except CdfgError:
            pass
        assert dfg.successors(second) == []


class TestQueries:
    def test_operations_sorted_by_uid(self):
        dfg = make_chain_dfg([OpType.ADD, OpType.SUB, OpType.MUL])
        uids = [op.uid for op in dfg.operations()]
        assert uids == sorted(uids)

    def test_predecessors_successors(self):
        dfg = make_diamond_dfg()
        left, right, join = dfg.operations()
        assert dfg.successors(left) == [join]
        assert set(dfg.predecessors(join)) == {left, right}

    def test_transitive_successors(self):
        dfg = make_chain_dfg([OpType.ADD, OpType.SUB, OpType.MUL])
        first, second, third = dfg.operations()
        assert dfg.transitive_successors(first) == {second, third}
        assert dfg.transitive_successors(third) == set()

    def test_sources_and_sinks(self):
        dfg = make_diamond_dfg()
        left, right, join = dfg.operations()
        assert set(dfg.sources()) == {left, right}
        assert dfg.sinks() == [join]

    def test_topological_order_respects_edges(self):
        dfg = make_diamond_dfg()
        order = dfg.topological_order()
        positions = {op.uid: index for index, op in enumerate(order)}
        for op in dfg.operations():
            for successor in dfg.successors(op):
                assert positions[op.uid] < positions[successor.uid]

    def test_op_types(self):
        dfg = make_diamond_dfg()
        assert dfg.op_types() == {OpType.MUL, OpType.ADD}

    def test_count_by_type(self):
        dfg = make_diamond_dfg()
        counts = dfg.count_by_type()
        assert counts[OpType.MUL] == 2
        assert counts[OpType.ADD] == 1

    def test_operations_of_type(self):
        dfg = make_diamond_dfg()
        muls = dfg.operations_of_type(OpType.MUL)
        assert len(muls) == 2
        assert all(op.optype is OpType.MUL for op in muls)

    def test_operation_lookup_unknown_uid(self):
        dfg = DFG("t")
        with pytest.raises(CdfgError):
            dfg.operation(999999)


class TestCopy:
    def test_copy_preserves_structure(self):
        dfg = make_diamond_dfg()
        clone = dfg.copy()
        assert len(clone) == len(dfg)
        left, right, join = clone.operations()
        assert set(clone.predecessors(join)) == {left, right}

    def test_copy_is_independent(self):
        dfg = make_diamond_dfg()
        clone = dfg.copy()
        clone.new_operation(OpType.DIV)
        assert len(clone) == len(dfg) + 1


class TestHelpers:
    def test_repr_mentions_counts(self):
        dfg = make_diamond_dfg()
        assert "ops=3" in repr(dfg)
