"""Tests for leaf-to-DFG lowering."""

import pytest

from repro.cdfg.builder import build_cdfg
from repro.cdfg.lowering import constant_value, lower_all_leaves, lower_leaf
from repro.ir.ops import OpType
from repro.lang.parser import parse


def lower(source):
    """Lower the single leaf of a straight-line program."""
    cdfg = build_cdfg(parse(source))
    leaves = lower_all_leaves(cdfg)
    assert len(leaves) == 1
    return leaves[0]


class TestOperatorMapping:
    def test_arithmetic_ops(self):
        leaf = lower("input a, b; x = a + b; y = a - b; z = a * b; "
                     "w = a / b; v = a % b;")
        types = leaf.dfg.count_by_type()
        assert types[OpType.ADD] == 1
        assert types[OpType.SUB] == 1
        assert types[OpType.MUL] == 1
        assert types[OpType.DIV] == 1
        assert types[OpType.MOD] == 1

    def test_comparisons_map_to_cmp(self):
        leaf = lower("input a, b; x = a < b; y = a == b; z = a >= b;")
        assert leaf.dfg.count_by_type()[OpType.CMP] == 3

    def test_logic_ops(self):
        leaf = lower("input a, b; x = a & b; y = a | b; z = a ^ b; "
                     "w = ~a;")
        types = leaf.dfg.count_by_type()
        assert types[OpType.AND] == 1
        assert types[OpType.OR] == 1
        assert types[OpType.XOR] == 1
        assert types[OpType.NOT] == 1

    def test_unary_minus_is_neg(self):
        leaf = lower("input a; x = -a;")
        assert leaf.dfg.count_by_type()[OpType.NEG] == 1

    def test_literal_becomes_const(self):
        leaf = lower("x = 42;")
        ops = leaf.dfg.operations()
        assert len(ops) == 1
        assert ops[0].optype is OpType.CONST
        assert ops[0].value == 42

    def test_external_copy_becomes_mov(self):
        leaf = lower("input a; x = a;")
        assert leaf.dfg.count_by_type()[OpType.MOV] == 1


class TestDataDependencies:
    def test_def_use_within_block(self):
        leaf = lower("input a; x = a + 1; y = x * 2;")
        dfg = leaf.dfg
        add = dfg.operations_of_type(OpType.ADD)[0]
        mul = dfg.operations_of_type(OpType.MUL)[0]
        assert mul in dfg.transitive_successors(add)

    def test_redefinition_uses_latest(self):
        leaf = lower("input a; x = a + 1; x = x + 2; y = x * 3;")
        dfg = leaf.dfg
        adds = dfg.operations_of_type(OpType.ADD)
        mul = dfg.operations_of_type(OpType.MUL)[0]
        # Only the second add feeds the multiply.
        assert mul in dfg.transitive_successors(adds[1])

    def test_internal_copy_aliases_producer(self):
        leaf = lower("input a; x = a + 1; y = x; z = y * 2;")
        dfg = leaf.dfg
        # No MOV needed: y aliases the ADD result.
        assert OpType.MOV not in dfg.count_by_type()

    def test_external_reads_recorded(self):
        leaf = lower("input a, b; x = a + b;")
        assert leaf.reads == {"a", "b"}
        assert leaf.writes == {"x"}

    def test_test_leaf_cond_lowered(self):
        cdfg = build_cdfg(parse("while (i < 10) { i = i + 1; }"))
        lower_all_leaves(cdfg)
        test_leaf = cdfg.children[0].test
        assert OpType.CMP in test_leaf.dfg.op_types()
        assert "i" in test_leaf.reads


class TestArrays:
    def test_load_and_store_ops(self):
        leaf = lower("input i; x = t[i]; t[i] = x + 1;")
        types = leaf.dfg.count_by_type()
        assert types[OpType.LOAD] == 1
        assert types[OpType.STORE] == 1

    def test_store_then_load_serialised(self):
        leaf = lower("input i, v; t[i] = v; x = t[i];")
        dfg = leaf.dfg
        store = dfg.operations_of_type(OpType.STORE)[0]
        load = dfg.operations_of_type(OpType.LOAD)[0]
        assert load in dfg.transitive_successors(store)

    def test_load_then_store_antidependency(self):
        leaf = lower("input i; x = t[i]; t[i] = 5;")
        dfg = leaf.dfg
        store = dfg.operations_of_type(OpType.STORE)[0]
        load = dfg.operations_of_type(OpType.LOAD)[0]
        assert store in dfg.transitive_successors(load)

    def test_stores_serialised(self):
        leaf = lower("input i, j; t[i] = 1; t[j] = 2;")
        dfg = leaf.dfg
        stores = dfg.operations_of_type(OpType.STORE)
        assert stores[1] in dfg.transitive_successors(stores[0])

    def test_different_arrays_independent(self):
        leaf = lower("input i; a[i] = 1; b[i] = 2;")
        dfg = leaf.dfg
        stores = dfg.operations_of_type(OpType.STORE)
        assert stores[1] not in dfg.transitive_successors(stores[0])

    def test_array_read_recorded_as_read(self):
        leaf = lower("input i; x = t[i];")
        assert "t" in leaf.reads

    def test_array_write_recorded_as_write(self):
        leaf = lower("input i; t[i] = 1;")
        assert "t" in leaf.writes


class TestConstantFolding:
    def test_literal_binop_folds(self):
        leaf = lower("x = 256 << 8;")
        ops = leaf.dfg.operations()
        assert len(ops) == 1
        assert ops[0].optype is OpType.CONST
        assert ops[0].value == 65536

    def test_nested_fold(self):
        leaf = lower("x = (2 + 3) * 4;")
        assert leaf.dfg.operations()[0].value == 20

    def test_unary_fold(self):
        leaf = lower("x = -5;")
        assert leaf.dfg.operations()[0].value == -5

    def test_constant_shift_amount_elided(self):
        leaf = lower("input a; x = a >> 8;")
        types = leaf.dfg.count_by_type()
        assert types[OpType.SHIFT] == 1
        assert OpType.CONST not in types

    def test_variable_shift_amount_kept(self):
        leaf = lower("input a, n; x = a >> n;")
        assert leaf.dfg.count_by_type()[OpType.SHIFT] == 1

    def test_division_fold_truncates_toward_zero(self):
        assert constant_value(
            parse("x = (0 - 7) / 2;").statements[0].expr) == -3

    def test_division_by_zero_not_folded(self):
        leaf = lower("input a; x = a + 1 / 0;" if False
                     else "x = 1 / 0;")
        # folding declines; a DIV op (and its CONST inputs) remain
        assert OpType.DIV in leaf.dfg.count_by_type()

    def test_out_of_range_shift_not_folded(self):
        # Executing `1 << 70` raises (shift counts are 0..63), so the
        # folder must not turn it into one CONST either.
        assert constant_value(
            parse("x = 1 << 70;").statements[0].expr) is None
        types = lower("x = 1 << 70;").dfg.count_by_type()
        assert types[OpType.SHIFT] == 1
        assert types[OpType.CONST] == 1  # the shifted 1; 70 is wiring
        assert constant_value(
            parse("x = 1 << 63;").statements[0].expr) == 1 << 63
