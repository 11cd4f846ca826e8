"""Tests for CDFG node classes."""

from repro.cdfg.nodes import (
    CdfgBranch,
    CdfgLeaf,
    CdfgLoop,
    CdfgSeq,
    CdfgWait,
)


class TestLeaf:
    def test_defaults(self):
        leaf = CdfgLeaf()
        assert leaf.is_empty()
        assert leaf.exec_count == 0
        assert leaf.dfg is None

    def test_leaf_with_cond_not_empty(self):
        leaf = CdfgLeaf(cond=object())
        assert not leaf.is_empty()

    def test_leaves_returns_self(self):
        leaf = CdfgLeaf()
        assert leaf.leaves() == [leaf]

    def test_auto_names_unique(self):
        assert CdfgLeaf().name != CdfgLeaf().name

    def test_repr_mentions_state(self):
        leaf = CdfgLeaf(statements=[], cond=None, name="Bx")
        assert "Bx" in repr(leaf)


class TestControlNodes:
    def test_seq_flattening(self):
        leaves = [CdfgLeaf(name="L%d" % i) for i in range(3)]
        seq = CdfgSeq(leaves)
        assert seq.leaves() == leaves

    def test_loop_order_test_then_body(self):
        test = CdfgLeaf(name="test")
        body = CdfgSeq([CdfgLeaf(name="body")])
        loop = CdfgLoop(test, body)
        assert [leaf.name for leaf in loop.leaves()] == ["test", "body"]

    def test_branch_covers_both_arms(self):
        test = CdfgLeaf(name="test")
        branch = CdfgBranch(test, CdfgSeq([CdfgLeaf(name="then")]),
                            CdfgSeq([CdfgLeaf(name="else")]))
        assert [leaf.name for leaf in branch.leaves()] == [
            "test", "then", "else"]

    def test_branch_without_else(self):
        test = CdfgLeaf(name="test")
        branch = CdfgBranch(test, CdfgSeq([CdfgLeaf(name="then")]))
        assert len(branch.leaves()) == 2

    def test_wait_has_no_leaves(self):
        assert CdfgWait(5).leaves() == []
        assert CdfgWait(5).cycles == 5

    def test_children_in_program_order(self):
        test, then_body, else_body = (CdfgLeaf(), CdfgSeq(), CdfgSeq())
        assert CdfgLoop(test, then_body).children == [test, then_body]
        assert CdfgBranch(test, then_body, else_body).children == [
            test, then_body, else_body]
        assert CdfgBranch(test, then_body).children == [test, then_body]
        assert CdfgSeq([test]).children == [test]
        assert not CdfgLeaf().children
        assert not CdfgWait(1).children

    def test_nested_structure(self):
        inner_loop = CdfgLoop(CdfgLeaf(name="t2"),
                              CdfgSeq([CdfgLeaf(name="b2")]))
        outer = CdfgSeq([CdfgLeaf(name="pre"), inner_loop,
                         CdfgLeaf(name="post")])
        names = [leaf.name for leaf in outer.leaves()]
        assert names == ["pre", "t2", "b2", "post"]
