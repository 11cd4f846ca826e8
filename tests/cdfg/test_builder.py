"""Tests for CDFG construction and the compile pipeline."""

from repro.cdfg.builder import build_cdfg, compile_source
from repro.cdfg.nodes import CdfgBranch, CdfgLeaf, CdfgLoop, CdfgSeq
from repro.lang.parser import parse


class TestCdfgShape:
    def test_straight_line_single_leaf(self):
        cdfg = build_cdfg(parse("a = 1; b = a + 2; c = b * 3;"))
        leaves = cdfg.leaves()
        assert len(leaves) == 1
        assert len(leaves[0].statements) == 3

    def test_while_creates_loop_node(self):
        cdfg = build_cdfg(parse("while (i < 3) { i = i + 1; }"))
        assert isinstance(cdfg.children[0], CdfgLoop)
        loop = cdfg.children[0]
        assert loop.test.cond is not None

    def test_if_creates_branch_node(self):
        cdfg = build_cdfg(parse("if (x > 0) { y = 1; } else { y = 2; }"))
        branch = cdfg.children[0]
        assert isinstance(branch, CdfgBranch)
        assert branch.else_body is not None

    def test_for_desugars_to_loop(self):
        cdfg = build_cdfg(parse(
            "for (i = 0; i < 4; i = i + 1) { x = x + i; }"))
        # init lands in a preceding leaf; the loop follows.
        assert isinstance(cdfg.children[0], CdfgLeaf)
        assert isinstance(cdfg.children[1], CdfgLoop)
        body_leaves = cdfg.children[1].body.leaves()
        # update is appended to the body: x=x+i; i=i+1 in one block.
        assert sum(len(leaf.statements) for leaf in body_leaves) == 2

    def test_control_splits_basic_blocks(self):
        source = """
        a = 1;
        if (a > 0) { b = 1; }
        c = 2;
        """
        cdfg = build_cdfg(parse(source))
        kinds = [type(child).__name__ for child in cdfg.children]
        assert kinds == ["CdfgLeaf", "CdfgBranch", "CdfgLeaf"]

    def test_leaves_named_in_program_order(self):
        source = "a = 1; while (a < 9) { a = a + 1; } b = a;"
        cdfg = build_cdfg(parse(source))
        names = [leaf.name for leaf in cdfg.leaves()]
        assert names == ["B1", "B2", "B3", "B4"]

    def test_declarations_produce_no_leaves(self):
        cdfg = build_cdfg(parse("int x; int a[4]; input n;"))
        assert cdfg.leaves() == []


class TestFigure4Correspondence:
    """The CDFG -> BSB translation of Figure 4."""

    SOURCE = """
    x = 1;
    while (x < 5) {
        x = x + 1;
    }
    if (x == 5) {
        y = 2;
    } else {
        y = 3;
    }
    z = x + y;
    """

    def test_bsb_hierarchy_mirrors_cdfg(self):
        program = compile_source(self.SOURCE, name="fig4")
        kinds = [child.kind for child in program.cdfg.children]
        assert kinds == ["dfg", "loop", "branch", "dfg"]

    def test_loop_bsb_has_test_and_body(self):
        program = compile_source(self.SOURCE, name="fig4")
        loop = program.cdfg.children[1]
        assert isinstance(loop, CdfgLoop)
        assert loop.test.cond is not None
        assert loop.children == [loop.test, loop.body]

    def test_branch_bsb_has_two_branches(self):
        program = compile_source(self.SOURCE, name="fig4")
        branch = program.cdfg.children[2]
        assert isinstance(branch, CdfgBranch)
        assert branch.children == [branch.test, branch.then_body,
                                   branch.else_body]

    def test_leaf_array_flattening(self):
        program = compile_source(self.SOURCE, name="fig4")
        names = [bsb.name for bsb in program.bsbs]
        assert names == sorted(names, key=lambda n: int(n[1:]))


class TestCompilePipeline:
    def test_profile_counts_attached(self):
        program = compile_source(
            "input n; i = 0; while (i < n) { i = i + 1; }",
            inputs={"n": 7})
        by_name = {bsb.name: bsb for bsb in program.bsbs}
        assert by_name["B1"].profile_count == 1    # init
        assert by_name["B2"].profile_count == 8    # test: 7 + final
        assert by_name["B3"].profile_count == 7    # body

    def test_empty_leaves_dropped(self):
        # A condition-only program still produces the test leaf (it has
        # operations) but no empty computation leaves.
        program = compile_source("if (1 < 2) { x = 1; }")
        assert all(len(bsb.dfg) for bsb in program.bsbs)

    def test_outputs_extracted(self):
        program = compile_source(
            "input a; output b; b = a * 3;", inputs={"a": 5})
        assert program.outputs == {"b": 15}

    def test_final_values_available(self):
        program = compile_source("x = 2; y = x + 3;")
        assert program.final_values["y"] == 5

    def test_source_lines_counts_nonblank(self):
        program = compile_source("x = 1;\n\n\ny = 2;\n")
        assert program.source_lines() == 2

    def test_reads_writes_propagated(self):
        program = compile_source("input a; b = a + 1; ")
        bsb = program.bsbs[0]
        assert "a" in bsb.reads
        assert "b" in bsb.writes
