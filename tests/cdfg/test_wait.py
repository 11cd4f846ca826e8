"""Tests for wait statements through the pipeline (Figure 4's Wait)."""

from repro.bsb.hierarchy import hierarchy_lines
from repro.cdfg.builder import compile_source
from repro.cdfg.nodes import CdfgWait


class TestWait:
    SOURCE = """
    x = 1;
    wait(5);
    y = x + 2;
    """

    def test_wait_splits_basic_blocks(self):
        program = compile_source(self.SOURCE)
        # Two computation leaves separated by the wait.
        assert len(program.bsbs) == 2

    def test_wait_node_in_cdfg(self):
        program = compile_source(self.SOURCE)
        kinds = [type(child).__name__
                 for child in program.cdfg.children]
        assert "CdfgWait" in kinds
        wait = next(child for child in program.cdfg.children
                    if isinstance(child, CdfgWait))
        assert wait.cycles == 5

    def test_wait_in_bsb_hierarchy(self):
        program = compile_source(self.SOURCE)
        lines = hierarchy_lines(program.cdfg)
        assert any(line.endswith(" (wait)") for line in lines)

    def test_profiling_crosses_wait(self):
        program = compile_source(self.SOURCE)
        assert program.final_values["y"] == 3

    def test_wait_inside_loop(self):
        program = compile_source("""
        i = 0;
        while (i < 3) {
            wait(2);
            i = i + 1;
        }
        """)
        body_bsbs = [bsb for bsb in program.bsbs
                     if bsb.profile_count == 3]
        assert body_bsbs
