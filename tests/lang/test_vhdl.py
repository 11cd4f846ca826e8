"""Tests for the behavioural-VHDL frontend."""

import pytest

from repro.cdfg.builder import compile_source
from repro.errors import LexerError, ParseError, SemanticError
from repro.lang import ast_nodes as ast
from repro.lang.vhdl import compile_vhdl, parse_vhdl

DESIGN = """
-- A small accumulator design.
entity acc_unit is
  port (n : in integer; seed : in integer; acc : out integer);
end entity;

architecture behav of acc_unit is
begin
  process
    variable i, x : integer;
  begin
    acc := 0;
    i := 0;
    while i < n loop
      x := (i * 3 + seed) mod 97;
      acc := acc + x;
      i := i + 1;
    end loop;
    if acc > 100 then
      acc := acc - 100;
    else
      acc := acc + 7;
    end if;
  end process;
end architecture;
"""

EQUIVALENT_C = """
input n, seed;
output acc;
int i; int x;
acc = 0;
i = 0;
while (i < n) {
    x = (i * 3 + seed) % 97;
    acc = acc + x;
    i = i + 1;
}
if (acc > 100) { acc = acc - 100; } else { acc = acc + 7; }
"""


class TestParsing:
    def test_ports_become_io_decls(self):
        program = parse_vhdl(DESIGN)
        assert program.inputs == ["n", "seed"]
        assert program.outputs == ["acc"]

    def test_statements_produced(self):
        program = parse_vhdl(DESIGN)
        kinds = [type(statement).__name__
                 for statement in program.statements]
        assert "While" in kinds
        assert "If" in kinds
        assert "Assign" in kinds

    def test_operator_mapping(self):
        program = parse_vhdl("""
        entity e is end entity;
        architecture a of e is begin
        process begin
          x := a mod b;
          y := a sll 2;
          z := (a and b) or (a xor b);
          w := not a;
          c := a /= b;
        end process;
        end architecture;
        """)
        exprs = [statement.expr for statement in program.statements]
        assert exprs[0].op == "%"
        assert exprs[1].op == "<<"
        assert exprs[2].op == "|"
        assert exprs[3].op == "~"
        assert exprs[4].op == "!="

    def test_for_loop_desugars(self):
        program = parse_vhdl("""
        entity e is end entity;
        architecture a of e is begin
        process begin
          for i in 0 to 9 loop
            s := s + i;
          end loop;
        end process;
        end architecture;
        """)
        loop = program.statements[0]
        assert isinstance(loop, ast.For)
        assert loop.cond.op == "<="

    def test_elsif_chain(self):
        program = parse_vhdl("""
        entity e is end entity;
        architecture a of e is begin
        process begin
          if x < 0 then
            y := 1;
          elsif x = 0 then
            y := 2;
          else
            y := 3;
          end if;
        end process;
        end architecture;
        """)
        outer = program.statements[0]
        nested = outer.else_body.statements[0]
        assert isinstance(nested, ast.If)
        assert nested.else_body is not None

    def test_wait_statement(self):
        program = parse_vhdl("""
        entity e is end entity;
        architecture a of e is begin
        process begin
          wait for 10 ns;
        end process;
        end architecture;
        """)
        assert isinstance(program.statements[0], ast.Wait)
        assert program.statements[0].cycles == 10


class TestErrors:
    def test_missing_then(self):
        with pytest.raises(ParseError):
            parse_vhdl("""
            entity e is end entity;
            architecture a of e is begin
            process begin
              if x < 0
                y := 1;
              end if;
            end process;
            end architecture;
            """)

    def test_array_variables_rejected(self):
        with pytest.raises(SemanticError):
            parse_vhdl("""
            entity e is end entity;
            architecture a of e is begin
            process
              variable t : word_array;
            begin
              x := 1;
            end process;
            end architecture;
            """)

    def test_bad_character(self):
        with pytest.raises(LexerError):
            parse_vhdl("entity e is $ end entity;")

    def test_truncated_design(self):
        with pytest.raises(ParseError):
            parse_vhdl("entity e is end entity; architecture a of e is "
                       "begin process begin x := 1;")


class TestEquivalenceWithC:
    """The same algorithm through both frontends must agree."""

    def test_profiled_outputs_match(self):
        inputs = {"n": 25, "seed": 5}
        vhdl = compile_vhdl(DESIGN, name="acc", inputs=inputs)
        mini_c = compile_source(EQUIVALENT_C, name="acc", inputs=inputs)
        assert vhdl.outputs == mini_c.outputs

    def test_bsb_structure_matches(self):
        inputs = {"n": 25, "seed": 5}
        vhdl = compile_vhdl(DESIGN, name="acc", inputs=inputs)
        mini_c = compile_source(EQUIVALENT_C, name="acc", inputs=inputs)
        assert len(vhdl.bsbs) == len(mini_c.bsbs)
        assert ([bsb.profile_count for bsb in vhdl.bsbs]
                == [bsb.profile_count for bsb in mini_c.bsbs])

    def test_allocations_match(self, library):
        from repro.core.allocator import allocate

        inputs = {"n": 25, "seed": 5}
        vhdl = compile_vhdl(DESIGN, name="acc", inputs=inputs)
        mini_c = compile_source(EQUIVALENT_C, name="acc", inputs=inputs)
        vhdl_alloc = allocate(vhdl.bsbs, library, area=6000.0)
        c_alloc = allocate(mini_c.bsbs, library, area=6000.0)
        assert vhdl_alloc.allocation == c_alloc.allocation


def _example_design():
    """``VHDL_DESIGN`` of ``examples/vhdl_frontend.py``."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "examples" / \
        "vhdl_frontend.py"
    spec = importlib.util.spec_from_file_location("vhdl_frontend", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VHDL_DESIGN


class TestSharedPipeline:
    """VHDL compiles run the mini-C frontend's pipeline after parsing."""

    def test_compile_counts_once(self):
        from repro.cdfg.builder import frontend_compile_count

        design = _example_design()
        before = frontend_compile_count()
        compile_vhdl(design)
        assert frontend_compile_count() == before + 1

    def test_program_unchanged(self):
        program = compile_vhdl(_example_design(), name="fir4",
                               inputs={"n": 64, "seed": 11})
        assert [(bsb.name, bsb.profile_count) for bsb in program.bsbs] \
            == [("B1", 1), ("B2", 65), ("B3", 64)]
        assert program.outputs == {"acc": -1725507}
        assert program.final_values == {
            "acc": -1725507, "cube": 1178, "i": 65, "n": 64,
            "rnd": 7691, "s0": -8693, "s1": 5774, "s2": -4581,
            "s3": 12670, "seed": 11, "t0": -408, "t1": 1172,
            "t2": -931, "t3": 593, "x": -8693, "y": 426}
        assert program.inputs == {"n": 64, "seed": 11}
