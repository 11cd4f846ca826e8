"""Tests for the mini-C parser."""

import pytest

from repro.errors import ParseError, SemanticError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse


class TestStatements:
    def test_assignment(self):
        program = parse("x = 1;")
        statement = program.statements[0]
        assert isinstance(statement, ast.Assign)
        assert statement.target.name == "x"
        assert statement.expr.value == 1

    def test_array_assignment(self):
        program = parse("a[i + 1] = 2;")
        target = program.statements[0].target
        assert isinstance(target, ast.ArrayRef)
        assert target.name == "a"
        assert isinstance(target.index, ast.BinaryOp)

    def test_var_decl(self):
        program = parse("int x;")
        statement = program.statements[0]
        assert isinstance(statement, ast.VarDecl)
        assert statement.size is None

    def test_array_decl_registers_size(self):
        program = parse("int a[16];")
        assert program.arrays == {"a": 16}

    def test_multi_decl(self):
        program = parse("int x, y, z;")
        block = program.statements[0]
        assert isinstance(block, ast.Block)
        assert len(block.statements) == 3

    def test_zero_array_size_rejected(self):
        with pytest.raises(SemanticError):
            parse("int a[0];")

    def test_duplicate_array_rejected(self):
        with pytest.raises(SemanticError):
            parse("int a[4]; int a[8];")

    def test_input_output_decls(self):
        program = parse("input a, b; output c;")
        assert program.inputs == ["a", "b"]
        assert program.outputs == ["c"]

    def test_if_else(self):
        program = parse("if (x > 0) { y = 1; } else { y = 2; }")
        statement = program.statements[0]
        assert isinstance(statement, ast.If)
        assert statement.else_body is not None

    def test_else_if_chain(self):
        program = parse(
            "if (x > 0) { y = 1; } else if (x < 0) { y = 2; }")
        statement = program.statements[0]
        nested = statement.else_body.statements[0]
        assert isinstance(nested, ast.If)

    def test_while(self):
        program = parse("while (i < 10) { i = i + 1; }")
        statement = program.statements[0]
        assert isinstance(statement, ast.While)

    def test_for(self):
        program = parse("for (i = 0; i < 4; i = i + 1) { x = i; }")
        statement = program.statements[0]
        assert isinstance(statement, ast.For)
        assert isinstance(statement.init, ast.Assign)
        assert isinstance(statement.update, ast.Assign)

    def test_wait(self):
        program = parse("wait(5);")
        statement = program.statements[0]
        assert isinstance(statement, ast.Wait)
        assert statement.cycles == 5

    def test_wait_zero_rejected(self):
        with pytest.raises(SemanticError):
            parse("wait(0);")


class TestExpressions:
    def get_expr(self, text):
        return parse("x = %s;" % text).statements[0].expr

    def test_precedence_mul_over_add(self):
        expr = self.get_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_shift_below_add(self):
        expr = self.get_expr("a << 2 + 1")
        assert expr.op == "<<"
        assert expr.right.op == "+"

    def test_precedence_cmp_below_shift(self):
        expr = self.get_expr("a < b << 1")
        assert expr.op == "<"

    def test_precedence_and_below_eq(self):
        expr = self.get_expr("a == 1 & b == 2")
        assert expr.op == "&"

    def test_parentheses_override(self):
        expr = self.get_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_left_associativity(self):
        expr = self.get_expr("a - b - c")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_unary_minus(self):
        expr = self.get_expr("-a * b")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_unary_not(self):
        expr = self.get_expr("~x")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "~"

    def test_nested_array_ref(self):
        expr = self.get_expr("a[b[i]]")
        assert isinstance(expr, ast.ArrayRef)
        assert isinstance(expr.index, ast.ArrayRef)

    def test_hex_literal(self):
        expr = self.get_expr("0xFF")
        assert expr.value == 255


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("x = 1")

    def test_missing_paren(self):
        with pytest.raises(ParseError):
            parse("if (x > 0 { y = 1; }")

    def test_unterminated_block(self):
        with pytest.raises(ParseError):
            parse("while (1) { x = 1;")

    def test_garbage_statement(self):
        with pytest.raises(ParseError):
            parse("42;")

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("x = ;")
        assert excinfo.value.line == 1
