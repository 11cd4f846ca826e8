"""Behavioural-VHDL frontend (the paper's other input language).

"The CDFG is obtained from an input description in VHDL or C"
(section 3).  This module accepts a small behavioural subset —
a single entity/architecture with one process — and produces the same
AST as the mini-C parser, so everything downstream (CDFG, profiling,
allocation, PACE) is shared:

* ``entity``/``port``: ``in integer`` ports become ``input``
  declarations, ``out integer`` ports become ``output`` declarations;
* ``process`` with ``variable`` declarations (``integer`` scalars);
* ``:=`` assignments with VHDL operators (``mod``/``rem``, ``sll``/
  ``srl``, ``and``/``or``/``xor``/``not``, ``= /= < <= > >=``);
* ``if .. then .. elsif .. else .. end if``;
* ``while .. loop .. end loop`` and ``for i in a to b loop``;
* ``wait for N ns;``.

Array types are not supported in this subset (the mini-C frontend
covers array-based applications); the parser reports them clearly.
"""

import re

from repro.errors import LexerError, ParseError, SemanticError
from repro.lang import ast_nodes as ast

_TOKEN_RE = re.compile(r"""
    (?P<comment>--[^\n]*)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op><=|>=|/=|:=|=>|[-+*/=<>();:,&])
  | (?P<ws>[ \t\r\n]+)
  | (?P<bad>.)
""", re.VERBOSE)

_KEYWORDS = {
    "entity", "is", "port", "in", "out", "integer", "end", "architecture",
    "of", "begin", "process", "variable", "if", "then", "elsif", "else",
    "while", "loop", "for", "to", "wait", "ns", "mod", "rem", "sll",
    "srl", "and", "or", "xor", "not", "downto",
}


class _Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return "%s(%r)@%d" % (self.kind, self.text, self.line)


def _tokenize(source):
    tokens = []
    line = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind in ("ws", "comment"):
            line += text.count("\n")
            continue
        if kind == "bad":
            raise LexerError("unexpected character %r in VHDL source"
                             % text, line, match.start())
        if kind == "ident":
            lowered = text.lower()
            if lowered in _KEYWORDS:
                tokens.append(_Token(lowered, lowered, line))
                continue
            tokens.append(_Token("ident", text, line))
            continue
        tokens.append(_Token(kind if kind == "number" else text,
                             text, line))
        line += text.count("\n")
    tokens.append(_Token("eof", "", line))
    return tokens


class _VhdlParser:
    """Recursive-descent parser for the behavioural subset."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    @property
    def current(self):
        return self.tokens[self.position]

    def accept(self, kind):
        if self.current.kind == kind:
            token = self.current
            self.position += 1
            return token
        return None

    def expect(self, kind, what=None):
        token = self.accept(kind)
        if token is None:
            raise ParseError("expected %s but found %r"
                             % (what or kind, self.current.text or "<eof>"),
                             line=self.current.line)
        return token

    # ------------------------------------------------------------------
    def parse_design(self):
        program = ast.Program()
        self.parse_entity(program)
        self.parse_architecture(program)
        self.expect("eof", "end of file")
        return program

    def parse_entity(self, program):
        self.expect("entity")
        self.expect("ident", "entity name")
        self.expect("is")
        if self.accept("port"):
            self.expect("(", "'('")
            while True:
                names = [self.expect("ident", "port name").text]
                while self.accept(","):
                    names.append(self.expect("ident", "port name").text)
                self.expect(":", "':'")
                if self.accept("in"):
                    direction = "in"
                elif self.accept("out"):
                    direction = "out"
                else:
                    raise ParseError("port needs a direction (in/out)",
                                     line=self.current.line)
                self.expect("integer", "integer type")
                if direction == "in":
                    program.inputs.extend(names)
                else:
                    program.outputs.extend(names)
                if not self.accept(";"):
                    break
            self.expect(")", "')'")
            self.expect(";", "';'")
        self.expect("end")
        self.accept("entity")
        self.accept("ident")
        self.expect(";", "';'")

    def parse_architecture(self, program):
        self.expect("architecture")
        self.expect("ident", "architecture name")
        self.expect("of")
        self.expect("ident", "entity name")
        self.expect("is")
        self.expect("begin")
        self.parse_process(program)
        self.expect("end")
        self.accept("architecture")
        self.accept("ident")
        self.expect(";", "';'")

    def parse_process(self, program):
        self.expect("process")
        while self.current.kind == "variable":
            self.accept("variable")
            names = [self.expect("ident", "variable name").text]
            while self.accept(","):
                names.append(self.expect("ident", "variable name").text)
            self.expect(":", "':'")
            if self.current.kind == "ident":
                raise SemanticError(
                    "only integer variables are supported in the VHDL "
                    "subset (near line %d); use the mini-C frontend for "
                    "arrays" % self.current.line)
            self.expect("integer", "integer type")
            self.expect(";", "';'")
            for name in names:
                program.statements.append(
                    ast.VarDecl(line=self.current.line, name=name))
        self.expect("begin")
        program.statements.extend(self.parse_statements(("end",)))
        self.expect("end")
        self.expect("process")
        self.expect(";", "';'")

    # ------------------------------------------------------------------
    def parse_statements(self, stop_kinds):
        statements = []
        while self.current.kind not in stop_kinds:
            if self.current.kind == "eof":
                raise ParseError("unexpected end of file",
                                 line=self.current.line)
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self):
        if self.current.kind == "if":
            return self.parse_if()
        if self.current.kind == "while":
            return self.parse_while()
        if self.current.kind == "for":
            return self.parse_for()
        if self.current.kind == "wait":
            return self.parse_wait()
        if self.current.kind == "ident":
            return self.parse_assign()
        raise ParseError("unexpected token %r" % self.current.text,
                         line=self.current.line)

    def parse_assign(self):
        name = self.expect("ident", "variable name")
        self.expect(":=", "':='")
        expr = self.parse_expr()
        self.expect(";", "';'")
        return ast.Assign(line=name.line,
                          target=ast.VarRef(line=name.line,
                                            name=name.text),
                          expr=expr)

    def parse_if(self):
        token = self.expect("if")
        cond = self.parse_expr()
        self.expect("then", "'then'")
        then_body = ast.Block(line=token.line, statements=(
            self.parse_statements(("elsif", "else", "end"))))
        else_body = None
        if self.current.kind == "elsif":
            self.accept("elsif")
            # Desugar: elsif chain becomes a nested if in the else arm.
            nested = self._parse_elsif_chain(token.line)
            else_body = ast.Block(line=token.line, statements=[nested])
        elif self.accept("else"):
            else_body = ast.Block(line=token.line, statements=(
                self.parse_statements(("end",))))
        if self.current.kind == "end":
            self.accept("end")
            self.expect("if", "'end if'")
            self.expect(";", "';'")
        return ast.If(line=token.line, cond=cond, then_body=then_body,
                      else_body=else_body)

    def _parse_elsif_chain(self, line):
        cond = self.parse_expr()
        self.expect("then", "'then'")
        then_body = ast.Block(line=line, statements=(
            self.parse_statements(("elsif", "else", "end"))))
        else_body = None
        if self.current.kind == "elsif":
            self.accept("elsif")
            nested = self._parse_elsif_chain(line)
            else_body = ast.Block(line=line, statements=[nested])
        elif self.accept("else"):
            else_body = ast.Block(line=line, statements=(
                self.parse_statements(("end",))))
        return ast.If(line=line, cond=cond, then_body=then_body,
                      else_body=else_body)

    def parse_while(self):
        token = self.expect("while")
        cond = self.parse_expr()
        self.expect("loop", "'loop'")
        body = ast.Block(line=token.line,
                         statements=self.parse_statements(("end",)))
        self.expect("end")
        self.expect("loop", "'end loop'")
        self.expect(";", "';'")
        return ast.While(line=token.line, cond=cond, body=body)

    def parse_for(self):
        token = self.expect("for")
        index = self.expect("ident", "loop variable").text
        self.expect("in", "'in'")
        low = self.parse_expr()
        self.expect("to", "'to' (downto is not supported)")
        high = self.parse_expr()
        self.expect("loop", "'loop'")
        body = ast.Block(line=token.line,
                         statements=self.parse_statements(("end",)))
        self.expect("end")
        self.expect("loop", "'end loop'")
        self.expect(";", "';'")
        # for i in a to b  ==  for (i = a; i <= b; i = i + 1)
        init = ast.Assign(line=token.line,
                          target=ast.VarRef(line=token.line, name=index),
                          expr=low)
        cond = ast.BinaryOp(line=token.line, op="<=",
                            left=ast.VarRef(line=token.line, name=index),
                            right=high)
        update = ast.Assign(
            line=token.line,
            target=ast.VarRef(line=token.line, name=index),
            expr=ast.BinaryOp(line=token.line, op="+",
                              left=ast.VarRef(line=token.line,
                                              name=index),
                              right=ast.NumberLiteral(line=token.line,
                                                      value=1)))
        return ast.For(line=token.line, init=init, cond=cond,
                       update=update, body=body)

    def parse_wait(self):
        token = self.expect("wait")
        self.expect("for", "'for'")
        cycles = self.expect("number", "duration")
        self.expect("ns", "'ns'")
        self.expect(";", "';'")
        return ast.Wait(line=token.line, cycles=int(cycles.text))

    # ------------------------------------------------------------------
    # Expressions: VHDL precedence (or < xor < and < relational <
    # shift < additive < multiplicative < unary).
    # ------------------------------------------------------------------
    _LEVELS = [
        [("or", "|")],
        [("xor", "^")],
        [("and", "&")],
        [("=", "=="), ("/=", "!="), ("<", "<"), ("<=", "<="),
         (">", ">"), (">=", ">=")],
        [("sll", "<<"), ("srl", ">>")],
        [("+", "+"), ("-", "-")],
        [("*", "*"), ("/", "/"), ("mod", "%"), ("rem", "%")],
    ]

    def parse_expr(self, level=0):
        if level >= len(self._LEVELS):
            return self.parse_unary()
        left = self.parse_expr(level + 1)
        while True:
            matched = None
            for vhdl_op, c_op in self._LEVELS[level]:
                if self.current.kind == vhdl_op:
                    matched = (vhdl_op, c_op)
                    break
            if matched is None:
                return left
            token = self.current
            self.position += 1
            right = self.parse_expr(level + 1)
            left = ast.BinaryOp(line=token.line, op=matched[1],
                                left=left, right=right)

    def parse_unary(self):
        if self.current.kind == "-":
            token = self.accept("-")
            return ast.UnaryOp(line=token.line, op="-",
                               operand=self.parse_unary())
        if self.current.kind == "not":
            token = self.accept("not")
            return ast.UnaryOp(line=token.line, op="~",
                               operand=self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        if self.current.kind == "number":
            token = self.accept("number")
            return ast.NumberLiteral(line=token.line,
                                     value=int(token.text))
        if self.current.kind == "ident":
            token = self.accept("ident")
            return ast.VarRef(line=token.line, name=token.text)
        if self.accept("("):
            expr = self.parse_expr()
            self.expect(")", "')'")
            return expr
        raise ParseError("expected an expression, found %r"
                         % (self.current.text or "<eof>"),
                         line=self.current.line)


def parse_vhdl(source):
    """Parse behavioural VHDL into the shared Program AST."""
    return _VhdlParser(_tokenize(source)).parse_design()


def compile_vhdl(source, name="design", inputs=None,
                 max_steps=5_000_000):
    """Full pipeline for VHDL input: parse, build, lower, profile.

    The VHDL parser in front of
    :func:`repro.cdfg.builder.compile_ast`, the pipeline
    :func:`~repro.cdfg.builder.compile_source` runs; the resulting
    Program is indistinguishable downstream.
    """
    from repro.cdfg.builder import compile_ast

    return compile_ast(parse_vhdl(source), source, name=name,
                       inputs=inputs, max_steps=max_steps)
