"""Abstract syntax tree of the mini-C frontend.

Nodes carry their source line so errors and profiling traces can point
back at the input; the CDFG builder records which statements each leaf
BSB covers via these nodes.
"""

from dataclasses import dataclass, field
from typing import Optional


class Node:
    """Base class for all AST nodes."""


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass
class Expr(Node):
    line: int = 0


@dataclass
class NumberLiteral(Expr):
    value: int = 0

    def __str__(self):
        return str(self.value)


@dataclass
class VarRef(Expr):
    name: str = ""

    def __str__(self):
        return self.name


@dataclass
class ArrayRef(Expr):
    name: str = ""
    index: Optional[Expr] = None

    def __str__(self):
        return "%s[%s]" % (self.name, self.index)


@dataclass
class UnaryOp(Expr):
    op: str = ""
    operand: Optional[Expr] = None

    def __str__(self):
        return "(%s%s)" % (self.op, self.operand)


@dataclass
class BinaryOp(Expr):
    op: str = ""
    left: Optional[Expr] = None
    right: Optional[Expr] = None

    def __str__(self):
        return "(%s %s %s)" % (self.left, self.op, self.right)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass
class Stmt(Node):
    line: int = 0


@dataclass
class Assign(Stmt):
    """``target = expr;`` — target is a VarRef or ArrayRef."""

    target: Optional[Expr] = None
    expr: Optional[Expr] = None

    def __str__(self):
        return "%s = %s;" % (self.target, self.expr)


@dataclass
class VarDecl(Stmt):
    """``int name;`` or ``int name[size];`` (size given => array)."""

    name: str = ""
    size: Optional[int] = None

    def __str__(self):
        if self.size is None:
            return "int %s;" % self.name
        return "int %s[%d];" % (self.name, self.size)


@dataclass
class InputDecl(Stmt):
    """``input a, b;`` — values supplied at profiling time."""

    names: list = field(default_factory=list)

    def __str__(self):
        return "input %s;" % ", ".join(self.names)


@dataclass
class OutputDecl(Stmt):
    """``output y;`` — results reported by the profiler."""

    names: list = field(default_factory=list)

    def __str__(self):
        return "output %s;" % ", ".join(self.names)


@dataclass
class Block(Stmt):
    statements: list = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then_body: Optional[Block] = None
    else_body: Optional[Block] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Block] = None


@dataclass
class For(Stmt):
    """``for (init; cond; update) body`` — init/update are assignments."""

    init: Optional[Assign] = None
    cond: Optional[Expr] = None
    update: Optional[Assign] = None
    body: Optional[Block] = None


@dataclass
class Wait(Stmt):
    """``wait(n);`` — a wait statement (CDFG wait node, Figure 4)."""

    cycles: int = 1


@dataclass
class Program(Node):
    statements: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    arrays: dict = field(default_factory=dict)  # name -> size
