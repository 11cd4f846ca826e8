"""CDFG interpreter with C-like integer semantics.

Executes the CDFG produced by :mod:`repro.cdfg.builder` on concrete
input values, counting how many times each leaf (basic block) runs.
Arithmetic follows C conventions for integers: division and modulo
truncate toward zero, comparisons yield 0/1, shifts require
non-negative counts.
"""

from dataclasses import dataclass, field

from repro.cdfg.nodes import CdfgBranch, CdfgLeaf, CdfgLoop, CdfgSeq, CdfgWait
from repro.errors import InterpreterError
from repro.lang import ast_nodes as ast


@dataclass
class ProfileRun:
    """Result of one profiled execution.

    Attributes:
        scalars: Final scalar variable values.
        arrays: Final array contents.
        inputs: The input values that were applied.
        steps: Number of statement/condition evaluations performed.
        leaf_counts: Mapping leaf uid -> execution count.
    """

    scalars: dict = field(default_factory=dict)
    arrays: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    steps: int = 0
    leaf_counts: dict = field(default_factory=dict)


class _Interpreter:
    def __init__(self, program_ast, inputs, max_steps):
        self.max_steps = max_steps
        self.steps = 0
        self.scalars = {}
        self.arrays = {name: [0] * size
                       for name, size in program_ast.arrays.items()}
        self.counts = {}
        self.inputs = {}
        declared = set(program_ast.inputs)
        inputs = dict(inputs or {})
        unknown = set(inputs) - declared
        if unknown:
            raise InterpreterError(
                "values supplied for undeclared inputs: %s"
                % ", ".join(sorted(unknown)))
        for name in declared:
            value = int(inputs.get(name, 0))
            self.scalars[name] = value
            self.inputs[name] = value

    # ------------------------------------------------------------------
    def run(self, node):
        if isinstance(node, CdfgSeq):
            for child in node.children:
                self.run(child)
        elif isinstance(node, CdfgLeaf):
            self.execute_leaf(node)
        elif isinstance(node, CdfgLoop):
            while self.execute_leaf(node.test):
                self.run(node.body)
        elif isinstance(node, CdfgBranch):
            if self.execute_leaf(node.test):
                self.run(node.then_body)
            elif node.else_body is not None:
                self.run(node.else_body)
        elif isinstance(node, CdfgWait):
            pass
        else:
            raise InterpreterError("cannot execute CDFG node %r" % (node,))

    def execute_leaf(self, leaf):
        """Run a leaf's statements; returns its condition's truth value."""
        self.counts[leaf.uid] = self.counts.get(leaf.uid, 0) + 1
        for statement in leaf.statements:
            self.tick(statement.line)
            self.assign(statement)
        if leaf.cond is None:
            return True
        self.tick(getattr(leaf.cond, "line", 0))
        return bool(self.eval(leaf.cond))

    def tick(self, line):
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpreterError(
                "profiling exceeded %d steps (infinite loop near line %d?)"
                % (self.max_steps, line))

    # ------------------------------------------------------------------
    def assign(self, statement):
        value = self.eval(statement.expr)
        target = statement.target
        if isinstance(target, ast.VarRef):
            self.scalars[target.name] = value
        elif isinstance(target, ast.ArrayRef):
            self.array_store(target, value)
        else:
            raise InterpreterError("cannot assign to %r" % (target,))

    def array_store(self, ref, value):
        array = self.array_of(ref)
        index = self.check_index(ref, array)
        array[index] = value

    def array_of(self, ref):
        try:
            return self.arrays[ref.name]
        except KeyError:
            raise InterpreterError(
                "array %r used at line %d but never declared"
                % (ref.name, ref.line)) from None

    def check_index(self, ref, array):
        index = self.eval(ref.index)
        if not 0 <= index < len(array):
            raise InterpreterError(
                "index %d out of range for array %r (size %d) at line %d"
                % (index, ref.name, len(array), ref.line))
        return index

    # ------------------------------------------------------------------
    def eval(self, expr):
        if isinstance(expr, ast.NumberLiteral):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self.scalars.get(expr.name, 0)
        if isinstance(expr, ast.ArrayRef):
            array = self.array_of(expr)
            return array[self.check_index(expr, array)]
        if isinstance(expr, ast.UnaryOp):
            operand = self.eval(expr.operand)
            if expr.op == "-":
                return -operand
            if expr.op == "~":
                return ~operand
            raise InterpreterError("unknown unary operator %r" % expr.op)
        if isinstance(expr, ast.BinaryOp):
            return binary_op(expr.op, self.eval(expr.left),
                             self.eval(expr.right), expr.line)
        raise InterpreterError("cannot evaluate %r" % (expr,))


def binary_op(op, left, right, line=0):
    """Apply one binary operator with C-like integer semantics.

    The one definition of the mini-C binary operators: the interpreter
    evaluates with it and the lowering's constant folder folds with it,
    so a folded constant is the value the statement would compute.
    Division or modulo by zero and shift counts outside 0..63 raise
    :class:`InterpreterError` (``line`` is for its message).
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return c_div(left, right, line)
    if op == "%":
        return c_mod(left, right, line)
    if op == "<<":
        return left << _shift_count(right, line)
    if op == ">>":
        return left >> _shift_count(right, line)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    raise InterpreterError("unknown binary operator %r" % op)


def _shift_count(count, line):
    if count < 0 or count > 63:
        raise InterpreterError(
            "shift count %d out of range at line %d" % (count, line))
    return count


def c_div(left, right, line=0):
    """C integer division: truncate toward zero."""
    if right == 0:
        raise InterpreterError("division by zero at line %d" % line)
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def c_mod(left, right, line=0):
    """C modulo: result has the sign of the dividend."""
    if right == 0:
        raise InterpreterError("modulo by zero at line %d" % line)
    return left - c_div(left, right, line) * right


def profile_cdfg(cdfg, program_ast, inputs=None, max_steps=5_000_000):
    """Execute a lowered CDFG, annotate leaves with execution counts."""
    interpreter = _Interpreter(program_ast, inputs, max_steps)
    interpreter.run(cdfg)
    for leaf in cdfg.leaves():
        leaf.exec_count = interpreter.counts.get(leaf.uid, 0)
    return ProfileRun(
        scalars=dict(interpreter.scalars),
        arrays={name: list(values)
                for name, values in interpreter.arrays.items()},
        inputs=dict(interpreter.inputs),
        steps=interpreter.steps,
        leaf_counts=dict(interpreter.counts),
    )
