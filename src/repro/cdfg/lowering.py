"""Lowering of CDFG leaves to data-flow graphs.

Each leaf (basic block) becomes one DFG: expressions turn into operation
nodes, data dependencies follow def-use chains within the block, and
array traffic is serialised through LOAD/STORE dependencies.  Variables
read before any in-block definition form the leaf's ``reads`` set
(live-in); variables the block defines form its ``writes`` set — the
sets the communication model charges at HW/SW boundaries.
"""

from repro.errors import InterpreterError, SemanticError
from repro.ir.dfg import DFG
from repro.ir.ops import OpType
from repro.lang import ast_nodes as ast

#: Binary operator -> operation type.
BINARY_OPTYPES = {
    "+": OpType.ADD,
    "-": OpType.SUB,
    "*": OpType.MUL,
    "/": OpType.DIV,
    "%": OpType.MOD,
    "<<": OpType.SHIFT,
    ">>": OpType.SHIFT,
    "&": OpType.AND,
    "|": OpType.OR,
    "^": OpType.XOR,
    "<": OpType.CMP,
    "<=": OpType.CMP,
    ">": OpType.CMP,
    ">=": OpType.CMP,
    "==": OpType.CMP,
    "!=": OpType.CMP,
}

UNARY_OPTYPES = {
    "-": OpType.NEG,
    "~": OpType.NOT,
}


def constant_value(expr):
    """Value of a compile-time-constant expression, else ``None``.

    The lowering folds constant subtrees into a single CONST operation —
    what any real frontend does — so literal arithmetic like
    ``(256 << 8)`` does not masquerade as data-path work.  Binary
    operators fold through the interpreter's
    :func:`~repro.profiling.interpreter.binary_op`, so an expression
    whose execution would raise (``1 / 0``, ``1 << 70``) stays
    unfolded.
    """
    from repro.profiling.interpreter import binary_op

    if isinstance(expr, ast.NumberLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryOp):
        value = constant_value(expr.operand)
        if value is None:
            return None
        return -value if expr.op == "-" else ~value
    if isinstance(expr, ast.BinaryOp):
        left = constant_value(expr.left)
        right = constant_value(expr.right)
        if left is None or right is None:
            return None
        try:
            return binary_op(expr.op, left, right)
        except InterpreterError:
            return None
    return None


class _LeafLowering:
    """Single-leaf lowering state."""

    def __init__(self, leaf):
        self.leaf = leaf
        self.dfg = DFG(name=leaf.name)
        self.defs = {}            # scalar name -> producing Operation
        self.reads = set()        # live-in scalar/array names
        self.writes = set()       # defined scalar/array names
        self.last_store = {}      # array name -> last STORE op
        self.loads_since_store = {}  # array name -> LOAD ops after store

    # ------------------------------------------------------------------
    def lower(self):
        for statement in self.leaf.statements:
            self._lower_assign(statement)
        if self.leaf.cond is not None:
            self._lower_expr(self.leaf.cond)
        self.leaf.dfg = self.dfg
        self.leaf.reads = set(self.reads)
        self.leaf.writes = set(self.writes)
        return self.leaf

    # ------------------------------------------------------------------
    def _lower_assign(self, statement):
        if not isinstance(statement, ast.Assign):
            raise SemanticError(
                "leaf blocks may only contain assignments, got %r near "
                "line %d" % (type(statement).__name__, statement.line))
        value_op = self._lower_expr(statement.expr)
        target = statement.target
        if isinstance(target, ast.VarRef):
            if value_op is None:
                # Plain copy of an external value: y = x;
                value_op = self.dfg.new_operation(
                    OpType.MOV, label=target.name)
            self.defs[target.name] = value_op
            self.writes.add(target.name)
        elif isinstance(target, ast.ArrayRef):
            index_op = self._lower_expr(target.index)
            store = self.dfg.new_operation(OpType.STORE, label=target.name,
                                           value=target.name)
            for dependency in (value_op, index_op):
                if dependency is not None:
                    self.dfg.add_dependency(dependency, store)
            self._serialize_store(target.name, store)
            self.writes.add(target.name)
        else:
            raise SemanticError("cannot assign to %r" % (target,))

    def _serialize_store(self, array, store):
        previous = self.last_store.get(array)
        if previous is not None:
            self.dfg.add_dependency(previous, store)
        for load in self.loads_since_store.get(array, []):
            self.dfg.add_dependency(load, store)
        self.last_store[array] = store
        self.loads_since_store[array] = []

    # ------------------------------------------------------------------
    def _lower_expr(self, expr):
        """Lower an expression; returns its producing op.

        Returns ``None`` for a bare reference to an external scalar —
        the value arrives through a register, not an operation.
        """
        if isinstance(expr, ast.NumberLiteral):
            return self.dfg.new_operation(OpType.CONST,
                                          label=str(expr.value),
                                          value=expr.value)
        if isinstance(expr, ast.VarRef):
            if expr.name in self.defs:
                return self.defs[expr.name]
            self.reads.add(expr.name)
            return None
        if isinstance(expr, ast.ArrayRef):
            index_op = self._lower_expr(expr.index)
            load = self.dfg.new_operation(OpType.LOAD, label=expr.name,
                                          value=expr.name)
            if index_op is not None:
                self.dfg.add_dependency(index_op, load)
            previous_store = self.last_store.get(expr.name)
            if previous_store is not None:
                self.dfg.add_dependency(previous_store, load)
            else:
                self.reads.add(expr.name)
            self.loads_since_store.setdefault(expr.name, []).append(load)
            return load
        if isinstance(expr, ast.UnaryOp):
            folded = constant_value(expr)
            if folded is not None:
                return self.dfg.new_operation(OpType.CONST,
                                              label=str(folded),
                                              value=folded)
            operand_op = self._lower_expr(expr.operand)
            optype = UNARY_OPTYPES.get(expr.op)
            if optype is None:
                raise SemanticError("unknown unary operator %r" % expr.op)
            op = self.dfg.new_operation(optype, label=expr.op)
            if operand_op is not None:
                self.dfg.add_dependency(operand_op, op)
            return op
        if isinstance(expr, ast.BinaryOp):
            folded = constant_value(expr)
            if folded is not None:
                return self.dfg.new_operation(OpType.CONST,
                                              label=str(folded),
                                              value=folded)
            optype = BINARY_OPTYPES.get(expr.op)
            if optype is None:
                raise SemanticError("unknown binary operator %r" % expr.op)
            left_op = self._lower_expr(expr.left)
            # A shift by a compile-time constant is wiring inside the
            # shifter, not a constant-generator request.
            if (optype is OpType.SHIFT
                    and constant_value(expr.right) is not None):
                right_op = None
            else:
                right_op = self._lower_expr(expr.right)
            op = self.dfg.new_operation(optype, label=expr.op)
            for dependency in (left_op, right_op):
                if dependency is not None:
                    self.dfg.add_dependency(dependency, op)
            return op
        raise SemanticError("cannot lower expression %r" % (expr,))


def lower_leaf(leaf):
    """Lower one CDFG leaf in place (fills dfg/reads/writes)."""
    return _LeafLowering(leaf).lower()


def lower_all_leaves(root):
    """Lower every leaf below a CDFG root; returns the leaf list."""
    leaves = root.leaves()
    for leaf in leaves:
        lower_leaf(leaf)
    return leaves
