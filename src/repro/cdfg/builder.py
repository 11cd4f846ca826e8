"""AST -> CDFG -> leaf-BSB pipeline and the Program container.

The builder performs the Figure-4 translation: basic blocks of the AST
become CDFG leaves; loops, conditionals and waits become inner nodes.
Lowering then gives every leaf a DFG and profiling gives it an
execution count.  The CDFG is then the program's one tree: the BSB
hierarchy is a view of it, and its leaf-BSB array
(:func:`repro.bsb.hierarchy.leaf_array`) feeds the allocator and PACE.
"""

from dataclasses import dataclass, field

from repro.bsb.hierarchy import leaf_array
from repro.cdfg.lowering import lower_all_leaves
from repro.cdfg.nodes import (
    CdfgBranch,
    CdfgLeaf,
    CdfgLoop,
    CdfgSeq,
    CdfgWait,
)
from repro.errors import SemanticError
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse

#: Process-wide count of frontend compiles (every :func:`compile_ast`
#: call, which each front end makes once its source is parsed).  This
#: is the counter the persistent program store is judged against: a
#: warm session resolving every application through the store must
#: leave it untouched, and the parity tests/CI assert exactly that
#: instead of trusting per-session accounting.
_frontend_compiles = 0


def frontend_compile_count():
    """Number of frontend compiles performed by this process so far."""
    return _frontend_compiles


class _CdfgBuilder:
    """Builds the CDFG, numbering leaves B1, B2, ... in program order.

    Every node counts in one construction order (children before their
    parent), and an unnamed control node is named by its kind and its
    place in it (``loop5``), so a tree's names depend only on its
    program, never on what the process built before.
    """

    def __init__(self):
        self.leaf_count = 0
        self.node_count = 0

    def _name(self, kind):
        self.node_count += 1
        return "%s%d" % (kind, self.node_count)

    def _new_leaf(self, statements, cond=None):
        self.node_count += 1
        self.leaf_count += 1
        return CdfgLeaf(statements=statements, cond=cond,
                        name="B%d" % self.leaf_count)

    def build_sequence(self, statements, name=""):
        """Build a CdfgSeq from a statement list."""
        children = []
        buffer = []

        def flush():
            if buffer:
                children.append(self._new_leaf(list(buffer)))
                buffer.clear()

        for statement in statements:
            if isinstance(statement, ast.Assign):
                buffer.append(statement)
            elif isinstance(statement, (ast.VarDecl, ast.InputDecl,
                                        ast.OutputDecl)):
                continue  # declarations produce no operations
            elif isinstance(statement, ast.Block):
                for nested in statement.statements:
                    if isinstance(nested, ast.Assign):
                        buffer.append(nested)
                    elif isinstance(nested, (ast.VarDecl, ast.InputDecl,
                                             ast.OutputDecl)):
                        continue
                    else:
                        flush()
                        children.append(self.build_statement(nested))
            elif isinstance(statement, ast.For):
                # The init assignment runs once, with the preceding code.
                buffer.append(statement.init)
                flush()
                children.append(self.build_for(statement))
            else:
                flush()
                children.append(self.build_statement(statement))
        flush()
        return CdfgSeq(children, name=name or self._name("seq"))

    def build_statement(self, statement):
        if isinstance(statement, ast.If):
            return self.build_if(statement)
        if isinstance(statement, ast.While):
            return self.build_while(statement)
        if isinstance(statement, ast.For):
            return self.build_for(statement)
        if isinstance(statement, ast.Wait):
            return CdfgWait(statement.cycles, name=self._name("wait"))
        raise SemanticError("unsupported statement %r at line %d"
                            % (type(statement).__name__, statement.line))

    def build_if(self, statement):
        test = self._new_leaf([], cond=statement.cond)
        then_body = self.build_sequence(statement.then_body.statements)
        else_body = None
        if statement.else_body is not None:
            else_body = self.build_sequence(statement.else_body.statements)
        return CdfgBranch(test, then_body, else_body,
                          name=self._name("branch"))

    def build_while(self, statement):
        test = self._new_leaf([], cond=statement.cond)
        body = self.build_sequence(statement.body.statements)
        return CdfgLoop(test, body, name=self._name("loop"))

    def build_for(self, statement):
        # for (init; cond; update) body  ==  init; while (cond) {body; update}
        # (init was already emitted into the preceding basic block).
        test = self._new_leaf([], cond=statement.cond)
        body_statements = list(statement.body.statements) + [statement.update]
        body = self.build_sequence(body_statements)
        return CdfgLoop(test, body, name=self._name("loop"))


def build_cdfg(program_ast, name="main"):
    """Build the CDFG of a parsed program."""
    return _CdfgBuilder().build_sequence(program_ast.statements, name=name)


@dataclass
class Program:
    """A compiled, profiled application ready for allocation.

    Both ways to a Program end in :func:`program_from_cdfg`: a cold
    compile (:func:`compile_source`) hands it the CDFG it just lowered
    and profiled, and the persistent program store
    (:func:`repro.io.serialize.program_from_dict`) the CDFG it
    hydrated.  Hydrated programs carry ``ast=None``: the AST is a
    frontend artefact the allocate -> PACE -> evaluate pipeline never
    reads.  Their CDFG is the stored one, with placeholder statements
    in its leaves (see :mod:`repro.cdfg.nodes`), so ``export`` renders
    every graph from the store without a compile.

    Attributes:
        name: Application name.
        source: The mini-C source text.
        ast: The parsed program (``None`` for hydrated programs).
        cdfg: The CDFG root, a CdfgSeq: the program's one tree, of
            which the BSB hierarchy is a view.
        bsbs: The leaf-BSB array (empty leaves dropped).
        inputs: The input values used for profiling.
        final_values: Scalar variable values after the profiled run.
        outputs: Values of the declared ``output`` variables.
    """

    name: str
    source: str
    ast: object
    cdfg: object
    bsbs: list
    inputs: dict = field(default_factory=dict)
    final_values: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    def source_lines(self):
        """Number of non-blank source lines (the paper's Lines column)."""
        return sum(1 for line in self.source.splitlines() if line.strip())


def compile_source(source, name="app", inputs=None, max_steps=5_000_000):
    """Full pipeline: parse, build CDFG, lower, profile, build BSBs.

    Args:
        source: Mini-C source text.
        name: Application name.
        inputs: Mapping of ``input``-declared names to integer values
            used for the profiling run (missing names default to 0).
        max_steps: Profiling execution budget (statement evaluations).
    """
    return compile_ast(parse(source), source, name=name, inputs=inputs,
                       max_steps=max_steps)


def compile_ast(program_ast, source, name="app", inputs=None,
                max_steps=5_000_000):
    """The pipeline after parsing: build CDFG, lower, profile, build BSBs.

    Every front end parses its language into the shared AST and calls
    this, so each counts one frontend compile.  ``source`` is kept on
    the Program; the other arguments are :func:`compile_source`'s.
    """
    from repro.profiling.interpreter import profile_cdfg

    global _frontend_compiles
    _frontend_compiles += 1
    cdfg = build_cdfg(program_ast, name=name)
    lower_all_leaves(cdfg)
    run = profile_cdfg(cdfg, program_ast, inputs=inputs,
                       max_steps=max_steps)
    outputs = {name_: run.scalars.get(name_, 0)
               for name_ in program_ast.outputs}
    return program_from_cdfg(cdfg, name, source, run.inputs, run.scalars,
                             outputs, program_ast=program_ast)


def program_from_cdfg(cdfg, name, source, inputs, final_values, outputs,
                      program_ast=None):
    """The Program of a lowered, profiled CDFG.

    The one construction path for cold and warm programs alike: the
    program's BSB array is :func:`repro.bsb.hierarchy.leaf_array` of
    ``cdfg``.  The mappings are copied; ``program_ast`` is ``None`` for
    a hydrated program.
    """
    return Program(
        name=name,
        source=source,
        ast=program_ast,
        cdfg=cdfg,
        bsbs=leaf_array(cdfg),
        inputs=dict(inputs),
        final_values=dict(final_values),
        outputs=dict(outputs),
    )
