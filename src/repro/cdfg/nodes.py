"""CDFG node classes.

Leaves hold the AST statements of one basic block (plus, for test
leaves, the controlling condition expression); inner nodes mirror the
control constructs.  Profile counts land on the leaves during
profiling.  The CDFG is the program's one tree: every node lists its
``children`` in program order, and the BSB hierarchy of Figure 4 is a
view of it — :func:`repro.bsb.hierarchy.leaf_array` builds the
leaf-BSB array from its lowered, profiled leaves, and
:func:`repro.bsb.hierarchy.hierarchy_lines` and
:func:`repro.viz.dot.bsb_hierarchy_to_dot` render it.

Every lowered, profiled tree also serialises to a **neutral, uid-free
payload** (:meth:`CdfgNode.to_payload` / :func:`cdfg_from_payload`):
names, structure, statement counts, test markers and profile counts
survive, and each leaf carries its DFG payload
(:meth:`repro.ir.dfg.DFG.to_payload`) and its ``reads`` and
``writes``; uids do not survive.  This is the tree the program store
keeps, so a hydrated program has the same views as a cold compile.
A hydrated tree gets fresh uids in the same
construction order the frontend builder uses (children before
parents), so visualisations of a stored CDFG are byte-identical to the
cold compile's.  The AST is a frontend artefact no downstream stage
reads — hydrated leaves carry :data:`HYDRATED_STATEMENT` placeholders
(count preserved, which is all the viz layer consumes) and
:data:`HYDRATED_COND` for test leaves.
"""

import itertools

from repro.errors import CdfgError
from repro.ir.dfg import DFG

_cdfg_id_counter = itertools.count(1)

#: Placeholder for one AST statement of a hydrated leaf: the document
#: keeps only the count, never the (frontend-only) statement objects.
HYDRATED_STATEMENT = "<hydrated-statement>"

#: Placeholder condition of a hydrated test leaf (only its presence
#: matters downstream: ``cond is not None``).
HYDRATED_COND = "<hydrated-cond>"


class CdfgNode:
    """Base class for CDFG nodes.

    ``children`` lists a node's subtrees in program order: a
    sequence's statements; a loop's test, then its body; a branch's
    test, its then-body, then its else-body when there is one.  A leaf
    or a wait has none.
    """

    kind = "node"
    children = ()

    def __init__(self, name=""):
        # The frontend builder names every node it builds per tree; a
        # node built without a name is named by its process-global uid.
        self.uid = next(_cdfg_id_counter)
        self.name = name or "%s%d" % (self.kind, self.uid)

    def leaves(self):
        """All CDFG leaves below (or at) this node, in program order."""
        result = []
        for child in self.children:
            result.extend(child.leaves())
        return result

    def to_payload(self):
        """A uid-free, JSON-compatible description of this subtree."""
        raise NotImplementedError

    def __repr__(self):
        return "%s(name=%r)" % (type(self).__name__, self.name)


class CdfgLeaf(CdfgNode):
    """A basic block: assignments, optionally ending in a condition.

    Attributes:
        statements: The ``Assign`` statements of the block, in order.
        cond: For test leaves, the controlling condition expression.
        exec_count: Filled in by the profiler (executions per run).
        dfg: Filled in by the DFG lowering pass.
        reads / writes: Live-in and defined variable names, filled in by
            the lowering pass.
    """

    kind = "dfg"

    def __init__(self, statements=None, cond=None, name=""):
        super().__init__(name=name)
        self.statements = list(statements or [])
        self.cond = cond
        self.exec_count = 0
        self.dfg = None
        self.reads = set()
        self.writes = set()

    def leaves(self):
        return [self]

    def is_empty(self):
        return not self.statements and self.cond is None

    def to_payload(self):
        return {
            "kind": self.kind,
            "name": self.name,
            "statements": len(self.statements),
            "test": self.cond is not None,
            "count": self.exec_count,
            "dfg": self.dfg.to_payload(),
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
        }

    def __repr__(self):
        return "CdfgLeaf(name=%r, stmts=%d, cond=%s, count=%d)" % (
            self.name, len(self.statements),
            "yes" if self.cond is not None else "no", self.exec_count)


class CdfgSeq(CdfgNode):
    """Sequential composition."""

    kind = "seq"

    def __init__(self, children=None, name=""):
        super().__init__(name=name)
        self.children = list(children or [])

    def to_payload(self):
        return {
            "kind": self.kind,
            "name": self.name,
            "children": [child.to_payload() for child in self.children],
        }


class CdfgLoop(CdfgNode):
    """A loop: a test leaf plus a body."""

    kind = "loop"

    def __init__(self, test, body, name=""):
        super().__init__(name=name)
        self.test = test
        self.body = body

    @property
    def children(self):
        return [self.test, self.body]

    def to_payload(self):
        return {
            "kind": self.kind,
            "name": self.name,
            "test": self.test.to_payload(),
            "body": self.body.to_payload(),
        }


class CdfgBranch(CdfgNode):
    """A conditional: a test leaf plus then/else bodies."""

    kind = "branch"

    def __init__(self, test, then_body, else_body=None, name=""):
        super().__init__(name=name)
        self.test = test
        self.then_body = then_body
        self.else_body = else_body

    @property
    def children(self):
        children = [self.test, self.then_body]
        if self.else_body is not None:
            children.append(self.else_body)
        return children

    def to_payload(self):
        return {
            "kind": self.kind,
            "name": self.name,
            "test": self.test.to_payload(),
            "then": self.then_body.to_payload(),
            "else": (self.else_body.to_payload()
                     if self.else_body is not None else None),
        }


class CdfgWait(CdfgNode):
    """A wait statement."""

    kind = "wait"

    def __init__(self, cycles, name=""):
        super().__init__(name=name)
        self.cycles = cycles

    def to_payload(self):
        return {"kind": self.kind, "name": self.name, "cycles": self.cycles}


def _hydrate_leaf(doc):
    statement_count = doc.get("statements")
    if not isinstance(statement_count, int) or statement_count < 0:
        raise CdfgError("bad CDFG leaf statement count: %r"
                        % (statement_count,))
    exec_count = doc.get("count")
    if not isinstance(exec_count, int) or exec_count < 0:
        raise CdfgError("bad CDFG leaf exec count: %r" % (exec_count,))
    leaf = CdfgLeaf(
        statements=[HYDRATED_STATEMENT] * statement_count,
        cond=HYDRATED_COND if doc.get("test") else None,
        name=str(doc["name"]))
    leaf.exec_count = exec_count
    leaf.dfg = DFG.from_payload(doc["dfg"])
    leaf.reads = {str(each) for each in doc["reads"]}
    leaf.writes = {str(each) for each in doc["writes"]}
    return leaf


def cdfg_from_payload(doc):
    """Rebuild a CDFG tree from :meth:`CdfgNode.to_payload` output.

    Children are rebuilt before their parents — the same order the
    frontend builder constructs them — and every node gets a **fresh
    uid** from this process's counter, so a hydrated tree can never
    collide with trees already live here.  Stored names are restored
    verbatim (the builder numbers them per tree, which is what keeps
    warm visualisations byte-identical to cold ones).  Hydrated
    leaves get their DFG (fresh operation uids), ``reads`` and
    ``writes`` back, and placeholder statements/conditions: only the
    statement count and test flag survive, which is all any
    post-frontend consumer reads.  Raises :class:`CdfgError` on
    malformed documents, a leaf without a DFG included.
    """
    if not isinstance(doc, dict):
        raise CdfgError("CDFG payload must be a mapping, got %r" % (doc,))
    try:
        kind = doc["kind"]
        name = str(doc["name"])
    except (KeyError, TypeError):
        raise CdfgError("CDFG payload missing kind/name") from None
    try:
        if kind == "dfg":
            return _hydrate_leaf(doc)
        if kind == "seq":
            children = [cdfg_from_payload(child)
                        for child in doc["children"]]
            return CdfgSeq(children, name=name)
        if kind == "loop":
            test = cdfg_from_payload(doc["test"])
            body = cdfg_from_payload(doc["body"])
            return CdfgLoop(test, body, name=name)
        if kind == "branch":
            test = cdfg_from_payload(doc["test"])
            then_body = cdfg_from_payload(doc["then"])
            else_doc = doc["else"]
            else_body = (cdfg_from_payload(else_doc)
                         if else_doc is not None else None)
            return CdfgBranch(test, then_body, else_body, name=name)
        if kind == "wait":
            cycles = doc["cycles"]
            if not isinstance(cycles, int) or cycles < 0:
                raise CdfgError("bad CDFG wait cycles: %r" % (cycles,))
            return CdfgWait(cycles, name=name)
    except (KeyError, TypeError) as exc:
        raise CdfgError("malformed %r CDFG payload: %s"
                        % (kind, exc)) from None
    raise CdfgError("unknown CDFG payload kind %r" % (kind,))
