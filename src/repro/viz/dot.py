"""Graphviz DOT exporters.

All functions return DOT source text; no Graphviz installation is
required (or imported) — render externally with ``dot -Tpng``.

Node identifiers are **dense per-graph indices** (creation order), not
raw uids: uids are process-global counters, so two processes rendering
the same stored graph would otherwise disagree byte-for-byte.  Dense
ids make ``export`` output reproducible across cold and warm runs.
Dependency edges are deduplicated — an operation feeding two operands
of the same consumer is still one arrow — and emitted in sorted dense
order, so the text is deterministic.
"""

import itertools

from repro.cdfg.nodes import CdfgLeaf
from repro.ir.ops import OpType

#: Fill colours per operation category (pastel, print-friendly).
_OP_COLORS = {
    OpType.MUL: "#f4cccc",
    OpType.DIV: "#ea9999",
    OpType.MOD: "#ea9999",
    OpType.ADD: "#d9ead3",
    OpType.SUB: "#d9ead3",
    OpType.CONST: "#fff2cc",
    OpType.LOAD: "#cfe2f3",
    OpType.STORE: "#cfe2f3",
}
_DEFAULT_COLOR = "#eeeeee"


def _quote(text):
    return '"%s"' % str(text).replace('"', r'\"')


def _dependency_edges(dfg, index_of):
    """Sorted, deduplicated (producer, consumer) dense-index pairs."""
    edges = set()
    for op in dfg.operations():
        for successor in dfg.successors(op):
            edges.add((index_of[op.uid], index_of[successor.uid]))
    return sorted(edges)


def dfg_to_dot(dfg, name=None):
    """DOT source for a data-flow graph (one node per operation)."""
    lines = ["digraph %s {" % _quote(name or dfg.name or "dfg"),
             "  rankdir=TB;",
             "  node [shape=box, style=filled, fontname=Helvetica];"]
    operations = dfg.operations()
    index_of = {op.uid: index for index, op in enumerate(operations)}
    for index, op in enumerate(operations):
        label = op.optype.value
        if op.label:
            label += r"\n%s" % op.label
        color = _OP_COLORS.get(op.optype, _DEFAULT_COLOR)
        lines.append('  n%d [label=%s, fillcolor="%s"];'
                     % (index, _quote(label), color))
    for producer, consumer in _dependency_edges(dfg, index_of):
        lines.append("  n%d -> n%d;" % (producer, consumer))
    lines.append("}")
    return "\n".join(lines)


def _tree_to_dot(cdfg, name, prefix, attributes):
    """DOT source for a CDFG walked through its ``children``.

    Nodes are numbered ``prefix0``, ``prefix1``, ... in pre-order, and
    ``attributes(node)`` gives each node's attribute list.
    """
    lines = ["digraph %s {" % _quote(name),
             "  rankdir=TB;",
             "  node [fontname=Helvetica];"]
    count = itertools.count()

    def emit(node):
        node_id = "%s%d" % (prefix, next(count))
        lines.append("  %s [%s];" % (node_id, attributes(node)))
        for child in node.children:
            child_id = emit(child)
            lines.append("  %s -> %s;" % (node_id, child_id))
        return node_id

    emit(cdfg)
    lines.append("}")
    return "\n".join(lines)


def _cdfg_attributes(node):
    if isinstance(node, CdfgLeaf):
        label = "%s\\n%d stmts" % (node.name, len(node.statements))
        if node.cond is not None:
            label += "\\n[test]"
        if node.exec_count:
            label += "\\nx%d" % node.exec_count
        return ('shape=box, style=filled, fillcolor="#d0e0f0", label=%s'
                % _quote(label))
    shape = {"seq": "folder", "loop": "ellipse",
             "branch": "diamond", "wait": "octagon"}.get(node.kind, "box")
    return "shape=%s, label=%s" % (shape, _quote(node.name))


def _bsb_attributes(node):
    if isinstance(node, CdfgLeaf):
        label = "%s\\n%d ops, x%d" % (node.name, len(node.dfg),
                                       node.exec_count)
        return ('shape=box, style=filled, fillcolor="#d9ead3", label=%s'
                % _quote(label))
    return "shape=folder, label=%s" % _quote("%s (%s)" % (node.name,
                                                          node.kind))


def cdfg_to_dot(cdfg, name="cdfg"):
    """DOT source for a CDFG (control nodes + leaf basic blocks)."""
    return _tree_to_dot(cdfg, name, "c", _cdfg_attributes)


def bsb_hierarchy_to_dot(cdfg, name="bsbs"):
    """DOT source for the BSB hierarchy (Figure 4, right-hand side).

    The hierarchy is a view of the CDFG: control nodes are labelled
    ``name (kind)``, and each leaf shows its DFG's operation count and
    its execution count.
    """
    return _tree_to_dot(cdfg, name, "b", _bsb_attributes)


def schedule_to_dot(schedule, name="schedule"):
    """DOT source for a schedule: operations clustered by control step.

    The Figure 5 view: one rank per control step, operations placed at
    their start step, dependency edges overlaid.  Operations the
    schedule did not place (no start step) are declared explicitly
    outside the clusters with a dashed border, so dependency edges
    never manufacture implicit unstyled Graphviz nodes.
    """
    dfg = schedule.dfg
    lines = ["digraph %s {" % _quote(name),
             "  rankdir=TB;",
             "  node [shape=box, style=filled, fontname=Helvetica];"]
    operations = dfg.operations()
    index_of = {op.uid: index for index, op in enumerate(operations)}
    placed = set()
    for step in range(1, schedule.length + 1):
        starters = schedule.operations_starting_at(step)
        if not starters:
            continue
        lines.append("  subgraph cluster_t%d {" % step)
        lines.append('    label="t=%d";' % step)
        for op in starters:
            placed.add(op.uid)
            color = _OP_COLORS.get(op.optype, _DEFAULT_COLOR)
            label = "%s (%d)" % (op.optype.value, schedule.latency(op))
            lines.append('    n%d [label=%s, fillcolor="%s"];'
                         % (index_of[op.uid], _quote(label), color))
        lines.append("  }")
    for op in operations:
        if op.uid in placed:
            continue
        color = _OP_COLORS.get(op.optype, _DEFAULT_COLOR)
        lines.append('  n%d [label=%s, fillcolor="%s", '
                     'style="filled,dashed"];'
                     % (index_of[op.uid],
                        _quote("%s (unplaced)" % op.optype.value), color))
    for producer, consumer in _dependency_edges(dfg, index_of):
        lines.append("  n%d -> n%d;" % (producer, consumer))
    lines.append("}")
    return "\n".join(lines)
