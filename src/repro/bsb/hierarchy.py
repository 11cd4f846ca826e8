"""The BSB hierarchy as a view of the CDFG: the leaf array and its listing.

The allocation algorithm represents the application "as an array of leaf
BSBs" (section 3): the Figure-4 application becomes the array
``[B1, B2, B3, B4, B5]``.  The hierarchy above those leaves is the
CDFG's own tree, so :func:`leaf_array` builds the array straight from a
lowered, profiled CDFG, and :func:`hierarchy_lines` renders the CDFG as
the hierarchy for reports and the quickstart example (the right-hand
side of Figure 4).  Both import the CDFG nodes when called, so that
importing the package loads no frontend module.
"""

from repro.bsb.bsb import LeafBSB
from repro.errors import CdfgError


def leaf_array(cdfg):
    """The leaf-BSB array of a lowered, profiled CDFG, in program order.

    One :class:`LeafBSB` per leaf with at least one operation, carrying
    the leaf's DFG, execution count, reads and writes; empty leaves
    hold nothing to allocate or partition and stay out.
    """
    from repro.cdfg.nodes import CdfgNode

    if not isinstance(cdfg, CdfgNode):
        raise CdfgError("expected a CDFG root, got %r" % (cdfg,))
    return [LeafBSB(leaf.dfg, profile_count=leaf.exec_count,
                    name=leaf.name, reads=leaf.reads, writes=leaf.writes)
            for leaf in cdfg.leaves() if len(leaf.dfg)]


def hierarchy_lines(cdfg, indent="  "):
    """Render the hierarchy as indented text lines (Figure 4 style)."""
    from repro.cdfg.nodes import CdfgLeaf

    lines = []

    def visit(node, depth):
        if isinstance(node, CdfgLeaf):
            lines.append("%s%s  [DFG: %d ops, profile %d]"
                         % (indent * depth, node.name,
                            len(node.dfg), node.exec_count))
            return
        lines.append("%s%s (%s)" % (indent * depth, node.name, node.kind))
        for child in node.children:
            visit(child, depth + 1)

    visit(cdfg, 0)
    return lines
