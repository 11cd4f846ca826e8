"""Basic Scheduling Blocks: the partitioning view of an application.

The BSB hierarchy of Figure 4 is a view of the CDFG: its inner nodes
are the CDFG's control nodes (sequences, loops, branches, waits) and
its leaves the CDFG's basic blocks.  The bulk of the application is
the array of *leaf* BSBs, each containing a single data-flow graph;
:func:`leaf_array` builds it from a lowered, profiled CDFG, and the
allocation algorithm and the PACE partitioner both operate on it.
"""

from repro.bsb.bsb import LeafBSB
from repro.bsb.hierarchy import leaf_array, hierarchy_lines

__all__ = [
    "LeafBSB",
    "leaf_array",
    "hierarchy_lines",
]
