"""Control Data Flow Graphs (Figure 4's left-hand side).

The CDFG expresses "loops, conditionals, wait-statements, functional
hierarchy and actual computation (the Data Flow Graphs)".  The builder
converts the mini-C AST into a CDFG whose leaves are maximal basic
blocks, then lowers each leaf into a DFG.  The CDFG is the program's
one tree: the BSB hierarchy used by the allocator and partitioner is a
view of it (:mod:`repro.bsb`).
"""

from repro.cdfg.nodes import (
    CdfgNode,
    CdfgLeaf,
    CdfgSeq,
    CdfgLoop,
    CdfgBranch,
    CdfgWait,
    cdfg_from_payload,
)
from repro.cdfg.builder import build_cdfg, compile_source, Program

__all__ = [
    "CdfgNode",
    "CdfgLeaf",
    "CdfgSeq",
    "CdfgLoop",
    "CdfgBranch",
    "CdfgWait",
    "cdfg_from_payload",
    "build_cdfg",
    "compile_source",
    "Program",
]
