"""The leaf BSB: one data-flow graph plus partitioning metadata."""

import itertools

from repro.errors import CdfgError
from repro.ir.dfg import DFG

_bsb_id_counter = itertools.count(1)


class LeafBSB:
    """A leaf BSB: one data-flow graph plus partitioning metadata.

    Every leaf BSB gets a process-local ``uid`` from its own counter;
    the in-process cache stages key on it.

    Attributes:
        dfg: The contained :class:`~repro.ir.dfg.DFG`.
        profile_count: Number of executions of this BSB during one run
            of the application (the paper's ``p_k``).
        reads: Names of variables the BSB consumes (live-in); used by
            the communication model when the BSB sits at a HW/SW
            boundary.
        writes: Names of variables the BSB produces (live-out).
    """

    def __init__(self, dfg, profile_count=1, name="", reads=(), writes=()):
        if not isinstance(dfg, DFG):
            raise CdfgError("LeafBSB requires a DFG, got %r" % (dfg,))
        self.uid = next(_bsb_id_counter)
        self.name = name or dfg.name or "leaf%d" % self.uid
        if profile_count < 0:
            raise CdfgError("profile count must be >= 0, got %r"
                            % (profile_count,))
        self.dfg = dfg
        self.profile_count = int(profile_count)
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)

    def op_types(self):
        """The operation types appearing in this BSB's DFG."""
        return self.dfg.op_types()

    def __repr__(self):
        return "LeafBSB(name=%r, ops=%d, profile=%d)" % (
            self.name, len(self.dfg), self.profile_count)
