"""Schedule container shared by ASAP, ALAP and list scheduling."""

from repro.errors import SchedulingError


class Schedule:
    """A mapping from operations to control-step intervals.

    Control steps are 1-based (the paper's Figure 5 labels them
    ``t=1 .. t=5``).  An operation scheduled at start ``s`` with latency
    ``l`` occupies steps ``s .. s+l-1`` inclusive.
    """

    def __init__(self, dfg, latencies, starts=None):
        """``latencies`` maps operation uid -> latency in control steps;
        ``starts``, when given, maps uid -> start step of every placed
        operation in one piece (the list scheduler's way) instead of
        one :meth:`place` call per operation, and is kept, not copied.
        """
        self.dfg = dfg
        self._latencies = dict(latencies)
        self._starts = {} if starts is None else starts

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def place(self, operation, start):
        """Schedule ``operation`` to begin at control step ``start``."""
        if start < 1:
            raise SchedulingError("control steps are 1-based; got start=%r"
                                  % (start,))
        if operation.uid not in self._latencies:
            raise SchedulingError("operation %s has no latency entry"
                                  % operation)
        self._starts[operation.uid] = int(start)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def set_latency(self, operation, latency):
        """Override an operation's latency (heterogeneous unit binding).

        For a caller that binds an operation to a unit only after the
        schedule was built; the list scheduler builds its schedule with
        each unit's latency already known.
        """
        if latency < 1:
            raise SchedulingError("latency must be >= 1, got %r"
                                  % (latency,))
        self._latencies[operation.uid] = int(latency)

    def start(self, operation):
        """First control step occupied by ``operation``."""
        try:
            return self._starts[operation.uid]
        except KeyError:
            raise SchedulingError("operation %s is not scheduled"
                                  % operation) from None

    def finish(self, operation):
        """Last control step occupied by ``operation`` (inclusive)."""
        return self.start(operation) + self.latency(operation) - 1

    def latency(self, operation):
        """Latency in control steps of ``operation``."""
        return self._latencies[operation.uid]

    def is_complete(self):
        """True once every DFG operation has been placed."""
        return len(self._starts) == len(self.dfg)

    @property
    def length(self):
        """Schedule length: the last occupied control step (0 if empty)."""
        if not self._starts:
            return 0
        return max(self._starts[uid] + self._latencies[uid] - 1
                   for uid in self._starts)

    def operations_starting_at(self, step):
        """Operations whose start step equals ``step``."""
        return [self.dfg.operation(uid)
                for uid, start in sorted(self._starts.items())
                if start == step]

    def operations_active_at(self, step):
        """Operations occupying control step ``step``."""
        active = []
        for uid, start in sorted(self._starts.items()):
            if start <= step <= start + self._latencies[uid] - 1:
                active.append(self.dfg.operation(uid))
        return active

    def max_type_parallelism(self):
        """Per op type, the max number of same-type ops sharing a step.

        This is the quantity section 4.3 derives allocation restrictions
        from: "the ASAP-schedule can be used to give an estimate of the
        maximum number of operations of a specific type that can be
        executed in parallel".
        """
        peaks = {}
        for step in range(1, self.length + 1):
            counts = {}
            for op in self.operations_active_at(step):
                counts[op.optype] = counts.get(op.optype, 0) + 1
            for optype, count in counts.items():
                if count > peaks.get(optype, 0):
                    peaks[optype] = count
        return peaks

    def verify_dependencies(self):
        """Raise :class:`SchedulingError` if a consumer starts too early.

        Walks the DFG's uid :meth:`~repro.ir.dfg.DFG.adjacency` over
        the start and latency maps; an operation with a consumer that
        is not placed (or a consumer that is not) raises too.
        """
        starts = self._starts
        latencies = self._latencies
        operation = self.dfg.operation
        for uid, consumers in self.dfg.adjacency()[2].items():
            if not consumers:
                continue
            finish = starts.get(uid)
            if finish is None:
                raise SchedulingError("operation %s is not scheduled"
                                      % (operation(uid),))
            finish += latencies[uid] - 1
            for consumer in consumers:
                start = starts.get(consumer)
                if start is None:
                    raise SchedulingError("operation %s is not scheduled"
                                          % (operation(consumer),))
                if start <= finish:
                    raise SchedulingError(
                        "dependency violated: %s finishes at %d but %s "
                        "starts at %d" % (operation(uid), finish,
                                          operation(consumer), start))

    def as_dict(self):
        """Mapping uid -> (start, finish) for reporting."""
        return {uid: (start, start + self._latencies[uid] - 1)
                for uid, start in self._starts.items()}

    def __repr__(self):
        return "Schedule(dfg=%r, length=%d, placed=%d/%d)" % (
            self.dfg.name, self.length, len(self._starts), len(self.dfg))


def latency_table(dfg, library=None, default=1):
    """Build a uid -> latency mapping for a DFG.

    With a :class:`~repro.hwlib.library.ResourceLibrary`, each operation
    gets the latency of its designated resource; without one, every
    operation takes ``default`` control steps (the unit-latency model the
    paper's Figure 5 example uses).
    """
    latencies = {}
    for op in dfg.operations():
        if library is not None and library.supports(op.optype):
            latencies[op.uid] = library.resource_for(op.optype).latency
        else:
            latencies[op.uid] = default
    return latencies
