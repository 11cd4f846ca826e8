"""FURO and dynamic urgency (Definitions 2 and 3).

The Functional Unit Request Overlap estimates, per operation type ``o``
and BSB ``B_k`` with profile count ``p_k``:

    FURO(o, B_k) = p_k * sum over pairs i != j with T(i) = T(j) = o,
                   j not in Succ(i), i not in Succ(j),
                   of Ovl(i, j) / (M(i) * M(j))

where ``Ovl`` is the overlap of the ASAP–ALAP start intervals and ``M``
the mobility.  The sum in the paper ranges over *ordered* pairs, which
counts every unordered pair twice; we follow the formula literally so
unit tests can check hand-computed values.

Definition 3 then derives the dynamic urgency used for prioritisation:

    U(o, B_k) = FURO(o, B_k)                      if B_k in software
    U(o, B_k) = FURO(o, B_k) / (Alloc(o) + 1)     if B_k in hardware

where ``Alloc(o)`` counts allocated units able to execute ``o`` — so a
BSB already benefiting from hardware sinks in priority as units
accumulate (Example 2).

Algorithm 1 reads these urgencies after every allocation change.  A
software BSB's urgency is its largest FURO, fixed for the array, and
:class:`UrgencyState` stores it once per BSB.  A hardware BSB's
urgency is read against an Alloc(o) table that
:meth:`UrgencyState.allocated_units` builds for every type in one walk
of the allocation, once per change.  :func:`allocated_units_for` and
:meth:`UrgencyState.max_urgency` stay the per-query reference.
"""

import itertools

from repro.core.restrictions import asap_type_parallelism
from repro.core.rmap import RMap
from repro.engine.cache import EvalCache, fingerprint
from repro.sched.mobility import (
    asap_alap_intervals,
    interval_overlap,
    mobility,
)


def bsb_intervals(bsb, library, cache):
    """Memoised ASAP/ALAP start intervals of one BSB's operations.

    Keyed by BSB uid: the mapping is keyed by operation uid, so a
    structurally equal twin (same fingerprint, other uids) must not
    share it.
    """
    key = (bsb.uid, None if library is None else fingerprint(library))
    intervals = cache.intervals.get(key)
    if intervals is None:
        intervals = cache.intervals[key] = asap_alap_intervals(
            bsb.dfg, library=library)
    return intervals


def furo(bsb, library=None, cache=None):
    """FURO values of one BSB: mapping op type -> FURO(o, B).

    The computation is the paper's one-time L*k^2 preprocessing step
    (section 4.4); the :class:`~repro.engine.cache.EvalCache` (a fresh
    one when omitted) memoises it per BSB content and library.
    """
    if cache is None:
        cache = EvalCache()
    key = (fingerprint(bsb),
           None if library is None else fingerprint(library))
    values = cache.furo.get(key)
    if values is not None:
        cache.stats.hit("furo")
        return values
    cache.stats.miss("furo")
    dfg = bsb.dfg
    intervals = bsb_intervals(bsb, library, cache)
    values = {}
    for optype in dfg.op_types():
        ops = dfg.operations_of_type(optype)
        if len(ops) < 2:
            values[optype] = 0.0
            continue
        total = 0.0
        for op_i, op_j in itertools.combinations(ops, 2):
            if op_j in dfg.transitive_successors(op_i):
                continue
            if op_i in dfg.transitive_successors(op_j):
                continue
            overlap = interval_overlap(intervals[op_i.uid],
                                       intervals[op_j.uid])
            if overlap:
                total += overlap / (mobility(intervals[op_i.uid])
                                    * mobility(intervals[op_j.uid]))
        # Definition 2 sums over ordered pairs; combinations() walked the
        # unordered ones, hence the factor two.
        values[optype] = bsb.profile_count * 2.0 * total
    cache.furo[key] = values
    return values


def allocated_units_for(optype, allocation, library):
    """Alloc(o): allocated instances able to execute ``optype``."""
    allocation = RMap._coerce(allocation)
    return sum(count for name, count in allocation.items()
               if library.get(name).executes(optype))


class UrgencyState:
    """Cached FURO values plus the dynamic urgency of Definition 3.

    FURO values are computed once per BSB array (the expensive step),
    together with what every Algorithm 1 step re-reads: each BSB's
    (type, FURO) pairs in ascending ``OpType.value`` order and its
    software urgency.  Urgency queries then depend only on the current
    allocation and the current hardware/software placement, both
    supplied per call, so the state stays immutable apart from the
    memoised :meth:`type_caps`.
    """

    def __init__(self, bsbs, library=None, cache=None):
        if cache is None:
            cache = EvalCache()
        self.bsbs = list(bsbs)
        self.library = library
        self._furo = {bsb.uid: furo(bsb, library=library, cache=cache)
                      for bsb in self.bsbs}
        self._pairs = {}
        self._software = {}
        for uid, values in self._furo.items():
            pairs = tuple((optype, values[optype]) for optype in
                          sorted(values, key=lambda ot: ot.value))
            self._pairs[uid] = pairs
            self._software[uid] = max([0.0] + [value for _, value in pairs])
        self._type_caps = None

    def furo_value(self, bsb, optype):
        """Static FURO(o, B); zero if the BSB lacks the type."""
        return self._furo[bsb.uid].get(optype, 0.0)

    def op_types(self, bsb):
        """Operation types with a FURO entry for ``bsb``."""
        return sorted(self._furo[bsb.uid], key=lambda ot: ot.value)

    def urgency(self, bsb, optype, in_hardware, allocation):
        """U(o, B) per Definition 3."""
        value = self.furo_value(bsb, optype)
        if not in_hardware:
            return value
        if self.library is None:
            raise ValueError("urgency of a hardware BSB requires a library "
                             "to resolve Alloc(o)")
        units = allocated_units_for(optype, allocation, self.library)
        return value / (units + 1)

    def max_urgency(self, bsb, in_hardware, allocation):
        """(max U(o, B), argmax op type); (0.0, None) for an empty BSB."""
        best_value, best_type = 0.0, None
        for optype in self.op_types(bsb):
            value = self.urgency(bsb, optype, in_hardware, allocation)
            if value > best_value:
                best_value, best_type = value, optype
        return best_value, best_type

    def furo_pairs(self, bsb):
        """(type, FURO) pairs of ``bsb`` in ascending type-value order."""
        return self._pairs[bsb.uid]

    def software_urgency(self, bsb):
        """max U(o, B) of a software BSB: its largest FURO (0.0 if none)."""
        return self._software[bsb.uid]

    def allocated_units(self, allocation):
        """Alloc(o) of every type at once, in one walk of ``allocation``.

        A multi-function unit counts toward every type it executes, as
        in :func:`allocated_units_for`; a type no allocated unit
        executes is absent from the table.
        """
        if self.library is None:
            raise ValueError("urgency of a hardware BSB requires a library "
                             "to resolve Alloc(o)")
        units = {}
        for name, count in RMap._coerce(allocation).items():
            for optype in self.library.get(name).optypes:
                units[optype] = units.get(optype, 0) + count
        return units

    def hardware_max_urgency(self, bsb, units):
        """:meth:`max_urgency` of a hardware BSB, read from an
        :meth:`allocated_units` table: the first strict maximum in
        ascending type-value order, from ``(0.0, None)``."""
        best_value, best_type = 0.0, None
        for optype, value in self._pairs[bsb.uid]:
            value = value / (units.get(optype, 0) + 1)
            if value > best_value:
                best_value, best_type = value, optype
        return best_value, best_type

    def type_caps(self):
        """Module selection's per-type caps
        (:func:`~repro.core.restrictions.asap_type_parallelism`), computed
        on first use; process-local and outside the hit/miss accounting.
        """
        if self._type_caps is None:
            self._type_caps = asap_type_parallelism(self.bsbs,
                                                    library=self.library)
        return self._type_caps
