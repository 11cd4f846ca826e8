"""Mobility and ASAP–ALAP interval overlap (Definition 2 ingredients).

The paper's Figure 5 example: an operation with ASAP start t=1 and ALAP
start t=5 has mobility M(i) = 5 - 1 + 1 = 5; two operations whose start
intervals share three control steps have Ovl(i, j) = 3.
"""

from repro.sched.alap import alap_schedule
from repro.sched.asap import asap_schedule


def asap_alap_intervals(dfg, library=None, default_latency=1):
    """Per-operation (asap_start, alap_start) pairs.

    Returns a mapping uid -> (asap, alap) where both bounds refer to the
    operation's *start* step, the interval over which the final schedule
    may place the operation.  The engine memoises the result per BSB
    (:func:`repro.core.furo.bsb_intervals`): it re-prioritises
    allocations many times over the same BSBs.
    """
    asap = asap_schedule(dfg, library=library, default_latency=default_latency)
    alap = alap_schedule(dfg, library=library, default_latency=default_latency)
    return {op.uid: (asap.start(op), alap.start(op))
            for op in dfg.operations()}


def mobility(interval):
    """Mobility of an operation: ALAP - ASAP + 1 (always >= 1)."""
    asap_start, alap_start = interval
    return alap_start - asap_start + 1


def interval_overlap(interval_a, interval_b):
    """Number of control steps shared by two start intervals.

    ``Ovl(i, j)`` in Definition 2; zero when the intervals are disjoint.
    """
    low = max(interval_a[0], interval_b[0])
    high = min(interval_a[1], interval_b[1])
    return max(0, high - low + 1)
