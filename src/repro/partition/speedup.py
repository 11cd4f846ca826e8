"""Speed-up metric (section 5).

"Speed-up is computed as the decrease in execution time from an all
software solution to a combined hardware/software solution including
hardware/software communication time estimates" — reported in percent,
e.g. 1610% for ``straight`` (a 17.1x faster hybrid).
"""

from repro.errors import PartitionError


def speedup_percent(sw_time_all, hybrid_time):
    """SU = (T_all_sw - T_hybrid) / T_hybrid * 100."""
    if hybrid_time <= 0:
        if sw_time_all <= 0:
            return 0.0
        raise PartitionError("hybrid time must be positive, got %r"
                             % (hybrid_time,))
    return (sw_time_all - hybrid_time) / hybrid_time * 100.0
