"""BSB prioritisation (Definition 4, section 4.1).

``B_k -> B_l`` (B_k has priority over B_l) iff
``max_o U(o, B_k) >= max_o U(o, B_l)``.  The sort is stable with a
deterministic tie-break on the BSB's position in the original array, so
equal-urgency BSBs keep program order — which also makes the allocator's
"restart from the front after every allocation change" loop reproducible.

A re-prioritisation reads each software BSB's fixed urgency and each
hardware BSB's urgency against one Alloc(o) table
(:meth:`~repro.core.furo.UrgencyState.allocated_units`), so it walks
the allocation once, not once per (BSB, type).  :func:`bsb_priority_key`
is the per-BSB reference of the same key.
"""


def bsb_priority_key(bsb, state, hw_uids, allocation, original_index=0):
    """Sort key: descending max urgency, then original array position."""
    value, _ = state.max_urgency(bsb, bsb.uid in hw_uids, allocation)
    return (-value, original_index)


def prioritize(bsbs, state, hw_uids, allocation):
    """Return the BSB array sorted by Definition 4's priority relation."""
    units = state.allocated_units(allocation) if hw_uids else {}
    return _prioritize(bsbs, state, hw_uids, units)


def _prioritize(bsbs, state, hw_uids, units):
    """:func:`prioritize` against a precomputed Alloc(o) table."""
    keys = []
    for index, bsb in enumerate(bsbs):
        if bsb.uid in hw_uids:
            value, _ = state.hardware_max_urgency(bsb, units)
        else:
            value = state.software_urgency(bsb)
        keys.append((-value, index))
    keys.sort()
    return [bsbs[index] for _, index in keys]
