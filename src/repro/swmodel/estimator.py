"""Software time estimation for BSBs and whole applications."""


def bsb_software_time(bsb, processor):
    """Cycles to execute ``bsb`` in software, over the whole run.

    Software executes operations serially, so the time is the plain sum
    of per-operation cycles, scaled by the profile count.
    """
    per_execution = sum(processor.cycles_for(op.optype)
                        for op in bsb.dfg.operations())
    return bsb.profile_count * per_execution


def application_software_time(bsbs, processor):
    """Cycles for the all-software implementation of the application."""
    return sum(bsb_software_time(bsb, processor) for bsb in bsbs)
